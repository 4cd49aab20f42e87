//! `paper_grid`: what `repro fig9 fig10 fig11` does at the default scale.
//! Synthesise Homes / Web-vm / Mail, replay each under the three schemes
//! through `cagc_core::run_cells` on the pool, render Figs. 9-11 and the
//! nine report JSONs. It repeats `cagc_bench::run_aged` from its public
//! pieces so that synthesis, replay, figures and rendering are separate
//! spans; at seed 7 `fig9.csv` must byte-match the committed golden, which
//! pins the two to the same computation.

use std::time::Instant;

use cagc_bench::{experiments, paper, AgedResults, Scale};
use cagc_core::{run_cell, run_cells, RunReport, Scheme, Ssd, SsdConfig};
use cagc_flash::DeviceStats;
use cagc_harness::{pool, ToJson};
use cagc_metrics::reduction_pct;
use cagc_workloads::{FiuWorkload, Trace};

use super::{
    digest, drive_traced, set_core_attribution, set_report_counts, workers, Checks, EstCounts,
    IterOutcome, Layers, SimFigures, Workload, ITER_SPAN,
};
use crate::attrib::Attribution;
use crate::spans::Spans;

/// Seed the committed `results/fig9.csv` was generated at. It is the one
/// figure golden `scripts/verify.sh` regenerates and gates; the committed
/// `fig10.csv` and `fig11.csv` predate model changes and no longer match
/// what `repro fig10 fig11` writes, so they cannot serve as references.
const GOLDEN_SEED: u64 = 7;
const FIG9_GOLDEN: &str = include_str!("../../../results/fig9.csv");
/// The CSVs an iteration renders, in order.
const FIGURES: usize = 3;

pub struct PaperGrid {
    scale: Scale,
    /// Flash operations of one pass over the grid. `RunReport` does not
    /// export flash reads, so the first (warm-up) iteration runs the same
    /// nine replays itself and reads each device's counters.
    flash_ops: Option<u64>,
    /// Rendered outputs of the most recent iteration: nine report JSONs,
    /// then the three CSVs.
    last: Vec<String>,
}

/// Everything one pass over the grid produced.
struct Grid {
    traces: Vec<Trace>,
    aged: AgedResults,
    flash_ops: u64,
    rendered: Vec<String>,
}

impl PaperGrid {
    pub fn new(seed: u64) -> Self {
        Self {
            scale: Scale {
                seed,
                workers: workers(),
                ..Scale::default_scale()
            },
            flash_ops: None,
            last: Vec::new(),
        }
    }

    fn synth(&self) -> Vec<Trace> {
        let s = &self.scale;
        FiuWorkload::ALL
            .iter()
            .map(|&w| {
                w.synth_config(s.footprint_pages(w), s.requests_for(w), s.seed)
                    .generate()
            })
            .collect()
    }

    /// `(config, trace)` per cell, traces in paper order, schemes in
    /// `Scheme::ALL` order within each — the order `run_aged` uses.
    fn cells<'a>(&self, traces: &'a [Trace]) -> Vec<(SsdConfig, &'a Trace)> {
        let flash = self.scale.flash();
        traces
            .iter()
            .flat_map(|t| Scheme::ALL.map(|scheme| (SsdConfig::paper(flash, scheme), t)))
            .collect()
    }

    fn run(&self, rec: &mut Spans) -> Grid {
        rec.scope(ITER_SPAN, |rec| {
            let traces = rec.scope("workloads.synth", |_| self.synth());
            let (reports, flash_ops) = rec.scope("core.run_cells", |_| {
                let (cells, n) = (self.cells(&traces), self.scale.workers);
                match self.flash_ops {
                    Some(ops) => (run_cells(&cells, n), ops),
                    // What `run_cells` does, keeping each device long
                    // enough to read its operation counters.
                    None => {
                        let (reports, ops): (Vec<_>, Vec<_>) =
                            pool::map_ordered(&cells, n, |(cfg, trace)| {
                                let mut ssd = Ssd::new(cfg.clone());
                                let report = ssd.replay(trace);
                                (report, ssd.device().stats().total_ops())
                            })
                            .into_iter()
                            .unzip();
                        (reports, ops.iter().sum())
                    }
                }
            });
            let (aged, csvs) = rec.scope("bench.figures", |_| {
                let aged = aged_of(&reports);
                let figures = [
                    experiments::fig9(&aged),
                    experiments::fig10(&aged),
                    experiments::fig11(&aged),
                ];
                let csvs: Vec<String> = figures
                    .into_iter()
                    .flat_map(|a| a.csv)
                    .map(|(_, csv)| csv)
                    .collect();
                (aged, csvs)
            });
            let mut rendered: Vec<String> = rec.scope("harness.json_render", |_| {
                reports.iter().map(|r| r.to_json().render()).collect()
            });
            rendered.extend(csvs);
            Grid {
                traces,
                aged,
                flash_ops,
                rendered,
            }
        })
    }
}

/// Group the grid's reports per workload, as `run_aged` does.
fn aged_of(reports: &[RunReport]) -> AgedResults {
    let runs = FiuWorkload::ALL
        .iter()
        .zip(reports.chunks(Scheme::ALL.len()))
        .map(|(&w, chunk)| (w, chunk.to_vec()))
        .collect();
    AgedResults { runs }
}

fn reports(aged: &AgedResults) -> impl Iterator<Item = &RunReport> {
    aged.runs.iter().flat_map(|(_, rs)| rs)
}

/// Mean absolute gap, in percentage points, between the measured CAGC
/// reductions of Figs. 9-11 and the paper's published ones (nine cells).
fn paper_err_pp(aged: &AgedResults) -> f64 {
    type Metric = fn(&RunReport) -> f64;
    let figures: [(&[f64; 3], Metric); 3] = [
        (&paper::FIG9_ERASE_REDUCTION_PCT, |r| {
            r.gc.blocks_erased as f64
        }),
        (&paper::FIG10_MIGRATION_REDUCTION_PCT, |r| {
            r.gc.pages_migrated as f64
        }),
        (&paper::FIG11_RESPONSE_REDUCTION_PCT, |r| {
            r.gc_period_mean_ns()
        }),
    ];
    let mut gap = 0.0;
    for (published, metric) in figures {
        for (i, w) in FiuWorkload::ALL.into_iter().enumerate() {
            let (_, base, cagc) = aged.of(w);
            gap += (reduction_pct(metric(base), metric(cagc)) - published[i]).abs();
        }
    }
    gap / 9.0
}

/// What one traced cell hands back from its pool thread.
struct TracedCell {
    attr: Attribution,
    report: RunReport,
    stats: DeviceStats,
    construct_s: f64,
    report_s: f64,
    span: (Instant, Instant),
}

fn traced_cell(cfg: &SsdConfig, trace: &Trace) -> TracedCell {
    let start = Instant::now();
    let mut ssd = Ssd::new(cfg.clone());
    let construct_s = start.elapsed().as_secs_f64();
    let attr = drive_traced(&mut ssd, trace);
    let report_start = Instant::now();
    let report = ssd.report(&trace.name);
    let end = Instant::now();
    TracedCell {
        attr,
        report,
        stats: *ssd.device().stats(),
        construct_s,
        report_s: (end - report_start).as_secs_f64(),
        span: (start, end),
    }
}

impl Workload for PaperGrid {
    fn iterate(&mut self, rec: &mut Spans) -> IterOutcome {
        let grid = self.run(rec);
        let requests: usize = grid
            .traces
            .iter()
            .map(|t| t.requests.len() * Scheme::ALL.len())
            .sum();
        self.flash_ops = Some(grid.flash_ops);
        let acknowledged: u64 = reports(&grid.aged).map(|r| r.all.count).sum();
        let out = IterOutcome {
            requests: requests as u64,
            flash_ops: grid.flash_ops,
            unfinished: requests as u64 - acknowledged,
            digest: digest(grid.rendered.iter().map(String::as_str)),
            sim: SimFigures::of_reports(
                reports(&grid.aged).filter(|r| r.scheme == Scheme::Cagc.name()),
            ),
        };
        self.last = grid.rendered;
        out
    }

    fn finish(&mut self, checks: &mut Checks) {
        let fig9 = &self.last[self.last.len() - FIGURES];
        checks.require(
            self.scale.seed != GOLDEN_SEED || fig9 == FIG9_GOLDEN,
            || "fig9.csv differs from the committed results/fig9.csv".into(),
        );
    }

    fn traced(
        &mut self,
        rec: &mut Spans,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Option<EstCounts> {
        let n = self.scale.workers;
        // The warm-up iteration just ran at N workers: its spans are the
        // uninstrumented reference for every phase.
        let synth_s = rec.last_s("workloads.synth");
        let cells_wn_s = rec.last_s("core.run_cells");
        layers.set("workloads.synth_ms", synth_s * 1e3);
        layers.set(
            "harness.json_render_ms",
            rec.last_s("harness.json_render") * 1e3,
        );
        layers.set("bench.figures_ms", rec.last_s("bench.figures") * 1e3);

        let traces = self.synth();
        let cells = self.cells(&traces);
        let timed_requests: usize = traces.iter().map(|t| t.requests.len()).sum();
        layers.set(
            "workloads.synth_ns_per_req",
            synth_s * 1e9 / timed_requests as f64,
        );

        let w1 = rec.scope("core.run_cells_w1", |_| run_cells(&cells, 1));
        let w1_json: Vec<String> = w1.iter().map(|r| r.to_json().render()).collect();
        checks.require(w1_json[..] == self.last[..w1_json.len()], || {
            format!("reports at 1 worker differ from the reports at {n} workers")
        });
        layers.set(
            "harness.pool_eff",
            rec.last_s("core.run_cells_w1") / (n as f64 * cells_wn_s),
        );
        layers.set("accuracy.paper_err_pp", paper_err_pp(&aged_of(&w1)));

        // Per-request drive of all nine cells on the pool.
        let traced = rec.scope("core.traced_cells", |rec| {
            let out = pool::map_ordered(&cells, n, |(cfg, trace)| traced_cell(cfg, trace));
            for cell in &out {
                rec.add("core.traced_cell", cell.span.0, cell.span.1);
            }
            out
        });
        let mut attr = Attribution::default();
        for ((cell, want), (_, trace)) in traced.iter().zip(&w1_json).zip(&cells) {
            attr.merge(&cell.attr);
            checks.require(cell.report.to_json().render() == *want, || {
                format!(
                    "{} / {}: per-request drive report differs from Ssd::replay's",
                    trace.name, cell.report.scheme
                )
            });
        }
        set_core_attribution(layers, &attr);
        let traced_ops: u64 = traced.iter().map(|c| c.stats.total_ops()).sum();
        checks.require(Some(traced_ops) == self.flash_ops, || {
            format!(
                "per-request drive made {traced_ops} flash ops, Ssd::replay made {:?}",
                self.flash_ops
            )
        });
        set_report_counts(
            layers,
            &traced.iter().map(|c| &c.report).collect::<Vec<_>>(),
        );
        layers.set(
            "flash.reads",
            traced.iter().map(|c| c.stats.reads).sum::<u64>() as f64,
        );
        layers.set(
            "core.construct_ms",
            traced.iter().map(|c| c.construct_s).sum::<f64>() * 1e3,
        );
        layers.set(
            "core.report_ms",
            traced.iter().map(|c| c.report_s).sum::<f64>() * 1e3,
        );
        let overhead = rec.last_s("core.traced_cells") / cells_wn_s - 1.0;
        layers.set("bench.trace_overhead_pct", overhead * 100.0);

        // Pool threads are fresh on every call, so every iteration starts
        // with an empty per-thread fingerprint memo. What that costs: the
        // most dedup-heavy cell twice on one new thread, cold then warm.
        let (cfg, trace) = &cells[cells.len() - 1];
        let timed = || {
            let t = Instant::now();
            std::hint::black_box(run_cell(cfg.clone(), trace));
            t.elapsed().as_secs_f64()
        };
        let (cold_s, warm_s) = pool::run_workers(1, |_| (timed(), timed())).remove(0);
        layers.set("dedup.cold_penalty_ms", (cold_s - warm_s) * 1e3);
        None
    }
}
