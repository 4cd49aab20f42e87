//! Regeneration of every table and figure in the paper's evaluation,
//! plus the ablations DESIGN.md calls out.
//!
//! Every fact is stated once. An experiment is one function that pushes
//! each result row once into a [`Table`], in the CSV's columns and
//! precision: [`Table::to_csv`] is the artifact checked into `results/`,
//! [`Table::render`] the same cells aligned for `repro`'s stdout. Replay
//! grids go through `grid`, which hands every report back with the trace
//! key and cell label it belongs to. [`COMMANDS`] names each experiment
//! once; `repro` derives its usage, `all` / `ablations` and dispatch from it.

use std::time::Instant;

use cagc_core::{run_cells, RunReport, Scheme, SsdConfig};
use cagc_flash::FaultConfig;
use cagc_ftl::VictimKind;
use cagc_metrics::{bar_chart, reduction_pct, Table};
use cagc_workloads::{FiuWorkload, Trace, TraceProfile};

use crate::paper;
use crate::scale::Scale;

/// A rendered experiment: the text block plus named CSV artifacts.
pub struct Artifacts {
    /// Human-readable result block.
    pub text: String,
    /// `(file_name, csv_content)` pairs.
    pub csv: Vec<(String, String)>,
}

impl Artifacts {
    /// `title`, the aligned table, then a closing `note`; `file` gets the
    /// same rows as CSV.
    fn tabled(title: &str, t: &Table, note: &str, file: &str) -> Self {
        Self {
            text: format!("{title}\n\n{}{note}", t.render()),
            csv: vec![(file.into(), t.to_csv())],
        }
    }
}

/// Baseline and CAGC: the scheme pair most studies compare.
const PAIR: [Scheme; 2] = [Scheme::Baseline, Scheme::Cagc];

/// The aged-device trace for `w`: a footprint that nearly fills the
/// logical space (see `Scale::footprint_frac`), so GC runs throughout.
fn aged_trace(scale: &Scale, w: FiuWorkload) -> Trace {
    w.synth_config(scale.footprint_pages(w), scale.requests_for(w), scale.seed).generate()
}

/// [`aged_trace`] with the request count capped at `cap` (Mail included):
/// the single-workload sweeps replay many cells and their ratios settle
/// well before the figures' full length.
fn short_trace(scale: &Scale, w: FiuWorkload, cap: usize) -> Trace {
    w.synth_config(scale.footprint_pages(w), scale.requests.min(cap), scale.seed).generate()
}

/// A trace for a **fresh** (GC-free) device, the regime of Fig. 2.
fn fresh_trace(scale: &Scale, w: FiuWorkload) -> Trace {
    let flash = scale.flash();
    // Size each trace so total writes stay far below device capacity:
    // footprint 15% of logical space, volume ≈ 25% of physical pages.
    let budget_pages = flash.geometry().total_pages() / 4;
    let requests = (budget_pages as f64 / (w.write_ratio() * w.mean_req_pages())) as usize;
    let fp = (flash.logical_pages() as f64 * 0.15) as u64;
    let mut cfg = w.synth_config(fp, requests, scale.seed);
    cfg.prefill_fraction = 0.5;
    cfg.generate()
}

/// Replay every keyed trace under every `(scheme, label)` cell in one
/// `run_cells` call. `tweak` applies a label's delta to the scheme's paper
/// configuration. Reports come back trace-major, cells in the order given,
/// each with its trace key and label — callers never index.
fn grid<K: Copy, L: Copy>(
    scale: &Scale,
    traces: &[(K, Trace)],
    cells: &[(Scheme, L)],
    tweak: impl Fn(&mut SsdConfig, L),
) -> Vec<(K, L, RunReport)> {
    let flash = scale.flash();
    let mut keys = Vec::new();
    let mut jobs = Vec::new();
    for (key, trace) in traces {
        for &(scheme, label) in cells {
            let mut cfg = SsdConfig::paper(flash, scheme);
            tweak(&mut cfg, label);
            jobs.push((cfg, trace));
            keys.push((*key, label));
        }
    }
    let reports = run_cells(&jobs, scale.workers);
    keys.into_iter().zip(reports).map(|((key, label), r)| (key, label, r)).collect()
}

/// The aged-device replay grid behind Figs. 6, 9, 10, 11 and 12: every
/// workload × every scheme, on a device whose logical space is nearly full
/// (see `Scale::footprint_frac`).
pub struct AgedResults {
    /// Per workload (paper order), reports in `Scheme::ALL` order
    /// (Inline-Dedupe, Baseline, CAGC).
    pub runs: Vec<(FiuWorkload, Vec<RunReport>)>,
}

impl AgedResults {
    /// Reports for one workload: (inline, baseline, cagc).
    pub fn of(&self, w: FiuWorkload) -> (&RunReport, &RunReport, &RunReport) {
        let reports = &self.runs.iter().find(|(x, _)| *x == w).expect("workload present").1;
        (&reports[0], &reports[1], &reports[2])
    }
}

/// Run the aged grid once (shared by several figures).
pub fn run_aged(scale: &Scale) -> AgedResults {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let reports = grid(scale, &traces, &Scheme::ALL.map(|s| (s, ())), |_, ()| {});
    let runs = reports
        .chunks(Scheme::ALL.len())
        .map(|per_w| (per_w[0].0, per_w.iter().map(|(_, _, r)| r.clone()).collect()))
        .collect();
    AgedResults { runs }
}

// ------------------------------------------------------------- Table I

/// Table I: the SSD configuration in force at this scale.
pub fn table1(scale: &Scale) -> Artifacts {
    let flash = scale.flash();
    let geom = flash.geometry();
    let gb = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    // Laid out like the paper's Table I: two (type, value) facts per row.
    let facts = [
        ("Page Size", format!("{}B", flash.page_size)),
        ("Read", format!("{}us", flash.timing.read_ns / 1000)),
        ("Block Size", format!("{}KB", flash.pages_per_block * flash.page_size / 1024)),
        ("Write", format!("{}us", flash.timing.program_ns / 1000)),
        ("OP Space", format!("{:.0}%", flash.op_ratio * 100.0)),
        ("Erase Delay", format!("{:.1}ms", flash.timing.erase_ns as f64 / 1e6)),
        ("Capacity", format!("{:.0}GB (paper: 80GB)", gb(flash.physical_bytes()))),
        ("Hash", format!("{}us", flash.hash_ns / 1000)),
        ("Workloads", "FIU-like synthetic [9]".to_string()),
        ("GC Watermark", format!("{:.0}% (of OP pool)", flash.gc_watermark * 100.0)),
        (
            "Geometry",
            format!(
                "{}ch x {}die x {}pl x {}blk x {}pg",
                geom.channels,
                geom.dies_per_channel,
                geom.planes_per_die,
                geom.blocks_per_plane,
                geom.pages_per_block
            ),
        ),
        ("Logical", format!("{:.2}GB", gb(flash.logical_bytes()))),
    ];
    let mut t = Table::new(vec!["Type", "Value", "Type ", "Value "]);
    for pair in facts.chunks(2) {
        t.row(pair.iter().flat_map(|(k, v)| [k.to_string(), v.clone()]).collect());
    }
    Artifacts { text: format!("Table I — SSD configuration\n\n{}", t.render()), csv: Vec::new() }
}

// ------------------------------------------------------------ Table II

/// Table II: generate each workload and verify its measured
/// characteristics against the published ones.
pub fn table2(scale: &Scale) -> Artifacts {
    let mut t = Table::new(vec![
        "workload", "write_ratio", "paper_write_ratio", "dedup_ratio", "paper_dedup_ratio",
        "mean_req_kb", "paper_mean_req_kb",
    ]);
    for (w, (_, pw, pd, pk)) in FiuWorkload::ALL.into_iter().zip(paper::TABLE2) {
        // Characterize the steady-state request mix (the paper's Table II
        // describes the traces themselves); the prefill phase used to age
        // the device is excluded here.
        let mut cfg =
            w.synth_config(scale.footprint_pages(w), scale.requests.min(50_000), scale.seed);
        cfg.prefill_fraction = 0.0;
        let p = TraceProfile::of(&cfg.generate());
        t.row(vec![
            w.name().to_string(),
            format!("{:.4}", p.write_ratio),
            format!("{pw:.4}"),
            format!("{:.4}", p.dedup_ratio),
            format!("{pd:.4}"),
            format!("{:.2}", p.mean_req_kb),
            format!("{pk:.2}"),
        ]);
    }
    Artifacts::tabled(
        "Table II — workload characteristics (measured on generated traces vs paper)",
        &t,
        "",
        "table2.csv",
    )
}

// -------------------------------------------------------------- Fig 2

/// Fig. 2 (motivation): normalized response time of Inline-Dedupe vs
/// Baseline on a **fresh** (GC-free) device — the regime of the paper's
/// preliminary Z-NAND experiment.
pub fn fig2(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, fresh_trace(scale, w)));
    let cells = [Scheme::Baseline, Scheme::InlineDedup].map(|s| (s, ()));
    let reports = grid(scale, &traces, &cells, |_, ()| {});

    let mut t = Table::new(vec!["workload", "baseline_mean_us", "inline_mean_us", "normalized"]);
    let mut bars = Vec::new();
    let mut increases = Vec::new();
    for pair in reports.chunks(cells.len()) {
        let ((w, _, base), inline) = (&pair[0], &pair[1].2);
        assert_eq!(base.gc.invocations, 0, "fig2 must be GC-free");
        let norm = inline.all.mean_ns / base.all.mean_ns;
        increases.push((norm - 1.0) * 100.0);
        bars.push((format!("{} Baseline", w.name()), 1.0));
        bars.push((format!("{} Inline-Dedupe", w.name()), norm));
        t.row(vec![
            w.name().to_string(),
            format!("{:.2}", base.all.mean_ns / 1000.0),
            format!("{:.2}", inline.all.mean_ns / 1000.0),
            format!("{norm:.4}"),
        ]);
    }
    let text = format!(
        "Fig. 2 — normalized response time, fresh ULL SSD (Baseline vs Inline-Dedupe)\n\
         paper: inline dedup raised response time up to 71.9% (avg 43.1%)\n\n{}\n\
         measured increase: avg {:.1}%, max {:.1}%  (paper: avg {:.1}%, max {:.1}%)\n",
        bar_chart(&bars, 40),
        increases.iter().sum::<f64>() / increases.len() as f64,
        increases.iter().cloned().fold(f64::MIN, f64::max),
        paper::FIG2_INLINE_AVG_INCREASE_PCT,
        paper::FIG2_INLINE_MAX_INCREASE_PCT
    );
    Artifacts { text, csv: vec![("fig2.csv".into(), t.to_csv())] }
}

// -------------------------------------------------------------- Fig 6

/// Fig. 6 (motivation): distribution of invalidated pages by the peak
/// reference count of their content, per workload.
pub fn fig6(aged: &AgedResults) -> Artifacts {
    let mut t = Table::new(vec!["workload", "ref1", "ref2", "ref3", "ref_gt3"]);
    let mut avg = [0.0f64; 4];
    for w in FiuWorkload::ALL {
        let (inline, _, _) = aged.of(w);
        let b = inline.invalidation_by_refcount;
        let total: u64 = b.iter().sum();
        let f = b.map(|x| if total == 0 { 0.0 } else { x as f64 / total as f64 });
        for (a, v) in avg.iter_mut().zip(f) {
            *a += v / 3.0;
        }
        let mut row = vec![w.name().to_string()];
        row.extend(f.map(|v| format!("{v:.4}")));
        t.row(row);
    }
    let [a1, a2, a3, gt3] = avg.map(|a| a * 100.0);
    let note =
        format!("\naverage: ref1 {a1:.1}%  ref2 {a2:.1}%  ref3 {a3:.1}%  ref_gt3 {gt3:.2}%\n");
    Artifacts::tabled(
        "Fig. 6 — invalidated pages by reference count (Inline-Dedupe run: every page tracked)\n\
         paper: >80% of invalidations from refcount-1 pages; <1% from refcount>3",
        &t,
        &note,
        "fig6.csv",
    )
}

// ---------------------------------------------------- Figs 9 / 10 / 11

fn reduction_figure(
    aged: &AgedResults,
    title: &str,
    paper_pct: [f64; 3],
    metric: impl Fn(&RunReport) -> f64,
    file: &str,
) -> Artifacts {
    let mut t = Table::new(vec![
        "workload", "baseline", "cagc", "reduction_pct", "paper_reduction_pct",
    ]);
    for (w, paper) in FiuWorkload::ALL.into_iter().zip(paper_pct) {
        let (_, base, cagc) = aged.of(w);
        let (b, c) = (metric(base), metric(cagc));
        t.row(vec![
            w.name().to_string(),
            format!("{b:.1}"),
            format!("{c:.1}"),
            format!("{:.2}", reduction_pct(b, c)),
            format!("{paper:.2}"),
        ]);
    }
    Artifacts::tabled(title, &t, "", file)
}

/// Fig. 9: number of flash blocks erased, Baseline vs CAGC.
pub fn fig9(aged: &AgedResults) -> Artifacts {
    reduction_figure(
        aged,
        "Fig. 9 — flash blocks erased (Baseline vs CAGC)",
        paper::FIG9_ERASE_REDUCTION_PCT,
        |r| r.gc.blocks_erased as f64,
        "fig9.csv",
    )
}

/// Fig. 10: number of data pages migrated during GC, Baseline vs CAGC.
pub fn fig10(aged: &AgedResults) -> Artifacts {
    reduction_figure(
        aged,
        "Fig. 10 — data pages migrated during GC (Baseline vs CAGC)",
        paper::FIG10_MIGRATION_REDUCTION_PCT,
        |r| r.gc.pages_migrated as f64,
        "fig10.csv",
    )
}

/// Fig. 11: normalized mean response time during GC periods, all three
/// schemes.
pub fn fig11(aged: &AgedResults) -> Artifacts {
    let mut t = Table::new(vec![
        "workload", "scheme", "mean_during_gc_us", "normalized", "paper_cagc_reduction_pct",
    ]);
    let mut bars = Vec::new();
    let mut summary = String::new();
    for (w, paper) in FiuWorkload::ALL.into_iter().zip(paper::FIG11_RESPONSE_REDUCTION_PCT) {
        let (inline, base, cagc) = aged.of(w);
        let bmean = base.gc_period_mean_ns();
        for r in [inline, base, cagc] {
            let norm = r.gc_period_mean_ns() / bmean;
            bars.push((format!("{} {}", w.name(), r.scheme), norm));
            t.row(vec![
                w.name().to_string(),
                r.scheme.clone(),
                format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
                format!("{norm:.4}"),
                format!("{paper:.1}"),
            ]);
        }
        summary.push_str(&format!(
            "{}: CAGC reduces GC-period response time by {:.1}% (paper: {paper:.1}%)\n",
            w.name(),
            reduction_pct(bmean, cagc.gc_period_mean_ns()),
        ));
    }
    let text = format!(
        "Fig. 11 — normalized mean response time during GC periods\n\
         (normalized to Baseline; paper reductions for CAGC: 33.6% / 29.6% / 70.1%)\n\n{}{summary}",
        bar_chart(&bars, 40)
    );
    Artifacts { text, csv: vec![("fig11.csv".into(), t.to_csv())] }
}

// ------------------------------------------------------------- Fig 12

/// Fig. 12: response-time CDF, Baseline vs CAGC, per workload.
pub fn fig12(aged: &AgedResults) -> Artifacts {
    let mut text = String::from("Fig. 12 — response-time CDF (Baseline vs CAGC)\n\n");
    let mut csvs = Vec::new();
    for w in FiuWorkload::ALL {
        let (_, base, cagc) = aged.of(w);
        let mut t = Table::new(vec!["scheme", "latency_us", "cum_fraction"]);
        for (name, r) in [("Baseline", base), ("CAGC", cagc)] {
            for p in r.cdf.downsample(64) {
                let us = format!("{:.2}", p.value_ns as f64 / 1000.0);
                t.row(vec![name.to_string(), us, format!("{:.5}", p.fraction)]);
            }
        }
        let at = |r: &RunReport, q: f64| r.cdf.value_at(q) as f64 / 1000.0;
        text.push_str(&format!(
            "{:>7}: 80% of requests within  CAGC {:>8.1}us | Baseline {:>8.1}us\n\
             {:>7}  99% of requests within  CAGC {:>8.1}us | Baseline {:>8.1}us\n",
            w.name(),
            at(cagc, 0.80),
            at(base, 0.80),
            "",
            at(cagc, 0.99),
            at(base, 0.99)
        ));
        let file = format!("fig12_{}.csv", w.name().to_lowercase().replace('-', "_"));
        csvs.push((file, t.to_csv()));
    }
    text.push_str("\n(full curves in results/fig12_*.csv)\n");
    Artifacts { text, csv: csvs }
}

// ------------------------------------------------------------- Fig 13

/// Fig. 13: CAGC's reductions under Random / Greedy / Cost-Benefit victim
/// selection — (a) blocks erased, (b) pages migrated, (c) response time.
pub fn fig13(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells: Vec<_> =
        VictimKind::ALL.into_iter().flat_map(|p| PAIR.map(|s| (s, p))).collect();
    let reports = grid(scale, &traces, &cells, |c, policy| c.victim = policy);

    let mut t = Table::new(vec![
        "workload", "policy", "erase_reduction_pct", "migration_reduction_pct",
        "response_reduction_pct",
    ]);
    for pair in reports.chunks(PAIR.len()) {
        let ((w, policy, base), cagc) = (&pair[0], &pair[1].2);
        let er = reduction_pct(base.gc.blocks_erased as f64, cagc.gc.blocks_erased as f64);
        let mr = reduction_pct(base.gc.pages_migrated as f64, cagc.gc.pages_migrated as f64);
        let rr = reduction_pct(base.gc_period_mean_ns(), cagc.gc_period_mean_ns());
        t.row(vec![
            w.name().to_string(),
            policy.name().to_string(),
            format!("{er:.2}"),
            format!("{mr:.2}"),
            format!("{rr:.2}"),
        ]);
    }
    Artifacts::tabled(
        "Fig. 13 — CAGC's reduction vs Baseline under different victim-selection policies",
        &t,
        "\n(values are % reductions, CAGC vs Baseline; paper: CAGC improves all three \
         metrics under all three policies, bars 10-90%)\n",
        "fig13.csv",
    )
}

// ----------------------------------------------------------- Ablations

/// Ablation: CAGC without refcount-based placement (everything hot).
pub fn ablate_placement(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells = [
        (Scheme::Baseline, ("baseline", true)),
        (Scheme::Cagc, ("dedup_only", false)),
        (Scheme::Cagc, ("full", true)),
    ];
    let mut t = Table::new(vec![
        "workload", "variant", "blocks_erased", "pages_migrated", "gc_mean_us",
    ]);
    for (w, (variant, _), r) in grid(scale, &traces, &cells, |c, (_, on)| c.placement = on) {
        t.row(vec![
            w.name().to_string(),
            variant.to_string(),
            r.gc.blocks_erased.to_string(),
            r.gc.pages_migrated.to_string(),
            format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
        ]);
    }
    Artifacts::tabled(
        "Ablation — contribution of refcount-based hot/cold placement (Sec. III-C)",
        &t,
        "",
        "ablate_placement.csv",
    )
}

/// Ablation: hash/erase overlap (Sec. III-B) vs serialized GC hashing.
pub fn ablate_overlap(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells = [(Scheme::Cagc, ("overlap", true)), (Scheme::Cagc, ("serial", false))];
    let mut t = Table::new(vec!["workload", "variant", "gc_busy_ms", "gc_mean_us"]);
    for (w, (variant, _), r) in grid(scale, &traces, &cells, |c, (_, on)| c.overlap_hash = on) {
        t.row(vec![
            w.name().to_string(),
            variant.to_string(),
            format!("{:.3}", r.gc.busy_ns as f64 / 1e6),
            format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
        ]);
    }
    Artifacts::tabled(
        "Ablation — hash pipelining in GC (Sec. III-B): overlapped vs serialized",
        &t,
        "",
        "ablate_overlap.csv",
    )
}

/// Ablation: cold-region refcount threshold sweep.
pub fn ablate_threshold(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells = [1u32, 2, 4, 8].map(|th| (Scheme::Cagc, th));
    let mut t = Table::new(vec![
        "workload", "threshold", "blocks_erased", "pages_migrated", "promotions",
    ]);
    for (w, th, r) in grid(scale, &traces, &cells, |c, th| c.cold_threshold = th) {
        t.row(vec![
            w.name().to_string(),
            th.to_string(),
            r.gc.blocks_erased.to_string(),
            r.gc.pages_migrated.to_string(),
            r.gc.promotions.to_string(),
        ]);
    }
    Artifacts::tabled(
        "Ablation — cold-region refcount threshold (Sec. III-C, default 1)",
        &t,
        "",
        "ablate_threshold.csv",
    )
}

/// Extension study: GC cost vs space utilization. Dedup's GC benefit is
/// strongly non-linear in how full the device runs (the effect behind the
/// spread of Fig. 9's bars); this sweep measures erases and WAF for
/// Baseline and CAGC across footprints.
pub fn sweep_utilization(scale: &Scale) -> Artifacts {
    let logical = scale.flash().logical_pages() as f64;
    let requests = scale.requests.min(100_000);
    let traces = [0.70, 0.80, 0.90, 0.95, 0.97].map(|frac| {
        let fp = (logical * frac) as u64;
        (frac, FiuWorkload::WebVm.synth_config(fp, requests, scale.seed).generate())
    });
    let mut t = Table::new(vec!["footprint", "scheme", "blocks_erased", "waf", "gc_mean_us"]);
    for (frac, (), r) in grid(scale, &traces, &PAIR.map(|s| (s, ())), |_, ()| {}) {
        t.row(vec![
            frac.to_string(),
            r.scheme.clone(),
            r.gc.blocks_erased.to_string(),
            format!("{:.4}", r.waf()),
            format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
        ]);
    }
    Artifacts::tabled(
        "Extension — GC cost vs space utilization (Web-vm characteristics)",
        &t,
        "\nBaseline GC cost grows sharply toward full devices; CAGC flattens the\n\
         curve because deduplication shrinks the live data the collector must carry.\n",
        "sweep_utilization.csv",
    )
}

/// Extension study: wear totals and wear evenness. Sec. II-C notes that
/// cold-data separation can skew wear under greedy selection — CAGC's
/// cold region is rarely erased, concentrating erases on hot blocks.
/// This measures both total wear (mean erase count, endurance) and its
/// spread (stddev, evenness) per scheme and policy.
pub fn wear_study(scale: &Scale) -> Artifacts {
    let traces =
        [FiuWorkload::Mail, FiuWorkload::WebVm].map(|w| (w, short_trace(scale, w, 100_000)));
    let cells: Vec<_> = [VictimKind::Greedy, VictimKind::CostBenefit]
        .into_iter()
        .flat_map(|p| PAIR.map(|s| (s, p)))
        .collect();
    let mut t = Table::new(vec![
        "workload", "policy", "scheme", "erase_mean", "erase_max", "erase_stddev",
    ]);
    for (w, policy, r) in grid(scale, &traces, &cells, |c, policy| c.victim = policy) {
        t.row(vec![
            w.name().to_string(),
            policy.name().to_string(),
            r.scheme.clone(),
            format!("{:.3}", r.wear.2),
            r.wear.1.to_string(),
            format!("{:.3}", r.wear_stddev),
        ]);
    }
    Artifacts::tabled(
        "Extension — wear totals and evenness (Sec. II-C's wear-leveling concern)",
        &t,
        "\nCAGC cuts total wear (mean erase count) roughly in half — the endurance\n\
         win implied by Fig. 9 — and, in these runs, also narrows the per-block\n\
         spread. The skew Sec. II-C worries about (a never-erased cold region) did\n\
         not dominate here; cost-benefit selection keeps the spread tightest.\n",
        "wear_study.csv",
    )
}

/// Extension comparison: the inline-dedup design space (the paper's
/// Sec. I/V discusses CAFTL's sampling/pre-hash mitigation). Fresh-device
/// latency (the Fig. 2 axis) and dedup coverage for Inline-Dedupe vs the
/// CAFTL-style Inline-Sampled variant vs CAGC.
pub fn compare_inline(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, fresh_trace(scale, w)));
    let cells = [Scheme::Baseline, Scheme::InlineDedup, Scheme::InlineSampled, Scheme::Cagc]
        .map(|s| (s, ()));
    let reports = grid(scale, &traces, &cells, |_, ()| {});
    let mut t = Table::new(vec![
        "workload", "scheme", "mean_us", "normalized", "programs", "dedup_hits",
    ]);
    for per_w in reports.chunks(cells.len()) {
        let base_mean = per_w[0].2.all.mean_ns;
        for (w, (), r) in per_w {
            t.row(vec![
                w.name().to_string(),
                r.scheme.clone(),
                format!("{:.2}", r.all.mean_ns / 1000.0),
                format!("{:.4}", r.all.mean_ns / base_mean),
                r.total_programs.to_string(),
                r.index.hits.to_string(),
            ]);
        }
    }
    Artifacts::tabled(
        "Extension — inline dedup variants on a fresh ULL device\n\
         (Inline-Sampled = CAFTL-style pre-hash screening, ~CAFTL [2] in the paper)",
        &t,
        "\nInline-Sampled recovers most of Inline-Dedupe's latency loss by skipping\n\
         fingerprints for first sightings, at the cost of storing one extra copy per\n\
         duplicated content; CAGC pays nothing on the write path at all.\n",
        "compare_inline.csv",
    )
}

/// Extension ablation: idle-period background GC (Sec. III-B notes SSDs
/// use idle periods for GC; the paper's evaluation triggers on the
/// watermark only). Measures how much foreground interference background
/// collection removes for Baseline and CAGC.
pub fn ablate_idle_gc(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells: Vec<_> =
        PAIR.into_iter().flat_map(|s| [false, true].map(|idle| (s, idle))).collect();
    let mut t = Table::new(vec![
        "workload", "scheme", "idle_gc", "gc_mean_us", "p99_us", "blocks_erased",
    ]);
    for (w, idle, r) in grid(scale, &traces, &cells, |c, idle| c.idle_gc = idle) {
        t.row(vec![
            w.name().to_string(),
            r.scheme.clone(),
            idle.to_string(),
            format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
            format!("{:.2}", r.all.p99_ns as f64 / 1000.0),
            r.gc.blocks_erased.to_string(),
        ]);
    }
    Artifacts::tabled(
        "Extension — idle-period background GC (off = paper's watermark-only trigger)",
        &t,
        "",
        "ablate_idle_gc.csv",
    )
}

/// Ablation: GC watermark sweep (Table I default: 20 % of the OP pool).
pub fn ablate_watermark(scale: &Scale) -> Artifacts {
    let traces = FiuWorkload::ALL.map(|w| (w, aged_trace(scale, w)));
    let cells: Vec<_> =
        [0.10, 0.20, 0.30].into_iter().flat_map(|wm| PAIR.map(|s| (s, wm))).collect();
    let reports = grid(scale, &traces, &cells, |c, wm| c.flash.gc_watermark = wm);
    let mut t = Table::new(vec![
        "workload", "watermark", "scheme", "blocks_erased", "gc_mean_us",
    ]);
    for (w, wm, r) in reports {
        t.row(vec![
            w.name().to_string(),
            wm.to_string(),
            r.scheme.clone(),
            r.gc.blocks_erased.to_string(),
            format!("{:.2}", r.gc_period_mean_ns() / 1000.0),
        ]);
    }
    Artifacts::tabled(
        "Ablation — GC trigger watermark (fraction of OP pool)",
        &t,
        "",
        "ablate_watermark.csv",
    )
}

/// Extension study — trim sensitivity (Frankie et al.: trim acts as
/// dynamic overprovisioning). A Web-vm-like stream is trim-intensified at
/// several fractions with [`cagc_workloads::inject_trims`], then each
/// point is replayed twice: honoring the hints (`honor_trim = true`, the
/// default) and ignoring them (`honor_trim = false`, a trim-blind device).
/// The gap between the two arms is the write-amplification and erase
/// headroom the hints buy; it widens with trim intensity.
///
/// One asserted gate: at the top trim fraction, Baseline honoring the
/// hints migrates and erases strictly less than Baseline ignoring them.
pub fn sweep_trim(scale: &Scale) -> Artifacts {
    let base = short_trace(scale, FiuWorkload::WebVm, 60_000);
    let traces = [0.0, 0.05, 0.10, 0.20, 0.35]
        .map(|frac| (frac, cagc_workloads::inject_trims(&base, frac, 6, scale.seed)));
    let cells: Vec<_> =
        PAIR.into_iter().flat_map(|s| [true, false].map(|honor| (s, honor))).collect();
    let reports = grid(scale, &traces, &cells, |c, honor| c.honor_trim = honor);

    let mut t = Table::new(vec![
        "trim_fraction", "scheme", "honor_trim", "blocks_erased", "pages_migrated",
        "trim_reclaimed_pages", "waf",
    ]);
    for (frac, honor, r) in &reports {
        t.row(vec![
            frac.to_string(),
            r.scheme.clone(),
            honor.to_string(),
            r.gc.blocks_erased.to_string(),
            r.gc.pages_migrated.to_string(),
            r.gc.trim_reclaimed_pages.to_string(),
            format!("{:.4}", r.waf()),
        ]);
    }
    // Fractions ascend, so the last Baseline cell of each arm is the top one.
    let top = |arm: bool| {
        let cell = reports.iter().rfind(|(_, h, r)| *h == arm && r.scheme == "Baseline");
        &cell.expect("Baseline ran in both arms").2.gc
    };
    let (honoring, blind) = (top(true), top(false));
    assert!(
        honoring.pages_migrated < blind.pages_migrated
            && honoring.blocks_erased < blind.blocks_erased,
        "honoring trims must reduce migrations and erases"
    );
    Artifacts::tabled(
        "Extension — trim sensitivity (trim as dynamic overprovisioning)\n\
         (each workload point replayed honoring vs ignoring the same trim stream)",
        &t,
        "\nHonoring trims strictly dominates ignoring them, and the gap widens with\n\
         trim intensity: every trimmed page is garbage the collector reclaims for\n\
         free instead of migrating — exactly the dynamic-overprovisioning effect\n\
         Frankie et al. analyze. See docs/TRIM.md for the data path.\n",
        "sweep_trim.csv",
    )
}

/// Extension study — fault sensitivity. A Web-vm-like stream is replayed
/// under rising program/erase/read-ECC fault rates (seeded, deterministic;
/// see docs/FAULTS.md); every fault is absorbed by the FTL's recovery
/// policies — program retries on fresh blocks, bad-block retirement on
/// erase failure, ECC re-reads with a heroic-decode fallback — so the
/// figure of merit is what that robustness *costs*: extra programs from
/// retries, capacity lost to retirement, and latency from backoffs and
/// re-reads.
pub fn sweep_faults(scale: &Scale) -> Artifacts {
    let traces = [((), short_trace(scale, FiuWorkload::WebVm, 60_000))];
    // (program, erase, read-ECC) failure probabilities per attempt. The
    // top point is far beyond healthy NAND; it bounds the envelope.
    let rates = [0.0, 1e-4, 1e-3, 5e-3, 2e-2];
    let cells: Vec<_> = rates.into_iter().flat_map(|rate| PAIR.map(|s| (s, rate))).collect();
    let reports = grid(scale, &traces, &cells, |c, rate| {
        c.faults = FaultConfig {
            program_fail_prob: rate,
            erase_fail_prob: rate / 10.0,
            read_ecc_prob: rate,
            seed: scale.seed,
            ..FaultConfig::none()
        }
    });
    let mut t = Table::new(vec![
        "fault_rate", "scheme", "program_failures", "erase_failures", "read_ecc_errors",
        "blocks_retired", "program_retries", "forced_programs", "read_retries", "ecc_decodes",
        "writes_rejected", "waf", "mean_us", "p99_us",
    ]);
    for ((), rate, r) in reports {
        let f = &r.faults;
        t.row(vec![
            rate.to_string(),
            r.scheme.clone(),
            f.program_failures.to_string(),
            f.erase_failures.to_string(),
            f.read_ecc_errors.to_string(),
            f.blocks_retired.to_string(),
            f.program_retries.to_string(),
            f.forced_programs.to_string(),
            f.read_retries.to_string(),
            f.ecc_decodes.to_string(),
            f.writes_rejected.to_string(),
            format!("{:.4}", r.waf()),
            format!("{:.2}", r.all.mean_ns / 1_000.0),
            format!("{:.2}", r.all.p99_ns as f64 / 1_000.0),
        ]);
    }
    Artifacts::tabled(
        "Extension — fault sensitivity (injected program/erase/read-ECC failures)\n\
         (all faults absorbed by FTL policy; columns show what absorption costs)",
        &t,
        "\nFault handling is pay-as-you-go: the zero-rate row is bit-identical to a\n\
         fault-free build, and rising rates surface as retry programs (WAF) and\n\
         retry/backoff latency rather than as lost writes — no row ever loses\n\
         acknowledged data. Erase failures permanently retire blocks; at these\n\
         rates the capacity loss stays far from the read-only floor. See\n\
         docs/FAULTS.md for the fault model and recovery policies.\n",
        "sweep_faults.csv",
    )
}

// ------------------------------------------- Extension: queue-depth sweep

/// Extension study — queue-depth sensitivity through the NVMe-style
/// multi-queue host interface (`cagc-host`). A GC-heavy Mail-like stream
/// is replayed **closed-loop** (fio `iodepth` semantics: the host keeps
/// exactly QD commands outstanding) at rising depths, with the device's
/// preemptible GC off and on. Host-observed latency — submission to
/// completion interrupt — therefore includes every queueing effect the
/// synchronous replay cannot see: commands stuck behind a whole-victim GC
/// round stack up with QD, which is exactly where sliced GC earns its
/// keep.
///
/// The QD=1 / preempt-off cell doubles as the interface's anchor: it is
/// asserted byte-identical (device-side report) to the sequential
/// `t = process(at = t)` chain, so every other cell differs from the
/// golden synchronous path only by what the queues add.
pub fn sweep_qd(scale: &Scale, resilient: bool) -> Artifacts {
    use cagc_core::Ssd;
    use cagc_harness::pool::map_ordered;
    use cagc_harness::ToJson;
    use cagc_host::{HostConfig, HostInterface, HostReport};
    use cagc_workloads::RequestView;

    let flash = scale.flash();
    let trace = short_trace(scale, FiuWorkload::Mail, 60_000);

    let depths: [u32; 6] = [1, 2, 4, 8, 16, 32];
    let cells: Vec<(u32, bool)> = depths
        .iter()
        .flat_map(|&qd| [(qd, false), (qd, true)])
        .collect();

    let device = |preempt: bool| {
        let mut cfg = SsdConfig::paper(flash, Scheme::Cagc);
        cfg.gc_preempt = preempt;
        cfg.gc_slice_pages = 8;
        cfg
    };
    let run_cell = |&(qd, preempt): &(u32, bool)| -> HostReport {
        let mut host_cfg = HostConfig::passthrough();
        host_cfg.queue_depth = qd;
        host_cfg.gc_pump = preempt;
        if resilient {
            // Arm the full resilience policy (deadline well above the
            // fault-free tail). On a fault-free device it must be
            // invisible: verify.sh gates that this sweep's CSVs stay
            // byte-identical with and without --resilient.
            host_cfg = host_cfg.with_resilience(1_000_000_000, 3, 50_000, 10_000, scale.seed);
        }
        let mut host = HostInterface::new(Ssd::new(device(preempt)), host_cfg);
        let report = host.replay_closed_loop(&trace);
        host.ssd().audit().expect("audit after sweep-qd cell");
        report
    };
    let reports = map_ordered(&cells, scale.workers, run_cell);

    // Anchor: QD=1 preempt-off is the sequential synchronous chain.
    let mut reference = Ssd::new(device(false));
    let mut t = 0;
    for r in &trace.requests {
        t = reference.submit(RequestView { at_ns: t, ..r }).expect("no crash plan").end_ns;
    }
    let want = reference.report(&trace.name).to_json().render();
    let (_, qd1) =
        cells.iter().zip(&reports).find(|(&c, _)| c == (1, false)).expect("cell present");
    assert_eq!(
        qd1.device.to_json().render(),
        want,
        "QD=1 preempt-off must be byte-identical to the synchronous chain"
    );

    let us = |ns: u64| format!("{:.3}", ns as f64 / 1_000.0);
    let mut tab = Table::new(vec![
        "workload", "queue_pairs", "queue_depth", "preempt", "reads_p50_us", "reads_p95_us",
        "reads_p99_us", "reads_p999_us", "reads_max_us", "writes_p99_us", "all_mean_us",
        "backlogged", "irqs", "pump_slices", "blocks_erased", "waf",
    ]);
    for (&(qd, preempt), r) in cells.iter().zip(&reports) {
        tab.row(vec![
            trace.name.clone(),
            "1".to_string(),
            qd.to_string(),
            preempt.to_string(),
            us(r.reads.p50_ns),
            us(r.reads.p95_ns),
            us(r.reads.p99_ns),
            us(r.reads.p999_ns),
            us(r.reads.max_ns),
            us(r.writes.p99_ns),
            format!("{:.3}", r.all.mean_ns / 1_000.0),
            r.backlogged.to_string(),
            r.irqs.to_string(),
            r.pump_slices.to_string(),
            r.device.gc.blocks_erased.to_string(),
            format!("{:.4}", r.device.waf()),
        ]);
    }

    // Fig. 12-style tail curves where the preemption gap lives: QD=8.
    let mut cdf = Table::new(vec!["source", "queue_depth", "preempt", "latency_us", "cum_frac"]);
    for (&(qd, preempt), r) in cells.iter().zip(&reports).filter(|((qd, _), _)| *qd == 8) {
        for p in r.read_cdf.downsample(96) {
            let (lat, frac) = (us(p.value_ns), format!("{:.6}", p.fraction));
            cdf.row(vec!["closed-loop".into(), qd.to_string(), preempt.to_string(), lat, frac]);
        }
    }

    let mut art = Artifacts::tabled(
        "Extension — queue-depth sensitivity (closed-loop, multi-queue host interface)\n\
         (host-observed latency: submission to completion interrupt)\n\n\
         QD=1 equivalence OK (device report byte-identical to synchronous chain)",
        &tab,
        "\nRead p99 climbs with queue depth — deeper queues stack more commands\n\
         behind every GC round — and preemptible GC claws the extreme tail back:\n\
         at QD >= 8 the p99.9 read latency drops versus whole-victim GC because a\n\
         queued read waits for at most one migration quantum (gc_slice_pages)\n\
         instead of a full victim migration + erase. Medians are untouched; the\n\
         knob is tail-only, exactly as intended. See docs/HOST_INTERFACE.md.\n",
        "sweep_qd.csv",
    );
    art.csv.push(("gc_preempt_cdf.csv".into(), cdf.to_csv()));
    art
}

/// Extension — fleet-scale multi-tenant simulation: N devices, each
/// serving a tenant blend, fanned out over the deterministic dynamic
/// scheduler (`cagc_harness::pool::map_ordered_dynamic_chunked`).
///
/// Four artifacts:
///
/// * `sweep_fleet.csv` — per-mix WAF / dedup / erase rollups over a
///   (fleet size × scheme) grid of direct-replay fleets;
/// * `fleet_qos.csv` — per-(mix, tenant) end-to-end latency percentiles
///   from the largest CAGC fleet replayed through the NVMe-style
///   multi-queue host interface (`cagc_host`);
/// * `fleet_timeline.csv` — the observability plane's time-resolved view
///   of a host-mode CAGC fleet with telemetry and SLO tracking armed:
///   per-device gauge series (namespaced `dev{id}/…`), exact `fleet/…`
///   merges, and per-tenant SLO violation-rate series
///   (`slo/{mix}/{tenant}`);
/// * an **acceptance gate** (asserted, and printed for the CI log):
///   measured steady-state WAF under uniform random traffic must track
///   the Li/Lee/Lui mean-field greedy-cleaning curve
///   (`cagc_fleet::analytic`) within tolerance, averaged over a small
///   fleet of independently seeded devices.
///
/// Every fleet run is byte-identical across worker counts (the property
/// `scripts/verify.sh` gates by comparing `--workers 1` against machine
/// parallelism); `--workers` sets the fan-out width.
pub fn sweep_fleet(scale: &Scale) -> Artifacts {
    use cagc_fleet::analytic::{uniform_validation, waf_fifo, waf_greedy, UniformValidation};
    use cagc_core::TraceConfig;
    use cagc_fleet::{run_fleet, FleetConfig, SloConfig, TenantMix};

    // The fleet grid runs tiny devices: fleet effects are cross-device,
    // and per-mix ratios are stable in device size (EXPERIMENTS.md).
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    let quick = scale.requests <= 60_000;
    let (fleet_sizes, requests_per_tenant): (&[usize], usize) =
        if quick { (&[4, 8], 300) } else { (&[8, 16, 32], 1_500) };

    // The test fleet's shape (direct replay on the tiny device at 90%
    // footprint, nothing armed); devices and scheme are set per cell.
    let base = FleetConfig {
        mixes: TenantMix::all(),
        flash,
        requests_per_tenant,
        seed: scale.seed,
        // 3 groups against 4 mixes: coprime cycles, so same-mix devices
        // differ (group = d % 3 is not a function of mix = d % 4).
        seed_groups: 3,
        workers: scale.workers,
        ..FleetConfig::small_test()
    };

    let mut text = String::from(
        "Extension — fleet-scale multi-tenant simulation\n\
         (N devices x per-tenant namespace blends, deterministic dynamic fan-out)\n\n",
    );
    let mut tab = Table::new(vec![
        "fleet_devices", "scheme", "mix", "devices", "waf", "dedup_hit_rate", "erases",
        "host_pages", "gc_migrations", "distinct_traces",
    ]);
    let mut qos_csv = None;
    for &devices in fleet_sizes {
        // How many devices the fleet simulates (`FleetConfig::cells`); the
        // same for every scheme and for the host-mode re-run.
        let cells = FleetConfig { devices, ..base.clone() }.cells().len();
        eprintln!("[sweep-fleet: devices {devices}, distinct cells {cells}]");
        for scheme in Scheme::ALL {
            let cfg = FleetConfig { devices, scheme, ..base.clone() };
            let rep = run_fleet(&cfg);
            for m in &rep.by_mix {
                tab.row(vec![
                    devices.to_string(),
                    scheme.name().to_string(),
                    m.mix.clone(),
                    m.devices.to_string(),
                    format!("{:.4}", m.totals.waf()),
                    format!("{:.4}", m.totals.dedup_hit_rate()),
                    m.totals.total_erases.to_string(),
                    m.totals.host_pages_written.to_string(),
                    m.totals.pages_migrated.to_string(),
                    rep.distinct_traces.to_string(),
                ]);
            }
            // QoS artifact: the largest CAGC fleet, replayed end-to-end
            // through the NVMe-style multi-queue host interface so tenant
            // latency includes queueing, not just device service time.
            if scheme == Scheme::Cagc && devices == *fleet_sizes.last().expect("non-empty") {
                let host_cfg = FleetConfig { host_queues: Some((2, 8)), ..cfg.clone() };
                qos_csv = Some(run_fleet(&host_cfg).qos_csv());
            }
        }
    }
    // Observability cell: the smallest CAGC fleet, host-mode, with the
    // fleet observability plane armed — gauges-only telemetry per device
    // (namespaced and merged into the fleet timeline) plus per-tenant
    // SLO tracking against a 100 ms host-observed objective. The plane
    // cannot perturb the simulation (gated in cagc-fleet and by
    // scripts/verify.sh), so the grid's artifacts above are
    // byte-identical to an unobserved sweep; fleet_timeline.csv adds the
    // time-resolved view.
    let obs_cfg = FleetConfig {
        devices: fleet_sizes[0],
        scheme: Scheme::Cagc,
        host_queues: Some((2, 8)),
        telemetry: Some(TraceConfig::gauges_only(100_000_000, 1)),
        slo: Some(SloConfig::uniform(100_000_000, 900, 100_000_000)),
        ..base.clone()
    };
    let timeline_csv = run_fleet(&obs_cfg).timeline_csv();

    text.push_str(&tab.render());

    // Acceptance gate: a small fleet of independently seeded devices
    // under the analytic model's regime (uniform random single-page
    // overwrites, greedy victims, no dedup) must land on the mean-field
    // greedy curve. FIFO bounds it from above.
    let writes = if quick { 24_000 } else { 60_000 };
    let tolerance = if quick { 0.12 } else { 0.10 };
    let vals: Vec<UniformValidation> = (0..3)
        .map(|d| uniform_validation(flash, 0.95, writes, scale.seed.wrapping_add(d)))
        .collect();
    let measured = vals.iter().map(|v| v.measured).sum::<f64>() / vals.len() as f64;
    let rho = vals[0].rho;
    let (greedy, fifo) = (vals[0].greedy, vals[0].fifo);
    let rel_err = (measured - greedy).abs() / greedy;
    text.push_str(&format!(
        "\n\nAnalytic acceptance (Li/Lee/Lui mean-field, uniform random traffic):\n\
         \x20 rho {rho:.4}  measured WAF {measured:.3} (3-device fleet)  \
         greedy model {greedy:.3}  fifo model {fifo:.3}\n\
         \x20 fleet WAF tracks analytic greedy curve: rel err {:.1}% (tolerance {:.0}%) OK\n",
        rel_err * 100.0,
        tolerance * 100.0,
    ));
    assert!(
        rel_err < tolerance,
        "fleet WAF {measured:.3} strays from analytic greedy {greedy:.3} \
         (rel err {:.1}% > {:.0}%)",
        rel_err * 100.0,
        tolerance * 100.0,
    );
    assert!(measured < fifo * 1.10, "greedy cleaning must not exceed the FIFO bound");
    debug_assert!(waf_greedy(rho, 32) < waf_fifo(rho));

    text.push_str(
        "\nDedup-rich mixes (mail-heavy) hold the lowest WAF under CAGC — cross-\n\
         tenant duplicate writes dedupe inside a device — while noisy-neighbor\n\
         fleets erase the most per host page. Per-tenant latency percentiles\n\
         (fleet_qos.csv) come from the host-interface replay of the largest\n\
         CAGC fleet; see docs/FLEET.md.\n",
    );
    Artifacts {
        text,
        csv: vec![
            ("sweep_fleet.csv".into(), tab.to_csv()),
            ("fleet_qos.csv".into(), qos_csv.expect("CAGC cell ran at the largest fleet size")),
            (
                "fleet_timeline.csv".into(),
                timeline_csv.expect("the observability cell was armed"),
            ),
        ],
    }
}

/// Extension — chaos campaign: fault intensity × scheme × GC preemption
/// over fleets of deliberately tiny (32-block) devices whose read-only
/// floor spans the whole device, so a single retired block degrades the
/// cell and the remaining traffic drains as attributed failures.
///
/// Two asserted gates, printed for the CI log:
///
/// * **pay-as-you-go** — the zero-intensity column is byte-identical to
///   the same fleet with [`FaultConfig::none`]: an armed but
///   silent fault plan must not perturb a single byte;
/// * **degradation** — every harsh-intensity cell degrades at least one
///   device and attributes its tenants' failed ops.
///
/// `sweep_chaos.csv` is byte-identical across worker counts (gated by
/// `scripts/verify.sh` like the fleet sweep).
pub fn sweep_chaos(scale: &Scale) -> Artifacts {
    use cagc_fleet::{run_fleet, FleetConfig};
    use cagc_harness::ToJson;

    let quick = scale.requests <= 60_000;
    let (devices, requests_per_tenant) = if quick { (4usize, 400usize) } else { (8, 800) };

    // Micro device: GC churns within a few hundred requests, so erase
    // failures land while the replay is still short (docs/FAULTS.md).
    let flash = cagc_flash::UllConfig {
        channels: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        op_ratio: 0.12,
        ..cagc_flash::UllConfig::tiny_for_tests()
    };
    // The test fleet's shape (balanced + noisy-neighbor mixes, direct
    // replay, nothing armed); scheme, faults and preemption are per cell.
    let base = FleetConfig {
        devices,
        flash,
        requests_per_tenant,
        seed: scale.seed,
        workers: scale.workers,
        // The whole device: the first retirement trips read-only, long
        // before repeated erase failures can bleed the GC reserve dry.
        read_only_floor_blocks: Some(flash.geometry().total_blocks()),
        ..FleetConfig::small_test()
    };

    // Erase-failure probability is the intensity axis; correctable ECC
    // noise and the unrecoverable escalation ride along at fixed rates.
    let intensities: [(&str, f64); 3] = [("none", 0.0), ("mild", 0.0005), ("harsh", 0.01)];
    let cell = |intensity: f64, scheme: Scheme, gc_preempt: bool| FleetConfig {
        scheme,
        gc_preempt,
        faults: FaultConfig {
            erase_fail_prob: intensity,
            read_ecc_prob: if intensity > 0.0 { 0.02 } else { 0.0 },
            unrecoverable_prob: if intensity > 0.0 { 0.3 } else { 0.0 },
            seed: scale.seed.wrapping_add(0xC4A0),
            ..FaultConfig::none()
        },
        ..base.clone()
    };

    let mut tab = Table::new(vec![
        "intensity", "erase_fail_prob", "scheme", "preempt", "devices", "degraded_devices",
        "surviving_devices", "failed_ops", "first_degradation_ns", "fleet_waf", "survivor_waf",
        "total_erases",
    ]);
    let mut harsh_all_degrade = true;
    for &(label, p) in &intensities {
        for scheme in Scheme::ALL {
            for preempt in [false, true] {
                let rep = run_fleet(&cell(p, scheme, preempt));
                if label == "none" {
                    // Pay-as-you-go: an armed-but-silent plan (zero
                    // probabilities, nonzero seed) must not perturb a
                    // single byte vs. a fault-free fleet.
                    let clean = run_fleet(&FleetConfig {
                        scheme,
                        gc_preempt: preempt,
                        ..base.clone()
                    });
                    assert_eq!(
                        rep.to_json().render(),
                        clean.to_json().render(),
                        "zero-intensity chaos cell must match the fault-free fleet"
                    );
                    assert_eq!(rep.degraded_devices, 0);
                    assert_eq!(rep.failed_ops, 0);
                }
                if label == "harsh" && rep.degraded_devices == 0 {
                    harsh_all_degrade = false;
                }
                let survivors = rep.fleet.runs - rep.degraded_devices;
                let survivor_waf =
                    if survivors > 0 { rep.survivor_totals.waf() } else { f64::NAN };
                tab.row(vec![
                    label.to_string(),
                    p.to_string(),
                    scheme.name().to_string(),
                    preempt.to_string(),
                    rep.fleet.runs.to_string(),
                    rep.degraded_devices.to_string(),
                    survivors.to_string(),
                    rep.failed_ops.to_string(),
                    rep.first_degradation_ns.unwrap_or(0).to_string(),
                    format!("{:.4}", rep.fleet.waf()),
                    format!("{survivor_waf:.4}"),
                    rep.fleet.total_erases.to_string(),
                ]);
            }
        }
    }
    assert!(
        harsh_all_degrade,
        "every harsh-intensity cell must degrade at least one device"
    );
    Artifacts::tabled(
        "Extension — chaos campaign (fault intensity x scheme x GC preemption)\n\
         (micro-device fleets; read-only floor = whole device, so the first\n\
         \x20retired block degrades the cell and drains its tenants)",
        &tab,
        "\nchaos gate OK: zero-fault cells byte-identical to the fault-free fleet,\n\
         every harsh cell degrades at least one device with tenant attribution.\n\
         Degraded cells reject writes as write-protected (NVMe 0x120) while\n\
         surviving devices keep serving; see docs/FAULTS.md.\n",
        "sweep_chaos.csv",
    )
}

// ------------------------------------------------------------ Registry

/// What a command may read: the scale, `--resilient`, and the aged grid.
pub struct Ctx {
    /// Experiment scale (`--scale`, `--seed`, `--workers`).
    pub scale: Scale,
    /// `--resilient`: arm the host retry/deadline policy in `sweep-qd`.
    pub resilient: bool,
    aged: Option<AgedResults>,
}

impl Ctx {
    /// A context whose aged grid has not run yet.
    pub fn new(scale: Scale, resilient: bool) -> Self {
        Self { scale, resilient, aged: None }
    }

    /// The aged grid, run on first use and shared by Figs. 6 and 9–12.
    fn aged(&mut self) -> &AgedResults {
        let scale = self.scale;
        self.aged.get_or_insert_with(|| {
            let t = Instant::now();
            eprintln!("[aged grid: 3 workloads x 3 schemes ...]");
            let aged = run_aged(&scale);
            eprintln!("[aged grid done in {:.1?}]", t.elapsed());
            aged
        })
    }
}

/// One `repro` experiment command.
pub struct Command {
    /// The name typed on the command line.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: fn(&mut Ctx) -> Artifacts,
    /// The CSV files it writes, in [`Artifacts::csv`] order.
    pub csv: &'static [&'static str],
}

const fn cmd(
    name: &'static str,
    run: fn(&mut Ctx) -> Artifacts,
    csv: &'static [&'static str],
) -> Command {
    Command { name, run, csv }
}

/// Every experiment `repro` can run, under the meta-command that expands
/// to its group: `all` is the paper's tables and figures, `ablations` the
/// ablations and extension studies. Adding an experiment is a function
/// above plus a row here; usage text, expansion and dispatch follow.
pub const COMMANDS: [(&str, &[Command]); 2] = [
    (
        "all",
        &[
            cmd("table1", |c| table1(&c.scale), &[]),
            cmd("table2", |c| table2(&c.scale), &["table2.csv"]),
            cmd("fig2", |c| fig2(&c.scale), &["fig2.csv"]),
            cmd("fig6", |c| fig6(c.aged()), &["fig6.csv"]),
            cmd("fig9", |c| fig9(c.aged()), &["fig9.csv"]),
            cmd("fig10", |c| fig10(c.aged()), &["fig10.csv"]),
            cmd("fig11", |c| fig11(c.aged()), &["fig11.csv"]),
            cmd(
                "fig12",
                |c| fig12(c.aged()),
                &["fig12_homes.csv", "fig12_web_vm.csv", "fig12_mail.csv"],
            ),
            cmd("fig13", |c| fig13(&c.scale), &["fig13.csv"]),
        ],
    ),
    (
        "ablations",
        &[
            cmd("ablate-placement", |c| ablate_placement(&c.scale), &["ablate_placement.csv"]),
            cmd("ablate-overlap", |c| ablate_overlap(&c.scale), &["ablate_overlap.csv"]),
            cmd("ablate-threshold", |c| ablate_threshold(&c.scale), &["ablate_threshold.csv"]),
            cmd("ablate-watermark", |c| ablate_watermark(&c.scale), &["ablate_watermark.csv"]),
            cmd("ablate-idle-gc", |c| ablate_idle_gc(&c.scale), &["ablate_idle_gc.csv"]),
            cmd("compare-inline", |c| compare_inline(&c.scale), &["compare_inline.csv"]),
            cmd("sweep-utilization", |c| sweep_utilization(&c.scale), &["sweep_utilization.csv"]),
            cmd("sweep-trim", |c| sweep_trim(&c.scale), &["sweep_trim.csv"]),
            cmd("sweep-faults", |c| sweep_faults(&c.scale), &["sweep_faults.csv"]),
            cmd(
                "sweep-qd",
                |c| sweep_qd(&c.scale, c.resilient),
                &["sweep_qd.csv", "gc_preempt_cdf.csv"],
            ),
            cmd(
                "sweep-fleet",
                |c| sweep_fleet(&c.scale),
                &["sweep_fleet.csv", "fleet_qos.csv", "fleet_timeline.csv"],
            ),
            cmd("sweep-chaos", |c| sweep_chaos(&c.scale), &["sweep_chaos.csv"]),
            cmd("wear", |c| wear_study(&c.scale), &["wear_study.csv"]),
        ],
    ),
];

/// Every command of both groups, in registry order.
pub fn commands() -> impl Iterator<Item = &'static Command> {
    COMMANDS.iter().flat_map(|(_, group)| *group)
}

/// The command half of `repro`'s usage text: each meta-command and the
/// commands it expands to.
pub fn command_usage() -> String {
    let mut out = String::new();
    for (meta, commands) in COMMANDS {
        out.push_str(&format!("  {meta} ="));
        for line in commands.chunks(5) {
            let names: Vec<&str> = line.iter().map(|c| c.name).collect();
            out.push_str(&format!("\n      {}", names.join(" ")));
        }
        out.push('\n');
    }
    out
}
