//! `gc_write_heavy` and `read_mostly`: one thread, one 1 GB CAGC device,
//! `Ssd::new` + `Ssd::replay` of one synthetic trace. The two use the same
//! `core`/`flash`/`sim`/`metrics` code the opposite way round: in the
//! first GC does most of the work, in the second it is nearly idle.

use std::time::Instant;

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_harness::ToJson;
use cagc_workloads::{FiuWorkload, OpKind, Trace};

use super::{
    digest, drive_traced, set_core_attribution, set_report_counts, Checks, EstCounts, IterOutcome,
    Layers, SimFigures, Workload, ITER_SPAN,
};
use crate::spans::Spans;

pub struct Direct {
    cfg: SsdConfig,
    trace: Trace,
    /// Device and rendered report of the most recent iteration.
    last: Option<(Ssd, String)>,
}

impl Direct {
    fn new(trace: Trace) -> Self {
        Self {
            cfg: SsdConfig::paper(UllConfig::scaled_gb(1), Scheme::Cagc),
            trace,
            last: None,
        }
    }

    /// Web-vm at the paper's footprint: ~29 k GC rounds, 0.72 M migrations
    /// and 2.1 M programs in 150 k timed requests.
    pub fn gc_write_heavy(seed: u64) -> Self {
        let logical = UllConfig::scaled_gb(1).logical_pages();
        let footprint = (logical as f64 * 0.95) as u64;
        Self::new(
            FiuWorkload::WebVm
                .synth_config(footprint, 150_000, seed)
                .generate(),
        )
    }

    /// Homes' shape with 2 % writes and no trims. The 0.60 footprint is
    /// part of the definition: at 0.95 GC was still a quarter of the wall.
    pub fn read_mostly(seed: u64) -> Self {
        let logical = UllConfig::scaled_gb(1).logical_pages();
        let footprint = (logical as f64 * 0.60) as u64;
        let mut cfg = FiuWorkload::Homes.synth_config(footprint, 2_400_000, seed);
        cfg.name = "read-mostly".into();
        cfg.write_ratio = 0.02;
        cfg.trim_ratio = 0.0;
        Self::new(cfg.generate())
    }

    fn device(&self) -> &Ssd {
        &self.last.as_ref().expect("an iteration ran").0
    }
}

/// Pages the trace's read requests cover.
fn host_pages_read(trace: &Trace) -> u64 {
    trace
        .requests
        .iter()
        .filter(|r| r.kind == OpKind::Read)
        .map(|r| u64::from(r.pages))
        .sum()
}

impl Workload for Direct {
    fn iterate(&mut self, rec: &mut Spans) -> IterOutcome {
        self.last = None;
        let (ssd, report) = rec.scope(ITER_SPAN, |rec| {
            let mut ssd = rec.scope("core.construct", |_| Ssd::new(self.cfg.clone()));
            let report = rec.scope("core.replay", |_| ssd.replay(&self.trace));
            (ssd, report)
        });
        let requests = self.trace.requests.len() as u64;
        let json = report.to_json().render();
        let out = IterOutcome {
            requests,
            flash_ops: ssd.device().stats().total_ops(),
            unfinished: requests - ssd.acknowledged_requests(),
            digest: digest([json.as_str()]),
            sim: SimFigures::of_reports([&report]),
        };
        self.last = Some((ssd, json));
        out
    }

    fn finish(&mut self, checks: &mut Checks) {
        let audit = self.device().audit();
        checks.require(audit.is_ok(), || {
            format!("Ssd::audit after the last iteration: {audit:?}")
        });
    }

    fn traced(
        &mut self,
        rec: &mut Spans,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Option<EstCounts> {
        // Warm, uninstrumented reference: the report `Ssd::replay` renders
        // and the wall the traced drive is compared with.
        let warm_up_json = self.last.take().expect("the warm-up iteration ran").1;
        self.iterate(rec);
        let replay_json = &self.last.as_ref().expect("just iterated").1;
        checks.require(*replay_json == warm_up_json, || {
            "report differs between two replays of the same trace".into()
        });
        let (plain_s, replay_s) = (rec.last_s(ITER_SPAN), rec.last_s("core.replay"));
        let cold_ms = rec.durations_ms(ITER_SPAN)[0] - plain_s * 1e3;

        let traced_start = Instant::now();
        let mut ssd = rec.scope("core.construct", |_| Ssd::new(self.cfg.clone()));
        let attr = drive_traced(&mut ssd, &self.trace);
        let report = rec.scope("core.report", |_| ssd.report(&self.trace.name));
        let traced_s = traced_start.elapsed().as_secs_f64();

        checks.require(report.to_json().render() == *replay_json, || {
            "report of the per-request drive differs from Ssd::replay's".into()
        });
        let audit = ssd.audit();
        checks.require(audit.is_ok(), || {
            format!("Ssd::audit after the traced drive: {audit:?}")
        });
        let stats = *ssd.device().stats();

        // Same replay with a fault plan armed that never fires: the price
        // of leaving the fault-free fast paths (journal, streaming victim
        // scan, a PRNG draw per operation).
        let mut armed = self.cfg.clone();
        armed.faults = FaultConfig {
            program_fail_prob: 1e-15,
            ..FaultConfig::none()
        };
        let armed_start = Instant::now();
        std::hint::black_box(Ssd::new(armed).replay(&self.trace));
        let armed_s = armed_start.elapsed().as_secs_f64();

        layers.set("core.construct_ms", rec.last_s("core.construct") * 1e3);
        layers.set("core.report_ms", rec.last_s("core.report") * 1e3);
        set_core_attribution(layers, &attr);
        set_report_counts(layers, &[&report]);
        layers.set("flash.reads", stats.reads as f64);
        layers.set("flash.fault_arm_x", armed_s / plain_s);
        layers.set("dedup.cold_penalty_ms", cold_ms);
        layers.set(
            "bench.trace_overhead_pct",
            (traced_s / plain_s - 1.0) * 100.0,
        );

        let dev = ssd.device();
        let valid: u64 = (0..dev.block_count())
            .map(|b| u64::from(dev.block(b).valid_count()))
            .sum();
        Some(EstCounts {
            wall_ns: replay_s * 1e9,
            requests: report.all.count,
            gc_period_requests: report.during_gc.count,
            host_pages_read: host_pages_read(&self.trace),
            host_pages_written: report.host_pages_written,
            stats,
            invalidations: stats.programs - stats.program_failures - valid,
            gc_rounds: report.gc.invocations,
            pages_migrated: report.gc.pages_migrated,
            index_lookups: report.index.lookups,
            index_hits: report.index.hits,
            index_inserts: report.index.inserts,
        })
    }
}
