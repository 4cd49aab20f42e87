//! `host_chaos_traced`: everything the fast paths exclude. A Mail trace
//! goes through the NVMe-style closed loop (2 queue pairs x QD 8) with the
//! host resilience policy, sliced GC, an armed fault plan and full
//! tracing, then through the trace analytics (`SpanProfile`, `GcAnatomy`).

use std::time::Instant;

use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_harness::ToJson;
use cagc_host::{HostConfig, HostInterface, HostReport};
use cagc_trace::{from_tracer, GcAnatomy, SpanProfile};
use cagc_workloads::{FiuWorkload, Trace};

use super::{
    digest, set_report_counts, Checks, EstCounts, IterOutcome, Layers, SimFigures, Workload,
    ITER_SPAN,
};
use crate::spans::Spans;

/// Timed requests. Sized so that the default 1 Mi-event tracer cap is
/// never reached at any seed (about 0.8 M events): a recording that drops
/// events measures less work than it claims.
const REQUESTS: usize = 36_000;

pub struct HostChaos {
    seed: u64,
    trace: Trace,
    /// Host report and tracer counters of the most recent iteration.
    last: Option<(HostReport, usize, u64)>,
}

impl HostChaos {
    pub fn new(seed: u64) -> Self {
        let logical = UllConfig::scaled_gb(1).logical_pages();
        let footprint = (logical as f64 * 0.95) as u64;
        let trace = FiuWorkload::Mail
            .synth_config(footprint, REQUESTS, seed)
            .generate();
        Self {
            seed,
            trace,
            last: None,
        }
    }

    fn host(&self, faults: bool, traced: bool) -> HostInterface {
        let mut cfg = SsdConfig::paper(UllConfig::scaled_gb(1), Scheme::Cagc);
        cfg.gc_preempt = true;
        if faults {
            cfg.faults = FaultConfig {
                program_fail_prob: 1e-3,
                erase_fail_prob: 5e-4,
                read_ecc_prob: 0.15,
                unrecoverable_prob: 0.3,
                seed: self.seed,
                ..FaultConfig::none()
            };
        }
        let mut ssd = Ssd::new(cfg);
        if traced {
            ssd.enable_tracing(TraceConfig::default());
        }
        let policy =
            HostConfig::nvme(2, 8).with_resilience(10_000_000, 3, 50_000, 10_000, self.seed);
        HostInterface::new(ssd, policy)
    }

    /// Closed-loop replay of one variant; returns the wall in seconds.
    fn replay(&self, faults: bool, traced: bool) -> (HostInterface, HostReport, f64) {
        let mut host = self.host(faults, traced);
        let t = Instant::now();
        let report = host.replay_closed_loop(&self.trace);
        let wall = t.elapsed().as_secs_f64();
        (host, report, wall)
    }
}

/// Error completions the device returned: each host retry answers one,
/// and the ones that surfaced were final.
fn error_completions(r: &HostReport) -> u64 {
    let s = &r.resilience;
    s.retries + s.aborts + s.media_read_errors + s.write_faults + s.write_protected
}

impl Workload for HostChaos {
    fn iterate(&mut self, rec: &mut Spans) -> IterOutcome {
        let (host, report, profile, anatomy) = rec.scope(ITER_SPAN, |rec| {
            let mut host = self.host(true, true);
            let report = rec.scope("host.replay", |_| host.replay_closed_loop(&self.trace));
            let parsed = from_tracer(host.ssd().tracer());
            let profile = rec.scope("trace.profile", |_| SpanProfile::from_spans(&parsed.spans));
            let anatomy = rec.scope("trace.anatomy", |_| GcAnatomy::from_spans(&parsed.spans));
            (host, report, profile, anatomy)
        });
        let requests = self.trace.requests.len() as u64;
        let device = SimFigures::of_reports([&report.device]);
        let out = IterOutcome {
            requests,
            flash_ops: host.ssd().device().stats().total_ops(),
            unfinished: requests - report.all.count,
            digest: digest([
                report.to_json().render().as_str(),
                profile.to_csv().as_str(),
                anatomy.to_csv().as_str(),
            ]),
            // Reads as the host sees them, queueing and retries included.
            sim: SimFigures {
                read_p99_us: report.reads.p99_ns as f64 / 1e3,
                ..device
            },
        };
        let tracer = host.ssd().tracer();
        self.last = Some((report, tracer.events().len(), tracer.dropped_events()));
        out
    }

    fn finish(&mut self, checks: &mut Checks) {
        let (report, _, dropped) = self.last.as_ref().expect("an iteration ran");
        checks.require(*dropped == 0, || {
            format!("tracer dropped {dropped} events: shrink REQUESTS")
        });
        checks.require(!report.device.faults.read_only, || {
            "the fault plan drove the device read-only".into()
        });
    }

    fn traced(
        &mut self,
        rec: &mut Spans,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Option<EstCounts> {
        // The same host replay with the fault plan and the tracer switched
        // on one at a time, and the plain device replay underneath it.
        let (_, plain_report, plain_s) = self.replay(false, false);
        let (_, _, faults_s) = self.replay(true, false);
        let (_, _, traced_s) = self.replay(false, true);
        let (host, report, both_s) = self.replay(true, true);
        let direct_start = Instant::now();
        let direct = self.host(false, false).into_ssd().replay(&self.trace);
        let direct_s = direct_start.elapsed().as_secs_f64();

        let commands = self.trace.requests.len() as f64;
        checks.require(plain_report.all.count == direct.all.count, || {
            "closed loop and direct replay completed different request counts".into()
        });
        let (last, events, dropped) = self.last.as_ref().expect("the warm-up iteration ran");
        checks.require(report.to_json().render() == last.to_json().render(), || {
            "host report differs between two replays of the same configuration".into()
        });

        // The JSONL log is what `repro inspect` reads back. The Chrome
        // document of the same recording takes ten times as long to build
        // and render (about 10 s here), more than a run can afford.
        let export_start = Instant::now();
        let bytes = host.ssd().trace_jsonl().len();
        let export_s = export_start.elapsed().as_secs_f64();

        layers.set("host.replay_ms", both_s * 1e3);
        layers.set(
            "host.overhead_ns_per_cmd",
            (plain_s - direct_s) * 1e9 / commands,
        );
        layers.set("host.doorbells", report.doorbells as f64);
        layers.set("host.irqs", report.irqs as f64);
        layers.set("host.pump_slices", report.pump_slices as f64);
        layers.set("host.retries", report.resilience.retries as f64);
        layers.set("host.timeouts", report.resilience.timeouts as f64);
        layers.set("host.peak_occupancy", report.peak_occupancy as f64);
        layers.set("host.error_completions", error_completions(&report) as f64);
        layers.set(
            "host.failed_op_share",
            error_completions(&report) as f64 / commands,
        );
        layers.set("flash.fault_arm_x", faults_s / plain_s);
        layers.set("trace.record_x", traced_s / plain_s);
        layers.set("trace.both_x", both_s / plain_s);
        layers.set("trace.profile_ms", rec.last_s("trace.profile") * 1e3);
        layers.set("trace.anatomy_ms", rec.last_s("trace.anatomy") * 1e3);
        layers.set("trace.export_ms", export_s * 1e3);
        layers.set("trace.export_mb_per_s", bytes as f64 / 1e6 / export_s);
        layers.set("trace.events", *events as f64);
        layers.set("trace.dropped_events", *dropped as f64);
        set_report_counts(layers, &[&report.device]);
        layers.set("flash.reads", host.ssd().device().stats().reads as f64);
        // First replay on this thread (the warm-up) against a warm one.
        let first_ms = rec.durations_ms("host.replay")[0];
        layers.set("dedup.cold_penalty_ms", first_ms - both_s * 1e3);
        None
    }
}
