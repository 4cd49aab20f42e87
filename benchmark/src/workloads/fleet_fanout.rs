//! `fleet_fanout`: 96 tiny multi-tenant devices over the deterministic
//! dynamic scheduler (`cagc_fleet::run_fleet`), then the device CSV, the
//! QoS CSV and the report JSON. Many short-lived devices give weight to
//! what one big replay hides: spec building, synthesis, `Ssd::new`,
//! aggregation and the scheduler itself.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use cagc_core::{RunReport, Scheme, Ssd, SsdConfig, TrafficTotals};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::analytic::uniform_validation;
use cagc_fleet::{
    run_fleet, simulate_device, DeviceSpec, FleetConfig, FleetReport, TenantMix, TenantTrace,
    TraceLibrary,
};
use cagc_harness::{pool, ToJson};
use cagc_workloads::{interleave_n, Trace};

use super::{
    digest, set_report_counts, workers, Checks, EstCounts, IterOutcome, Layers, SimFigures,
    Workload, ITER_SPAN,
};
use crate::spans::Spans;
use crate::stats;

pub struct FleetFanout {
    cfg: FleetConfig,
    /// One direct replay per device, made once at set-up: `FleetReport`
    /// exports neither flash reads nor read / GC-period latencies, so
    /// those come from replaying each device's merged tenant stream on a
    /// plain `Ssd`. Every iteration's fleet totals must equal these.
    calibration: Vec<(RunReport, u64)>,
    /// Fleet totals and rendered outputs of the most recent iteration.
    last: Option<(TrafficTotals, [String; 3])>,
}

/// The device specs `run_fleet` builds internally, from the same public
/// pieces (the traced pass checks the two produce the same report).
fn build_specs(cfg: &FleetConfig) -> (Vec<DeviceSpec>, usize) {
    let mut lib = TraceLibrary::new();
    let logical = cfg.flash.logical_pages();
    let specs = (0..cfg.devices)
        .map(|d| {
            let mix = &cfg.mixes[d % cfg.mixes.len()];
            let group = (d % cfg.seed_groups) as u64;
            let pages = (logical as f64 * cfg.footprint_frac / mix.tenants.len() as f64) as u64;
            let tenants = mix
                .tenants
                .iter()
                .enumerate()
                .map(|(slot, ts)| TenantTrace {
                    label: format!("{}[{slot}]", ts.workload.name()),
                    trace: lib.get(
                        ts.workload,
                        pages,
                        cfg.requests_per_tenant,
                        cfg.seed.wrapping_add(group * 1009 + slot as u64 * 523),
                        ts.rate_factor,
                    ),
                })
                .collect();
            DeviceSpec {
                id: d as u32,
                mix_name: mix.name.to_string(),
                scheme: cfg.scheme,
                flash: cfg.flash,
                tenants,
                host_queues: None,
                faults: FaultConfig::none(),
                gc_preempt: false,
                read_only_floor_blocks: None,
                telemetry: None,
                slo: None,
            }
        })
        .collect();
    (specs, lib.distinct())
}

/// Replay one device's merged tenant stream directly (direct-mode fleet
/// devices process exactly the `interleave_n` order).
fn calibrate(spec: &DeviceSpec) -> (RunReport, u64) {
    let tenants: Vec<&Trace> = spec.tenants.iter().map(|t| t.trace.as_ref()).collect();
    let mut ssd = Ssd::new(SsdConfig::paper(spec.flash, spec.scheme));
    let report = ssd.replay(&interleave_n(&tenants));
    (report, ssd.device().stats().total_ops())
}

fn render(report: &FleetReport) -> [String; 3] {
    [
        report.device_csv(),
        report.qos_csv(),
        report.to_json().render(),
    ]
}

impl FleetFanout {
    pub fn new(seed: u64) -> Self {
        let cfg = FleetConfig {
            devices: 96,
            mixes: TenantMix::all(),
            scheme: Scheme::Cagc,
            flash: UllConfig::tiny_for_tests(),
            requests_per_tenant: 6_000,
            footprint_frac: 0.90,
            seed,
            seed_groups: 4,
            workers: workers(),
            chunk: 1,
            host_queues: None,
            faults: FaultConfig::none(),
            gc_preempt: false,
            read_only_floor_blocks: None,
            telemetry: None,
            slo: None,
        };
        let (specs, _) = build_specs(&cfg);
        let calibration = pool::map_ordered_dynamic(&specs, cfg.workers, calibrate);
        Self {
            cfg,
            calibration,
            last: None,
        }
    }
}

impl Workload for FleetFanout {
    fn iterate(&mut self, rec: &mut Spans) -> IterOutcome {
        let (report, rendered) = rec.scope(ITER_SPAN, |rec| {
            let report = rec.scope("fleet.run_fleet", |_| run_fleet(&self.cfg));
            let rendered = rec.scope("fleet.render", |_| render(&report));
            (report, rendered)
        });
        let requests: u64 = self.calibration.iter().map(|(r, _)| r.all.count).sum();
        let completed: u64 = report.devices.iter().map(|d| d.lat.count).sum();
        let out = IterOutcome {
            requests,
            flash_ops: self.calibration.iter().map(|(_, ops)| ops).sum(),
            unfinished: requests - completed + report.failed_ops,
            digest: digest(rendered.iter().map(String::as_str)),
            sim: SimFigures::of_reports(self.calibration.iter().map(|(r, _)| r)),
        };
        self.last = Some((report.fleet, rendered));
        out
    }

    fn finish(&mut self, checks: &mut Checks) {
        let (totals, _) = self.last.as_ref().expect("an iteration ran");
        let mut want = TrafficTotals::default();
        self.calibration.iter().for_each(|(r, _)| want.add(r));
        checks.require(*totals == want, || {
            format!(
                "fleet totals {totals:?} differ from the per-device calibration replays {want:?}"
            )
        });
    }

    fn traced(
        &mut self,
        rec: &mut Spans,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Option<EstCounts> {
        let n = self.cfg.workers;
        let fleet_wn_s = rec.last_s("fleet.run_fleet");
        let (_, rendered) = self.last.as_ref().expect("the warm-up iteration ran");

        // `run_fleet` taken apart: specs, one `simulate_device` per spec
        // (serially, so each has the machine to itself), roll-up, CSVs.
        let (specs, distinct) = rec.scope("fleet.specs", |_| build_specs(&self.cfg));
        let mut device_ms = Vec::with_capacity(specs.len());
        let reports = rec.scope("fleet.devices", |rec| {
            specs
                .iter()
                .map(|spec| {
                    let start = Instant::now();
                    let report = simulate_device(spec);
                    let end = Instant::now();
                    rec.add("fleet.simulate_device", start, end);
                    device_ms.push((end - start).as_secs_f64() * 1e3);
                    report
                })
                .collect()
        });
        let report = rec.scope("fleet.aggregate", |_| {
            FleetReport::aggregate(reports, distinct)
        });
        let csvs = rec.scope("fleet.csv", |_| [report.device_csv(), report.qos_csv()]);
        let json = rec.scope("harness.json_render", |_| report.to_json().render());
        checks.require(csvs[..] == rendered[..2] && json == rendered[2], || {
            "the fleet assembled from public pieces differs from run_fleet's report".into()
        });

        // One worker against N, each on threads with an empty fingerprint
        // memo (as every pool thread is); then again warm.
        let one = FleetConfig {
            workers: 1,
            ..self.cfg.clone()
        };
        let timed = || {
            let t = Instant::now();
            let report = run_fleet(&one);
            (t.elapsed().as_secs_f64(), report)
        };
        let ((cold_s, w1), (warm_s, _)) = pool::run_workers(1, |_| (timed(), timed())).remove(0);
        checks.require(render(&w1) == *rendered, || {
            format!("fleet report at 1 worker differs from the report at {n} workers")
        });

        let distinct_requests: usize = specs
            .iter()
            .flat_map(|s| &s.tenants)
            .map(|t| (Arc::as_ptr(&t.trace), t.trace.requests.len()))
            .collect::<BTreeSet<_>>()
            .iter()
            .map(|(_, len)| len)
            .sum();
        let specs_s = rec.last_s("fleet.specs");
        layers.set("workloads.synth_ms", specs_s * 1e3);
        layers.set(
            "workloads.synth_ns_per_req",
            specs_s * 1e9 / distinct_requests as f64,
        );
        layers.set("fleet.specs_ms", specs_s * 1e3);
        layers.set("fleet.device_ms_p50", stats::median(&device_ms));
        layers.set(
            "fleet.device_ms_max",
            device_ms.iter().copied().fold(0.0, f64::max),
        );
        layers.set("fleet.aggregate_ms", rec.last_s("fleet.aggregate") * 1e3);
        layers.set("fleet.csv_ms", rec.last_s("fleet.csv") * 1e3);
        layers.set("fleet.pool_eff", cold_s / (n as f64 * fleet_wn_s));
        layers.set("fleet.devices", report.devices.len() as f64);
        layers.set("fleet.distinct_traces", report.distinct_traces as f64);
        layers.set(
            "harness.json_render_ms",
            rec.last_s("harness.json_render") * 1e3,
        );
        layers.set("dedup.cold_penalty_ms", (cold_s - warm_s) * 1e3);
        set_report_counts(
            layers,
            &self.calibration.iter().map(|(r, _)| r).collect::<Vec<_>>(),
        );
        let programs_and_erases: u64 = self
            .calibration
            .iter()
            .map(|(r, _)| r.total_programs + r.total_erases)
            .sum();
        let ops: u64 = self.calibration.iter().map(|(_, ops)| ops).sum();
        layers.set("flash.reads", (ops - programs_and_erases) as f64);

        // Li/Lee/Lui's mean-field greedy model on this fleet's device shape.
        let model = uniform_validation(
            self.cfg.flash,
            self.cfg.footprint_frac,
            60_000,
            self.cfg.seed,
        );
        layers.set("accuracy.waf_model_err_pct", model.rel_err() * 100.0);
        None
    }
}
