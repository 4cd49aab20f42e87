//! One fleet cell: a multi-tenant device replay with per-tenant QoS.
//!
//! The cell is a *pure function* of its [`DeviceSpec`]: same spec, same
//! [`DeviceReport`], bit for bit — the property that lets the fleet
//! layer schedule cells dynamically without changing results.
//!
//! Tenant streams are merged by `mixer::merge` (arrival time, ties by
//! tenant index, FIFO within a tenant, each tenant's LPNs rebased into its
//! own namespace), and nothing is materialized: in direct mode the merge
//! streams borrowed requests into `Ssd::submit` one at a time; with host
//! queues configured the same merge feeds the NVMe-style multi-queue
//! interface, giving host-observed (queueing-inclusive) tenant latencies.
//! Per-device transient memory is O(tenants) beyond the shared traces,
//! plus the host's commands between arrival and reap. Either way every
//! request ends in the one `TenantLedger`, as a latency sample or as a
//! failed op.

use std::sync::Arc;

use cagc_core::{CmdStatus, RunReport, Scheme, Ssd, SsdConfig, TrafficTotals};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_harness::{Json, ToJson};
use cagc_host::{HostConfig, HostInterface, Loop};
use cagc_metrics::Histogram;
use cagc_core::LatencySummary;
use cagc_sim::time::Nanos;
use cagc_trace::{SpanProfile, TraceConfig};
use cagc_workloads::{mixer, OpKind, Trace};

use crate::observe::DeviceObservability;
use crate::slo::{SloConfig, TenantSloTrack};

/// One tenant's stream on a device: a display label and a shared handle
/// to its (immutable) trace.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    /// Display label, e.g. `"Mail[0]"`.
    pub label: String,
    /// The tenant's trace, shared across every device replaying it.
    pub trace: Arc<Trace>,
}

/// Everything that determines one device's simulation.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Device index within the fleet.
    pub id: u32,
    /// Name of the tenant mix this device serves.
    pub mix_name: String,
    /// FTL scheme under test.
    pub scheme: Scheme,
    /// Device shape and timing.
    pub flash: UllConfig,
    /// Tenant streams, in namespace order.
    pub tenants: Vec<TenantTrace>,
    /// `Some((queue_pairs, queue_depth))` replays through the NVMe-style
    /// host interface; `None` feeds the FTL directly.
    pub host_queues: Option<(u32, u32)>,
    /// Fault-injection plan for this device ([`FaultConfig::none`] for a
    /// fault-free cell). Faulty cells keep running: error completions are
    /// attributed to the issuing tenant, and a device that degrades to
    /// read-only fails its remaining write traffic instead of aborting
    /// the fleet.
    pub faults: FaultConfig,
    /// Run the device with preemptible (sliced) GC.
    pub gc_preempt: bool,
    /// Override for [`cagc_core::SsdConfig::read_only_floor_blocks`]
    /// (`None` keeps the device default). Raising the floor makes the
    /// read-only trip wire sensitive to the first few retirements —
    /// chaos campaigns use it to reach degradation in bounded work.
    pub read_only_floor_blocks: Option<u32>,
    /// Arm this device's tracer with this configuration and capture its
    /// gauge registry (and, when it records spans, a span profile) with
    /// the report: [`TraceConfig::gauges_only`] for gauges alone. `None`
    /// keeps the cell byte-identical to an unobserved run.
    pub telemetry: Option<TraceConfig>,
    /// Track per-tenant latency objectives. `None` records nothing.
    pub slo: Option<SloConfig>,
}

/// Per-tenant accounting for one device.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant label (from [`TenantTrace::label`]).
    pub tenant: String,
    /// Requests the tenant issued.
    pub requests: u64,
    /// Pages the tenant wrote.
    pub pages_written: u64,
    /// Pages the tenant read.
    pub pages_read: u64,
    /// Trim requests the tenant issued.
    pub trims: u64,
    /// Tenant-observed latency distribution (device service time in
    /// direct mode, host end-to-end time in host mode). Kept as a full
    /// histogram so the fleet layer can merge across devices exactly.
    pub hist: Histogram,
    /// Requests that completed with an error status (media read error,
    /// write fault, write protected) or were dropped by a device failure
    /// — the tenant's share of the device's degradation. Zero on
    /// fault-free runs.
    pub failed_ops: u64,
}

impl TenantReport {
    /// A zeroed record for `tenant`: no traffic, an empty distribution.
    pub(crate) fn new(tenant: &str) -> Self {
        Self {
            tenant: tenant.to_string(),
            requests: 0,
            pages_written: 0,
            pages_read: 0,
            trims: 0,
            hist: Histogram::new(),
            failed_ops: 0,
        }
    }

    /// Fold another record of the same tenant in: counters add and the
    /// latency distributions merge exactly.
    pub(crate) fn merge(&mut self, o: &TenantReport) {
        self.requests += o.requests;
        self.pages_written += o.pages_written;
        self.pages_read += o.pages_read;
        self.trims += o.trims;
        self.failed_ops += o.failed_ops;
        self.hist.merge(&o.hist);
    }

    /// Latency summary of this tenant's distribution.
    pub fn lat(&self) -> LatencySummary {
        LatencySummary::of(&self.hist)
    }
}

impl ToJson for TenantReport {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("tenant", Json::Str(self.tenant.clone())),
            ("requests", Json::U64(self.requests)),
            ("pages_written", Json::U64(self.pages_written)),
            ("pages_read", Json::U64(self.pages_read)),
            ("trims", Json::U64(self.trims)),
        ];
        // Pay-as-you-go: only degraded runs carry the key.
        if self.failed_ops > 0 {
            fields.push(("failed_ops", Json::U64(self.failed_ops)));
        }
        fields.push(("lat", self.lat().to_json()));
        Json::obj(fields)
    }
}

/// One device's result: distilled device-level counters plus per-tenant
/// accounting.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device index within the fleet.
    pub device: u32,
    /// Tenant-mix name the device served.
    pub mix: String,
    /// Scheme name.
    pub scheme: String,
    /// This device's additive traffic counters (one run folded in).
    pub totals: TrafficTotals,
    /// Device-level all-request latency summary.
    pub lat: LatencySummary,
    /// Sim time of the first bad-block retirement, if any (lifetime
    /// proxy; `None` on fault-free runs).
    pub first_retirement_ns: Option<Nanos>,
    /// Whether the device ended the run degraded to read-only (spare
    /// pool exhausted by bad-block retirement).
    pub read_only: bool,
    /// Sim time of the first write-protected completion — the moment the
    /// read-only degradation became visible to a tenant. `None` if the
    /// device never degraded (or degraded after its last write).
    pub degraded_at_ns: Option<Nanos>,
    /// Requests across all tenants that completed with an error status
    /// or were dropped by a device failure.
    pub failed_ops: u64,
    /// Sim time when the device finished its replay.
    pub end_ns: Nanos,
    /// Per-tenant accounting, in namespace order.
    pub tenants: Vec<TenantReport>,
    /// Telemetry capture (only when [`DeviceSpec::telemetry`] was set).
    pub obs: Option<DeviceObservability>,
    /// Per-tenant SLO ledgers, namespace order (only when
    /// [`DeviceSpec::slo`] was set).
    pub slo: Option<Vec<TenantSloTrack>>,
}

impl DeviceReport {
    fn from_run(
        spec: &DeviceSpec,
        run: &RunReport,
        ledger: TenantLedger,
        obs: Option<DeviceObservability>,
    ) -> Self {
        let TenantLedger { tenants, slo, degraded_at: degraded_at_ns } = ledger;
        let mut totals = TrafficTotals::default();
        totals.add(run);
        let failed_ops = tenants.iter().map(|t| t.failed_ops).sum();
        Self {
            device: spec.id,
            mix: spec.mix_name.clone(),
            scheme: spec.scheme.name().to_string(),
            totals,
            lat: run.all.clone(),
            first_retirement_ns: run.first_retirement_ns,
            read_only: run.faults.read_only,
            degraded_at_ns,
            failed_ops,
            end_ns: run.end_ns,
            tenants,
            obs,
            slo,
        }
    }
}

impl ToJson for DeviceReport {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = Vec::from([
            ("device", Json::U64(u64::from(self.device))),
            ("mix", Json::Str(self.mix.clone())),
            ("scheme", Json::Str(self.scheme.clone())),
            ("waf", Json::F64(self.totals.waf())),
            ("dedup_hit_rate", Json::F64(self.totals.dedup_hit_rate())),
            ("erases", Json::U64(self.totals.total_erases)),
            ("host_pages_written", Json::U64(self.totals.host_pages_written)),
            ("lat", self.lat.to_json()),
            ("end_ns", Json::U64(self.end_ns)),
        ]);
        // Same pay-as-you-go gating as RunReport: retirements and
        // degradation only exist under fault injection, so fault-free
        // fleets omit the keys.
        if let Some(ns) = self.first_retirement_ns {
            fields.push(("first_retirement_ns", Json::U64(ns)));
        }
        if self.read_only {
            fields.push(("read_only", Json::Bool(true)));
        }
        if let Some(ns) = self.degraded_at_ns {
            fields.push(("degraded_at_ns", Json::U64(ns)));
        }
        if self.failed_ops > 0 {
            fields.push(("failed_ops", Json::U64(self.failed_ops)));
        }
        // Pay-as-you-go observability: unobserved devices carry neither
        // key, and the per-device summary stays small — the full gauge
        // windows and SLO ledgers live in the fleet-level rollups and
        // the timeline CSV artifact.
        if let Some(obs) = &self.obs {
            let mut t: Vec<(&'static str, Json)> = vec![
                ("gauges", Json::U64(obs.gauges.len() as u64)),
                ("dropped_events", Json::U64(obs.dropped_events)),
            ];
            if let Some(p) = &obs.profile {
                t.push(("profiled_buckets", Json::U64(p.rows().len() as u64)));
            }
            fields.push(("telemetry", Json::obj(t)));
        }
        if let Some(slo) = &self.slo {
            fields.push(("slo_met", Json::Bool(slo.iter().all(|t| t.met()))));
        }
        fields.push(("tenants", Json::Arr(self.tenants.iter().map(|t| t.to_json()).collect())));
        Json::obj(fields)
    }
}

/// Traffic-side tenant counters, computed from the trace itself (they
/// do not depend on the device's behavior).
fn tenant_traffic(label: &str, trace: &Trace) -> TenantReport {
    let mut t = TenantReport { requests: trace.requests.len() as u64, ..TenantReport::new(label) };
    for r in &trace.requests {
        match r.kind {
            OpKind::Write => t.pages_written += u64::from(r.pages),
            OpKind::Read => t.pages_read += u64::from(r.pages),
            OpKind::Trim => t.trims += 1,
        }
    }
    t
}

/// Where every request of a cell is accounted, whichever way it was
/// driven: exactly one of [`Self::complete`] (a latency sample, plus a
/// failed op if the status says the data never moved) or [`Self::lost`]
/// (a failed op the device never serviced).
struct TenantLedger {
    tenants: Vec<TenantReport>,
    slo: Option<Vec<TenantSloTrack>>,
    /// First write-protected completion: the moment read-only degradation
    /// became tenant-visible.
    degraded_at: Option<Nanos>,
}

impl TenantLedger {
    /// `tenant`'s request completed at `at_ns` after `latency`.
    fn complete(&mut self, tenant: usize, at_ns: Nanos, latency: Nanos, status: CmdStatus) {
        if status == CmdStatus::PowerLoss {
            return self.lost(tenant);
        }
        self.tenants[tenant].hist.record(latency);
        if let Some(tracks) = &mut self.slo {
            tracks[tenant].record(at_ns, latency);
        }
        if !status.is_ok() {
            self.tenants[tenant].failed_ops += 1;
            if status == CmdStatus::WriteProtected {
                // Completions need not arrive in time order (direct mode
                // reports in arrival order, and dies finish out of it):
                // keep the earliest.
                self.degraded_at = Some(self.degraded_at.map_or(at_ns, |d| d.min(at_ns)));
            }
        }
    }

    /// The device died before servicing `tenant`'s request.
    fn lost(&mut self, tenant: usize) {
        self.tenants[tenant].failed_ops += 1;
    }
}

/// Simulate one device: build the SSD, merge-replay the tenant streams,
/// account latency per tenant, and distill the report.
///
/// A power loss mid-replay does not panic: the torn request and every
/// request the dead device can no longer serve are attributed to their
/// tenants as failed ops, and the device reports what it completed.
///
/// # Panics
/// Panics if a tenant's request falls outside the device's logical space
/// ([`Ssd::submit`]).
pub fn simulate_device(spec: &DeviceSpec) -> DeviceReport {
    let mut cfg = SsdConfig::paper(spec.flash, spec.scheme);
    cfg.faults = spec.faults.clone();
    cfg.gc_preempt = spec.gc_preempt;
    if let Some(floor) = spec.read_only_floor_blocks {
        cfg.read_only_floor_blocks = floor;
    }
    let mut ssd = Ssd::new(cfg);
    if let Some(tcfg) = &spec.telemetry {
        ssd.enable_tracing(tcfg.clone());
    }
    let mut ledger = TenantLedger {
        tenants: spec.tenants.iter().map(|t| tenant_traffic(&t.label, &t.trace)).collect(),
        slo: spec
            .slo
            .as_ref()
            .map(|c| spec.tenants.iter().map(|t| TenantSloTrack::new(&t.label, c)).collect()),
        degraded_at: None,
    };
    let refs: Vec<&Trace> = spec.tenants.iter().map(|t| t.trace.as_ref()).collect();

    let (mut ssd, run) = match spec.host_queues {
        None => {
            // Device service time, straight off the merge.
            for (tenant, cmd) in mixer::merge(&refs) {
                match ssd.submit(cmd) {
                    Ok(c) => ledger.complete(tenant, c.end_ns, c.end_ns - cmd.at_ns, c.status),
                    Err(_) => ledger.lost(tenant),
                }
            }
            let run = ssd.report(&spec.mix_name);
            (ssd, run)
        }
        Some((pairs, depth)) => {
            // The same merge through the multi-queue host path: each
            // reaped command's host-observed latency goes to its tenant.
            let mut host = HostInterface::new(ssd, HostConfig::nvme(pairs, depth));
            let merged = mixer::merge(&refs);
            let hreport = host.replay(Loop::Open, &spec.mix_name, merged, |tenant, cmd| {
                ledger.complete(tenant, cmd.reaped_ns, cmd.latency_ns(), cmd.status)
            });
            (host.into_ssd(), hreport.device)
        }
    };
    ssd.sample_telemetry(run.end_ns);
    let obs = spec.telemetry.as_ref().map(|t| collect_obs(&ssd, t));
    DeviceReport::from_run(spec, &run, ledger, obs)
}

/// Distill the device's tracer state into its observability capture.
fn collect_obs(ssd: &Ssd, tcfg: &TraceConfig) -> DeviceObservability {
    let tracer = ssd.tracer();
    DeviceObservability {
        window_ns: tcfg.counter_window_ns,
        gauges: tracer
            .registry()
            .series()
            .map(|(name, ts)| (name.to_string(), ts.clone()))
            .collect(),
        dropped_events: tracer.dropped_events(),
        profile: tcfg
            .record_spans
            .then(|| SpanProfile::from_spans(&cagc_trace::from_tracer(tracer).spans)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagc_workloads::FiuWorkload;

    fn spec(host_queues: Option<(u32, u32)>) -> DeviceSpec {
        let flash = UllConfig::tiny_for_tests();
        let mut lib = crate::library::TraceLibrary::new();
        let pages = (flash.logical_pages() as f64 * 0.9 / 2.0) as u64;
        DeviceSpec {
            id: 3,
            mix_name: "test-mix".into(),
            scheme: Scheme::Cagc,
            flash,
            tenants: vec![
                TenantTrace {
                    label: "Mail[0]".into(),
                    trace: lib.get(FiuWorkload::Mail, pages, 400, 11, 1.0),
                },
                TenantTrace {
                    label: "Homes[1]".into(),
                    trace: lib.get(FiuWorkload::Homes, pages, 400, 11, 1.0),
                },
            ],
            host_queues,
            faults: FaultConfig::none(),
            gc_preempt: false,
            read_only_floor_blocks: None,
            telemetry: None,
            slo: None,
        }
    }

    /// A deliberately tiny device (32 blocks x 8 pages) whose tenants
    /// overwrite their footprint several times over — GC churns hard, so
    /// injected erase failures retire blocks within a few hundred
    /// requests.
    fn micro_spec(host_queues: Option<(u32, u32)>) -> DeviceSpec {
        let flash = UllConfig {
            channels: 1,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block: 8,
            page_size: 4096,
            op_ratio: 0.12,
            gc_watermark: 0.20,
            hash_ns: 14_000,
            timing: cagc_flash::Timing::ull(),
        };
        let mut lib = crate::library::TraceLibrary::new();
        let pages = (flash.logical_pages() as f64 * 0.9 / 2.0) as u64;
        DeviceSpec {
            id: 9,
            mix_name: "chaos-mix".into(),
            scheme: Scheme::Cagc,
            flash,
            tenants: vec![
                TenantTrace {
                    label: "Mail[0]".into(),
                    trace: lib.get(FiuWorkload::Mail, pages, 500, 21, 1.0),
                },
                TenantTrace {
                    label: "Homes[1]".into(),
                    trace: lib.get(FiuWorkload::Homes, pages, 500, 21, 1.0),
                },
            ],
            host_queues,
            faults: FaultConfig {
                erase_fail_prob: 0.5,
                read_ecc_prob: 0.02,
                unrecoverable_prob: 0.3,
                seed: 99,
                ..FaultConfig::none()
            },
            gc_preempt: false,
            // Floor = the whole 32-block device: the first retirement
            // trips read-only, long before erase failures can bleed the
            // GC reserve dry.
            read_only_floor_blocks: Some(32),
            telemetry: None,
            slo: None,
        }
    }

    #[test]
    fn faulty_cell_degrades_to_read_only_with_attribution() {
        let rep = simulate_device(&micro_spec(None));
        assert!(rep.read_only, "erase failures past the floor must degrade to read-only");
        assert!(rep.first_retirement_ns.is_some(), "a failed erase retires its block");
        assert!(rep.failed_ops > 0, "post-degradation writes must fail with attribution");
        assert_eq!(
            rep.failed_ops,
            rep.tenants.iter().map(|t| t.failed_ops).sum::<u64>(),
            "device failed-op count is the sum of its tenants'"
        );
        // A write-protected rejection completes relative to its arrival
        // time, which may predate the retirement's device-internal
        // timestamp — so only bound degradation by the run itself.
        let degraded = rep.degraded_at_ns.expect("degradation must be tenant-visible");
        assert!(degraded > 0 && degraded <= rep.end_ns);
        let j = rep.to_json().render();
        assert!(j.contains("\"read_only\":true"));
        assert!(j.contains("degraded_at_ns") && j.contains("failed_ops"));
        // Faulty cells stay pure functions of their spec.
        let again = simulate_device(&micro_spec(None));
        assert_eq!(again.to_json().render(), j, "faulty cell must be deterministic");
    }

    #[test]
    fn faulty_host_mode_attributes_errors() {
        let rep = simulate_device(&micro_spec(Some((2, 8))));
        assert!(rep.failed_ops > 0, "host-mode error completions must be attributed");
        assert_eq!(
            rep.failed_ops,
            rep.tenants.iter().map(|t| t.failed_ops).sum::<u64>()
        );
        assert!(rep.to_json().render().contains("failed_ops"));
    }

    /// A crash plan kills the device mid-replay. However the cell is
    /// driven, every request is accounted exactly once: a latency sample
    /// if the device serviced it, a failed op if it never did.
    #[test]
    fn power_loss_counts_every_request_once_in_both_modes() {
        for hq in [None, Some((2, 8))] {
            let mut s = spec(hq);
            s.faults = FaultConfig { crash_at_op: Some(300), ..FaultConfig::none() };
            let rep = simulate_device(&s);
            let issued: u64 = rep.tenants.iter().map(|t| t.requests).sum();
            let sampled: u64 = rep.tenants.iter().map(|t| t.hist.count()).sum();
            assert!(rep.failed_ops > 0, "{hq:?}: the dead device's requests are failed ops");
            assert!(sampled > 0, "{hq:?}: the crash point lies inside the replay");
            assert_eq!(rep.failed_ops + sampled, issued, "{hq:?}");
            assert_eq!(sampled, rep.lat.count, "{hq:?}: a tenant sample is a device completion");
            assert!(rep.degraded_at_ns.is_none(), "{hq:?}: lost is not write-protected");
        }
    }

    #[test]
    fn direct_mode_attributes_every_request() {
        let s = spec(None);
        let rep = simulate_device(&s);
        let per_tenant: u64 = rep.tenants.iter().map(|t| t.hist.count()).sum();
        let issued: u64 = s.tenants.iter().map(|t| t.trace.requests.len() as u64).sum();
        assert_eq!(per_tenant, issued, "every merged request is attributed to a tenant");
        assert!(rep.totals.waf() > 0.0);
        assert!(rep.end_ns > 0);
        // Pay-as-you-go: a fault-free cell carries no fault/degradation
        // keys at all (faulty cells are first-class, not asserted away).
        assert_eq!(rep.failed_ops, 0);
        let j = rep.to_json().render();
        for key in ["first_retirement_ns", "read_only", "degraded_at_ns", "failed_ops"] {
            assert!(!j.contains(key), "fault-free cell leaked key {key}");
        }
    }

    #[test]
    fn direct_mode_equals_materialized_interleave() {
        // The streaming merge must be indistinguishable from replaying
        // the materialized interleave_n trace on an identical device.
        let s = spec(None);
        let streamed = simulate_device(&s);
        let refs: Vec<&Trace> = s.tenants.iter().map(|t| t.trace.as_ref()).collect();
        let merged = mixer::interleave_n(&refs);
        let mut ssd = Ssd::new(SsdConfig::paper(s.flash, s.scheme));
        let run = ssd.replay(&merged);
        assert_eq!(streamed.totals.total_programs, run.total_programs);
        assert_eq!(streamed.totals.total_erases, run.total_erases);
        assert_eq!(streamed.end_ns, run.end_ns);
        assert_eq!(streamed.lat.count, run.all.count);
        assert_eq!(streamed.lat.p99_ns, run.all.p99_ns);
    }

    #[test]
    fn host_mode_reports_end_to_end_latency() {
        let rep = simulate_device(&spec(Some((2, 8))));
        let per_tenant: u64 = rep.tenants.iter().map(|t| t.hist.count()).sum();
        assert!(per_tenant > 0);
        assert!(rep.totals.waf() > 0.0);
        let j = rep.to_json().render();
        assert!(j.contains("\"tenants\"") && j.contains("Mail[0]"));
    }

    /// Arming telemetry must not perturb the simulation: every core
    /// counter and latency figure matches the unobserved cell, only the
    /// observability capture is new.
    #[test]
    fn telemetry_capture_leaves_core_results_untouched() {
        for hq in [None, Some((2, 8))] {
            let plain = simulate_device(&spec(hq));
            let mut s = spec(hq);
            s.telemetry = Some(TraceConfig::gauges_only(1_000_000, 1));
            let observed = simulate_device(&s);
            assert_eq!(plain.end_ns, observed.end_ns);
            assert_eq!(plain.totals.total_erases, observed.totals.total_erases);
            assert_eq!(plain.lat.p99_ns, observed.lat.p99_ns);
            assert_eq!(plain.totals.total_programs, observed.totals.total_programs);
            let obs = observed.obs.as_ref().expect("armed cell must capture gauges");
            assert!(!obs.gauges.is_empty());
            assert_eq!(obs.dropped_events, 0, "gauges-only mode never drops events");
            assert!(obs.profile.is_none());
            // Pay-as-you-go JSON: only the armed cell carries the key.
            assert!(!plain.to_json().render().contains("\"telemetry\""));
            assert!(observed.to_json().render().contains("\"telemetry\""));
        }
    }

    #[test]
    fn traced_telemetry_yields_a_profile() {
        let mut s = spec(None);
        s.telemetry = Some(TraceConfig {
            counter_window_ns: 1_000_000,
            sample: 1,
            ..TraceConfig::default()
        });
        let rep = simulate_device(&s);
        let obs = rep.obs.as_ref().unwrap();
        let profile = obs.profile.as_ref().expect("record_spans must produce a profile");
        assert!(!profile.is_empty());
        assert!(rep.to_json().render().contains("profiled_buckets"));
    }

    /// SLO ledgers see exactly the per-tenant completions, and the
    /// counters obey the objective arithmetic.
    #[test]
    fn slo_tracking_counts_every_completion() {
        for hq in [None, Some((2, 8))] {
            let mut s = spec(hq);
            s.slo = Some(SloConfig::uniform(1, 900, 1_000_000));
            let rep = simulate_device(&s);
            let tracks = rep.slo.as_ref().expect("armed cell must track SLOs");
            assert_eq!(tracks.len(), rep.tenants.len());
            for (track, tenant) in tracks.iter().zip(&rep.tenants) {
                assert_eq!(track.tenant, tenant.tenant);
                assert_eq!(track.requests, tenant.hist.count());
                // A 1ns objective is unmeetable: every request violates.
                assert_eq!(track.violations, track.requests);
                assert!(!track.met());
            }
            assert!(rep.to_json().render().contains("\"slo_met\":false"));
        }
    }
}
