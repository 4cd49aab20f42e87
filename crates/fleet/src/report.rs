//! Fleet-wide aggregation: per-mix and per-tenant rollups, JSON/CSV
//! export.
//!
//! Everything here is one fold over the device reports **in device
//! order**, so the aggregate — like the per-device results it is built
//! from — is byte-identical across worker counts. Each rollup level has
//! one record type that owns its merge ([`TrafficTotals::merge`],
//! `TenantReport::merge`, [`TenantSloTrack::merge`]), and every keyed
//! rollup (per mix, per (mix, tenant), per-tenant SLO) is found or
//! appended in first-appearance order. Ratios are recomputed from summed
//! counters, and tenant latency is aggregated by merging the full
//! per-device histograms, not by averaging summaries.

use cagc_core::TrafficTotals;
use cagc_harness::{Json, ToJson};
use cagc_metrics::{Table, TimeSeries};
use cagc_sim::time::Nanos;
use cagc_trace::SpanProfile;

use crate::device::{DeviceReport, TenantReport};
use crate::observe::{DeviceObservability, FleetTimeline};
use crate::slo::TenantSloTrack;

/// Rollup over every device serving one tenant mix.
#[derive(Debug, Clone)]
pub struct MixSummary {
    /// Mix name.
    pub mix: String,
    /// Devices serving this mix.
    pub devices: u64,
    /// Summed traffic counters across those devices.
    pub totals: TrafficTotals,
    /// Earliest first-retirement time across those devices, if any.
    pub earliest_retirement_ns: Option<Nanos>,
    /// Devices of this mix that ended the run read-only.
    pub degraded_devices: u64,
}

impl MixSummary {
    fn new(mix: &str) -> Self {
        Self {
            mix: mix.to_string(),
            devices: 0,
            totals: TrafficTotals::default(),
            earliest_retirement_ns: None,
            degraded_devices: 0,
        }
    }

    fn merge(&mut self, dev: &DeviceReport) {
        self.devices += 1;
        self.totals.merge(&dev.totals);
        if let Some(ns) = dev.first_retirement_ns {
            self.earliest_retirement_ns = earliest(self.earliest_retirement_ns, ns);
        }
        self.degraded_devices += u64::from(dev.read_only);
    }
}

impl ToJson for MixSummary {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = Vec::from([
            ("mix", Json::Str(self.mix.clone())),
            ("devices", Json::U64(self.devices)),
            ("waf", Json::F64(self.totals.waf())),
            ("dedup_hit_rate", Json::F64(self.totals.dedup_hit_rate())),
            ("totals", self.totals.to_json()),
        ]);
        if let Some(ns) = self.earliest_retirement_ns {
            fields.push(("earliest_retirement_ns", Json::U64(ns)));
        }
        if self.degraded_devices > 0 {
            fields.push(("degraded_devices", Json::U64(self.degraded_devices)));
        }
        Json::obj(fields)
    }
}

/// Rollup over one tenant slot of one mix: every device's
/// [`TenantReport`] for that slot merged into one.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Mix name.
    pub mix: String,
    /// Devices contributing.
    pub devices: u64,
    /// The merged tenant record (counters summed, latency distributions
    /// merged exactly).
    pub report: TenantReport,
}

impl TenantSummary {
    fn new(mix: &str, tenant: &str) -> Self {
        Self { mix: mix.to_string(), devices: 0, report: TenantReport::new(tenant) }
    }

    fn merge(&mut self, t: &TenantReport) {
        self.devices += 1;
        self.report.merge(t);
    }
}

impl ToJson for TenantSummary {
    /// The tenant record's keys without `trims`, with the mix first and
    /// the device count after the tenant label.
    fn to_json(&self) -> Json {
        let t = &self.report;
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("mix", Json::Str(self.mix.clone())),
            ("tenant", Json::Str(t.tenant.clone())),
            ("devices", Json::U64(self.devices)),
            ("requests", Json::U64(t.requests)),
            ("pages_written", Json::U64(t.pages_written)),
            ("pages_read", Json::U64(t.pages_read)),
        ];
        if t.failed_ops > 0 {
            fields.push(("failed_ops", Json::U64(t.failed_ops)));
        }
        fields.push(("lat", t.lat().to_json()));
        Json::obj(fields)
    }
}

/// The full fleet result: per-device reports plus the rollups.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-device results, in device order.
    pub devices: Vec<DeviceReport>,
    /// Fleet-wide summed traffic counters.
    pub fleet: TrafficTotals,
    /// Per-mix rollups, in first-appearance (device) order.
    pub by_mix: Vec<MixSummary>,
    /// Per-(mix, tenant) rollups, in first-appearance order.
    pub by_tenant: Vec<TenantSummary>,
    /// Distinct traces the run generated (the shared-memory footprint).
    pub distinct_traces: usize,
    /// Devices that retired at least one block.
    pub retired_devices: u64,
    /// Earliest first-retirement time across the fleet, if any device
    /// retired a block.
    pub earliest_retirement_ns: Option<Nanos>,
    /// Devices that ended the run degraded to read-only.
    pub degraded_devices: u64,
    /// Earliest tenant-visible degradation (first write-protected
    /// completion) across the fleet, if any device degraded.
    pub first_degradation_ns: Option<Nanos>,
    /// Requests across the fleet that completed with an error status or
    /// were dropped by a device failure.
    pub failed_ops: u64,
    /// Summed traffic counters over the surviving (non-read-only)
    /// devices — what capacity the fleet still has after degradation.
    pub survivor_totals: TrafficTotals,
    /// Time-resolved fleet view (per-device gauges namespaced
    /// `dev{id:03}/…`, exact `fleet/…` merges, degraded-device step).
    /// Only observed fleets carry it.
    pub timeline: Option<FleetTimeline>,
    /// Merged span profile across every traced device. Only fleets with
    /// span-recording telemetry carry it.
    pub profile: Option<SpanProfile>,
    /// Per-(mix, tenant) SLO ledgers, each every device's ledger for that
    /// tenant merged exactly, first-appearance order. Only SLO-tracking
    /// fleets carry it.
    pub slo: Option<Vec<(String, TenantSloTrack)>>,
}

/// `ns`, or the earlier of it and `so_far`.
fn earliest(so_far: Option<Nanos>, ns: Nanos) -> Option<Nanos> {
    Some(so_far.map_or(ns, |e| e.min(ns)))
}

/// The rollup `is` picks, appended as `first()` when its key has not
/// appeared yet, so every keyed rollup is in first-appearance (device)
/// order; `true` when it was just appended. The fleet's device cells are
/// grouped the same way ([`crate::FleetConfig::cells`]).
pub(crate) fn upsert<T>(
    rollups: &mut Vec<T>,
    is: impl Fn(&T) -> bool,
    first: impl FnOnce() -> T,
) -> (&mut T, bool) {
    match rollups.iter().position(is) {
        Some(i) => (&mut rollups[i], false),
        None => {
            rollups.push(first());
            (rollups.last_mut().expect("just pushed"), true)
        }
    }
}

impl FleetReport {
    /// Fold per-device reports into the fleet rollups. Deterministic:
    /// one pure fold in device order.
    pub fn aggregate(devices: Vec<DeviceReport>, distinct_traces: usize) -> Self {
        let mut r = Self { distinct_traces, ..Self::default() };
        for dev in &devices {
            r.fleet.merge(&dev.totals);
            if let Some(ns) = dev.first_retirement_ns {
                r.retired_devices += 1;
                r.earliest_retirement_ns = earliest(r.earliest_retirement_ns, ns);
            }
            if dev.read_only {
                r.degraded_devices += 1;
            } else {
                r.survivor_totals.merge(&dev.totals);
            }
            if let Some(ns) = dev.degraded_at_ns {
                r.first_degradation_ns = earliest(r.first_degradation_ns, ns);
            }
            r.failed_ops += dev.failed_ops;
            upsert(&mut r.by_mix, |m| m.mix == dev.mix, || MixSummary::new(&dev.mix)).0.merge(dev);
            for t in &dev.tenants {
                let is = |s: &TenantSummary| s.mix == dev.mix && s.report.tenant == t.tenant;
                upsert(&mut r.by_tenant, is, || TenantSummary::new(&dev.mix, &t.tenant)).0.merge(t);
            }
            // An SLO rollup starts as a clone of the first device's ledger.
            if let Some(tracks) = &dev.slo {
                let slo = r.slo.get_or_insert_with(Vec::new);
                for t in tracks {
                    let ((_, rollup), fresh) = upsert(
                        slo,
                        |(m, s)| *m == dev.mix && s.tenant == t.tenant,
                        || (dev.mix.clone(), t.clone()),
                    );
                    if !fresh {
                        rollup.merge(t);
                    }
                }
            }
        }
        // Observability rollups: pure folds over the per-device
        // captures, in device order.
        let obs_devices: Vec<(u32, &DeviceObservability)> =
            devices.iter().filter_map(|d| d.obs.as_ref().map(|o| (d.device, o))).collect();
        let degraded_instants: Vec<u64> =
            devices.iter().filter_map(|d| d.degraded_at_ns).collect();
        r.timeline = FleetTimeline::build(&obs_devices, &degraded_instants);
        for p in obs_devices.iter().filter_map(|(_, o)| o.profile.as_ref()) {
            match &mut r.profile {
                Some(m) => m.merge(p),
                None => r.profile = Some(p.clone()),
            }
        }
        r.devices = devices;
        r
    }

    /// Events dropped across every observed device's tracer.
    pub fn dropped_events(&self) -> u64 {
        self.devices.iter().filter_map(|d| d.obs.as_ref()).map(|o| o.dropped_events).sum()
    }

    /// The time-resolved observability artifact: every timeline series
    /// plus one `slo/{mix}/{tenant}` violation-rate series per SLO
    /// rollup, one row per non-empty window. `None` when neither
    /// telemetry nor SLO tracking was armed.
    pub fn timeline_csv(&self) -> Option<String> {
        if self.timeline.is_none() && self.slo.is_none() {
            return None;
        }
        let mut t = Table::new(vec!["series", "start_ns", "count", "mean", "max"]);
        let mut push = |name: &str, ts: &TimeSeries| {
            // Floats use the harness's shortest-round-trip formatting
            // (byte-deterministic).
            for w in ts.windows() {
                t.row(vec![
                    name.to_string(),
                    w.start_ns.to_string(),
                    w.count.to_string(),
                    Json::F64(w.mean).render(),
                    w.max.to_string(),
                ]);
            }
        };
        for (name, ts) in self.timeline.iter().flat_map(|tl| &tl.series) {
            push(name, ts);
        }
        for (mix, track) in self.slo.iter().flatten() {
            push(&format!("slo/{mix}/{}", track.tenant), &track.series);
        }
        Some(t.to_csv())
    }

    /// Per-device CSV: one row per device, exact integer ns.
    pub fn device_csv(&self) -> String {
        let mut t = Table::new(vec![
            "device", "mix", "scheme", "waf", "dedup_hit_rate", "erases", "host_pages", "p50_ns",
            "p99_ns", "p999_ns", "end_ns",
        ]);
        for d in &self.devices {
            t.row(vec![
                d.device.to_string(),
                d.mix.clone(),
                d.scheme.clone(),
                format!("{:.4}", d.totals.waf()),
                format!("{:.4}", d.totals.dedup_hit_rate()),
                d.totals.total_erases.to_string(),
                d.totals.host_pages_written.to_string(),
                d.lat.p50_ns.to_string(),
                d.lat.p99_ns.to_string(),
                d.lat.p999_ns.to_string(),
                d.end_ns.to_string(),
            ]);
        }
        t.to_csv()
    }

    /// Per-tenant QoS CSV: one row per (mix, tenant), latency from the
    /// merged cross-device distribution.
    pub fn qos_csv(&self) -> String {
        let mut t = Table::new(vec![
            "mix", "tenant", "devices", "requests", "pages_written", "p50_ns", "p90_ns", "p99_ns",
            "p999_ns", "max_ns",
        ]);
        for s in &self.by_tenant {
            let (r, lat) = (&s.report, s.report.lat());
            t.row(vec![
                s.mix.clone(),
                r.tenant.clone(),
                s.devices.to_string(),
                r.requests.to_string(),
                r.pages_written.to_string(),
                lat.p50_ns.to_string(),
                lat.p90_ns.to_string(),
                lat.p99_ns.to_string(),
                lat.p999_ns.to_string(),
                lat.max_ns.to_string(),
            ]);
        }
        t.to_csv()
    }
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = Vec::from([
            ("devices", Json::U64(self.devices.len() as u64)),
            ("distinct_traces", Json::U64(self.distinct_traces as u64)),
            ("waf", Json::F64(self.fleet.waf())),
            ("dedup_hit_rate", Json::F64(self.fleet.dedup_hit_rate())),
            ("fleet", self.fleet.to_json()),
            ("by_mix", Json::Arr(self.by_mix.iter().map(|m| m.to_json()).collect())),
            ("by_tenant", Json::Arr(self.by_tenant.iter().map(|t| t.to_json()).collect())),
        ]);
        // Pay-as-you-go: fault-free fleets carry no lifetime section.
        if self.earliest_retirement_ns.is_some() || self.retired_devices > 0 {
            fields.push(("retired_devices", Json::U64(self.retired_devices)));
            if let Some(ns) = self.earliest_retirement_ns {
                fields.push(("earliest_retirement_ns", Json::U64(ns)));
            }
        }
        // Degradation section: only fleets that actually degraded (or
        // failed ops) pay for it.
        if self.degraded_devices > 0 || self.failed_ops > 0 {
            fields.push(("degraded_devices", Json::U64(self.degraded_devices)));
            fields.push((
                "surviving_devices",
                Json::U64(self.devices.len() as u64 - self.degraded_devices),
            ));
            if let Some(ns) = self.first_degradation_ns {
                fields.push(("first_degradation_ns", Json::U64(ns)));
            }
            fields.push(("failed_ops", Json::U64(self.failed_ops)));
            fields.push(("survivor_totals", self.survivor_totals.to_json()));
        }
        // Observability section: only observed fleets pay for it. The
        // full gauge windows live in the timeline CSV artifact; the JSON
        // carries the compact summary plus the merged profile.
        if self.timeline.is_some() || self.profile.is_some() {
            let mut o: Vec<(&'static str, Json)> = Vec::new();
            o.push(("dropped_events", Json::U64(self.dropped_events())));
            if let Some(tl) = &self.timeline {
                o.push(("timeline", tl.to_json()));
            }
            if let Some(p) = &self.profile {
                o.push(("profile", p.to_json()));
            }
            fields.push(("observability", Json::obj(o)));
        }
        if let Some(slo) = &self.slo {
            // Each merged ledger's keys, with its mix prepended.
            let with_mix = |(mix, t): &(String, TenantSloTrack)| {
                let Json::Obj(mut o) = t.to_json() else { unreachable!("a ledger is an object") };
                o.insert(0, ("mix".to_string(), Json::Str(mix.clone())));
                Json::Obj(o)
            };
            fields.push(("slo", Json::Arr(slo.iter().map(with_mix).collect())));
        }
        fields
            .push(("per_device", Json::Arr(self.devices.iter().map(|d| d.to_json()).collect())));
        Json::obj(fields)
    }
}
