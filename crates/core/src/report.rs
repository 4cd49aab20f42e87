//! Per-run result report: everything the paper's figures are built from.

use cagc_dedup::IndexStats;
use cagc_harness::{Json, ToJson};
use cagc_metrics::{Cdf, Histogram};
use cagc_sim::time::Nanos;
use cagc_trace::TelemetryReport;

use crate::gc::GcStats;
use crate::recovery::RecoveryReport;

/// Fault-injection and fault-handling counters for one run.
///
/// All-false/all-zero on fault-free runs — [`FaultReport::is_quiet`] —
/// in which case [`RunReport`] omits it from the JSON, keeping fault-free
/// output byte-identical to output from before the fault subsystem
/// existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Whether a fault plan was configured (even if nothing fired).
    pub active: bool,
    /// Whether the device is down at a power-loss point right now.
    pub crashed: bool,
    /// Whether bad-block retirement degraded the device to read-only.
    pub read_only: bool,
    /// Injected program failures (device count).
    pub program_failures: u64,
    /// Injected erase failures (device count; each retires a block).
    pub erase_failures: u64,
    /// Injected read ECC errors (device count, per attempt).
    pub read_ecc_errors: u64,
    /// Blocks moved to the bad-block table.
    pub blocks_retired: u64,
    /// Mapping-delta journal records appended.
    pub journal_appends: u64,
    /// Program retries the FTL issued on fresh blocks.
    pub program_retries: u64,
    /// Last-resort forced programs after the retry budget ran out.
    pub forced_programs: u64,
    /// Re-reads the FTL issued after ECC errors.
    pub read_retries: u64,
    /// Heroic soft-decodes after the re-read budget ran out (the data is
    /// recovered unless the decode itself fails — see `media_read_errors`).
    pub ecc_decodes: u64,
    /// Host reads that failed unrecoverably (heroic decode failed too);
    /// the host saw a media-read-error completion.
    pub media_read_errors: u64,
    /// Host writes that failed unrecoverably (forced program failed too);
    /// the host saw a write-fault completion.
    pub write_faults: u64,
    /// Writes refused in read-only degradation.
    pub writes_rejected: u64,
    /// Trims refused in read-only degradation.
    pub trims_rejected: u64,
    /// Completed power-loss recovery passes.
    pub recoveries: u64,
}

impl FaultReport {
    /// True when nothing fault-related was configured or happened.
    pub fn is_quiet(&self) -> bool {
        *self == FaultReport::default()
    }
}

impl ToJson for FaultReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("active", Json::Bool(self.active)),
            ("crashed", Json::Bool(self.crashed)),
            ("read_only", Json::Bool(self.read_only)),
            ("program_failures", Json::U64(self.program_failures)),
            ("erase_failures", Json::U64(self.erase_failures)),
            ("read_ecc_errors", Json::U64(self.read_ecc_errors)),
            ("blocks_retired", Json::U64(self.blocks_retired)),
            ("journal_appends", Json::U64(self.journal_appends)),
            ("program_retries", Json::U64(self.program_retries)),
            ("forced_programs", Json::U64(self.forced_programs)),
            ("read_retries", Json::U64(self.read_retries)),
            ("ecc_decodes", Json::U64(self.ecc_decodes)),
            ("media_read_errors", Json::U64(self.media_read_errors)),
            ("write_faults", Json::U64(self.write_faults)),
            ("writes_rejected", Json::U64(self.writes_rejected)),
            ("trims_rejected", Json::U64(self.trims_rejected)),
            ("recoveries", Json::U64(self.recoveries)),
        ])
    }
}

/// SMART-style device health snapshot ([`crate::Ssd::health`]): the
/// rollup a monitoring plane would poll. Cheap enough to sample into the
/// gauge registry on fault-armed traced runs (the wear percentiles are read
/// off the device's erase-count histogram, not sorted per sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthLog {
    /// Injected media errors the device reported (program + erase + read
    /// ECC failures, per attempt).
    pub media_errors: u64,
    /// Host-visible unrecoverable errors (media-read-error + write-fault
    /// completions).
    pub unrecoverable_errors: u64,
    /// Blocks retired to the bad-block table.
    pub retired_blocks: u32,
    /// Remaining spare pool, per-mille: usable blocks above the
    /// (GC reserve + read-only floor) relative to the device's initial
    /// headroom. 1000 = pristine, 0 = at the read-only threshold.
    pub spare_pool_permille: u64,
    /// Median per-block erase count.
    pub wear_p50: u32,
    /// 90th-percentile per-block erase count.
    pub wear_p90: u32,
    /// Worst per-block erase count.
    pub wear_max: u32,
    /// Whether the device has degraded to read-only.
    pub read_only: bool,
}

impl ToJson for HealthLog {
    fn to_json(&self) -> Json {
        Json::obj([
            ("media_errors", Json::U64(self.media_errors)),
            ("unrecoverable_errors", Json::U64(self.unrecoverable_errors)),
            ("retired_blocks", Json::U64(u64::from(self.retired_blocks))),
            ("spare_pool_permille", Json::U64(self.spare_pool_permille)),
            ("wear_p50", Json::U64(u64::from(self.wear_p50))),
            ("wear_p90", Json::U64(u64::from(self.wear_p90))),
            ("wear_max", Json::U64(u64::from(self.wear_max))),
            ("read_only", Json::Bool(self.read_only)),
        ])
    }
}

/// Latency distribution summary for one request class.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Number of requests.
    pub count: u64,
    /// Mean response time.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile (tail, Fig. 12's regime; exact — order statistic
    /// from the histogram's retained tail, not a bucket approximation).
    pub p999_ns: u64,
    /// Worst case.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize a histogram.
    pub fn of(h: &Histogram) -> Self {
        let [p50, p90, p95, p99, p999] = h.quantiles([0.50, 0.90, 0.95, 0.99, 0.999]);
        Self {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: p50,
            p90_ns: p90,
            p95_ns: p95,
            p99_ns: p99,
            p999_ns: p999,
            max_ns: h.max(),
        }
    }
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("mean_ns", Json::F64(self.mean_ns)),
            ("p50_ns", Json::U64(self.p50_ns)),
            ("p90_ns", Json::U64(self.p90_ns)),
            ("p95_ns", Json::U64(self.p95_ns)),
            ("p99_ns", Json::U64(self.p99_ns)),
            ("p999_ns", Json::U64(self.p999_ns)),
            ("max_ns", Json::U64(self.max_ns)),
        ])
    }
}

/// Full report of one trace replay on one configured SSD.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme name ("Baseline" / "Inline-Dedupe" / "CAGC").
    pub scheme: String,
    /// Victim policy name.
    pub victim: String,
    /// Workload name.
    pub workload: String,

    /// All-request latency summary (the Fig. 2 / Fig. 11 metric).
    pub all: LatencySummary,
    /// Read-only latency summary.
    pub reads: LatencySummary,
    /// Write-only latency summary.
    pub writes: LatencySummary,
    /// Latency of requests arriving while a GC round was in flight — the
    /// "response times during the SSD GC periods" that Fig. 11 averages.
    pub during_gc: LatencySummary,
    /// Response-time CDF over all requests (Fig. 12).
    pub cdf: Cdf,

    /// GC counters (Figs. 9, 10, 13).
    pub gc: GcStats,
    /// Fingerprint index traffic (dedup hits, probes).
    pub index: IndexStats,
    /// Fig. 6 buckets: invalidations by peak refcount {1,2,3,>3}.
    pub invalidation_by_refcount: [u64; 4],

    /// Host pages written (user write traffic in pages).
    pub host_pages_written: u64,
    /// Flash page programs serving the foreground (excludes GC migration).
    pub user_programs: u64,
    /// All flash page programs (foreground + migration).
    pub total_programs: u64,
    /// All flash block erases (foreground GC; equals `gc.blocks_erased`).
    pub total_erases: u64,
    /// Reads of unmapped LPNs (served from the controller).
    pub read_misses: u64,
    /// Trim requests processed.
    pub trims: u64,
    /// Trim-request latency summary (metadata-only: a flat `trim_ns`
    /// controller charge, never die time).
    pub trim_lat: LatencySummary,
    /// Whether this run honored trim hints (`SsdConfig::honor_trim`). A
    /// `false` here marks the trim-blind arm of a sensitivity study.
    pub honor_trim: bool,
    /// Pages invalidated in place by host trims (the device-level count;
    /// a trim of a *shared* deduplicated page only drops a reference and
    /// is counted in `trim_ref_releases` instead until the count hits 0).
    pub trim_invalidated_pages: u64,
    /// Reference-count drops attributed to trims of tracked (deduplicated)
    /// pages — the refcount-decay signal that lets a trimmed shared page
    /// fall back from cold to hot placement on its next GC migration.
    pub trim_ref_releases: u64,

    /// Wear: (min, max, mean) erase count across blocks.
    pub wear: (u32, u32, f64),
    /// Standard deviation of per-block erase counts (wear evenness).
    pub wear_stddev: f64,
    /// Die utilization over the run: (min, max, mean) busy fraction across
    /// dies — how well the workload + FTL exploited device parallelism.
    pub die_utilization: (f64, f64, f64),
    /// Fault-injection counters ([`FaultReport::is_quiet`] on fault-free
    /// runs, and then omitted from JSON).
    pub faults: FaultReport,
    /// Sim time of the first bad-block retirement, if any — the
    /// "time-to-first-retirement" device-lifetime proxy the fleet layer
    /// aggregates. Retirements only happen on injected erase failures, so
    /// this rides the fault section's pay-as-you-go gating: `None` on
    /// fault-free runs and then absent from JSON.
    pub first_retirement_ns: Option<Nanos>,
    /// The most recent power-loss recovery pass, if one ran.
    pub recovery: Option<RecoveryReport>,
    /// Tracing summary (event/drop counts, gauge windows). `None` unless
    /// tracing was enabled, and then omitted from JSON — the same
    /// pay-as-you-go gating as the fault section.
    pub telemetry: Option<TelemetryReport>,
    /// When the last request completed.
    pub end_ns: Nanos,
}

impl RunReport {
    /// The Fig. 11 metric: mean response time during GC periods, falling
    /// back to the overall mean when the run never triggered GC.
    pub fn gc_period_mean_ns(&self) -> f64 {
        if self.during_gc.count > 0 {
            self.during_gc.mean_ns
        } else {
            self.all.mean_ns
        }
    }

    /// Write amplification factor: total flash programs per host page
    /// written. Below 1.0 is possible with dedup (redundant host pages are
    /// never programmed).
    pub fn waf(&self) -> f64 {
        if self.host_pages_written == 0 {
            0.0
        } else {
            self.total_programs as f64 / self.host_pages_written as f64
        }
    }

    /// Fraction of fingerprint-index lookups that found an existing copy
    /// — the per-device dedup effectiveness number the fleet report rolls
    /// up per tenant mix. 0.0 when the scheme never consulted the index.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.index.lookups == 0 {
            0.0
        } else {
            self.index.hits as f64 / self.index.lookups as f64
        }
    }
}

impl ToJson for RunReport {
    /// Serialize every counter and distribution of the run. The rendering
    /// is deterministic (stable key order, exact integers), so two reports
    /// are byte-identical iff the runs were — which is what the
    /// determinism regression test asserts across worker counts.
    // `IndexStats` is foreign (orphan rule) and `GcStats` is inlined beside
    // it, so the whole schema and its key order read in one place.
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = Vec::from([
            ("scheme", Json::Str(self.scheme.clone())),
            ("victim", Json::Str(self.victim.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("all", self.all.to_json()),
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("during_gc", self.during_gc.to_json()),
            ("cdf", self.cdf.to_json()),
            (
                "gc",
                Json::obj([
                    ("invocations", Json::U64(self.gc.invocations)),
                    ("blocks_erased", Json::U64(self.gc.blocks_erased)),
                    ("pages_migrated", Json::U64(self.gc.pages_migrated)),
                    ("pages_scanned", Json::U64(self.gc.pages_scanned)),
                    ("dedup_hits", Json::U64(self.gc.dedup_hits)),
                    ("promotions", Json::U64(self.gc.promotions)),
                    ("demotions", Json::U64(self.gc.demotions)),
                    ("trim_reclaimed_pages", Json::U64(self.gc.trim_reclaimed_pages)),
                    ("busy_ns", Json::U64(self.gc.busy_ns)),
                ]),
            ),
            (
                "index",
                Json::obj([
                    ("lookups", Json::U64(self.index.lookups)),
                    ("hits", Json::U64(self.index.hits)),
                    ("inserts", Json::U64(self.index.inserts)),
                    ("removals", Json::U64(self.index.removals)),
                ]),
            ),
            (
                "invalidation_by_refcount",
                Json::arr(self.invalidation_by_refcount),
            ),
            ("host_pages_written", Json::U64(self.host_pages_written)),
            ("user_programs", Json::U64(self.user_programs)),
            ("total_programs", Json::U64(self.total_programs)),
            ("total_erases", Json::U64(self.total_erases)),
            ("read_misses", Json::U64(self.read_misses)),
            ("trims", Json::U64(self.trims)),
            ("trim_lat", self.trim_lat.to_json()),
            ("honor_trim", Json::Bool(self.honor_trim)),
            ("trim_invalidated_pages", Json::U64(self.trim_invalidated_pages)),
            ("trim_ref_releases", Json::U64(self.trim_ref_releases)),
            (
                "wear",
                Json::obj([
                    ("min", Json::U64(u64::from(self.wear.0))),
                    ("max", Json::U64(u64::from(self.wear.1))),
                    ("mean", Json::F64(self.wear.2)),
                    ("stddev", Json::F64(self.wear_stddev)),
                ]),
            ),
            (
                "die_utilization",
                Json::obj([
                    ("min", Json::F64(self.die_utilization.0)),
                    ("max", Json::F64(self.die_utilization.1)),
                    ("mean", Json::F64(self.die_utilization.2)),
                ]),
            ),
            ("end_ns", Json::U64(self.end_ns)),
            ("waf", Json::F64(self.waf())),
        ]);
        // Only fault-touched runs carry the fault section, so fault-free
        // JSON stays byte-identical to pre-fault-subsystem output.
        if !self.faults.is_quiet() || self.recovery.is_some() {
            fields.push(("faults", self.faults.to_json()));
            if let Some(ns) = self.first_retirement_ns {
                fields.push(("first_retirement_ns", Json::U64(ns)));
            }
            if let Some(r) = &self.recovery {
                fields.push(("recovery", r.to_json()));
            }
        }
        // Same gating for telemetry: only traced runs carry the section.
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry", t.to_json()));
        }
        Json::obj(fields)
    }
}

/// Additive traffic counters across a set of runs — the fleet layer's
/// per-tenant and fleet-wide rollup. Ratios (WAF, dedup hit rate) are
/// recomputed from the summed counters, *not* averaged across runs, so a
/// device writing 10x the pages weighs 10x in the aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Runs folded in.
    pub runs: u64,
    /// Host pages written across runs.
    pub host_pages_written: u64,
    /// Foreground flash programs across runs.
    pub user_programs: u64,
    /// All flash programs (foreground + GC migration) across runs.
    pub total_programs: u64,
    /// Block erases across runs.
    pub total_erases: u64,
    /// Fingerprint-index lookups across runs.
    pub dedup_lookups: u64,
    /// Fingerprint-index hits across runs.
    pub dedup_hits: u64,
    /// GC invocations across runs.
    pub gc_invocations: u64,
    /// GC page migrations across runs.
    pub pages_migrated: u64,
}

impl TrafficTotals {
    /// Fold one run's counters in.
    pub fn add(&mut self, r: &RunReport) {
        self.runs += 1;
        self.host_pages_written += r.host_pages_written;
        self.user_programs += r.user_programs;
        self.total_programs += r.total_programs;
        self.total_erases += r.total_erases;
        self.dedup_lookups += r.index.lookups;
        self.dedup_hits += r.index.hits;
        self.gc_invocations += r.gc.invocations;
        self.pages_migrated += r.gc.pages_migrated;
    }

    /// Fold another set of totals in: every counter sums, runs included.
    pub fn merge(&mut self, o: &TrafficTotals) {
        self.runs += o.runs;
        self.host_pages_written += o.host_pages_written;
        self.user_programs += o.user_programs;
        self.total_programs += o.total_programs;
        self.total_erases += o.total_erases;
        self.dedup_lookups += o.dedup_lookups;
        self.dedup_hits += o.dedup_hits;
        self.gc_invocations += o.gc_invocations;
        self.pages_migrated += o.pages_migrated;
    }

    /// Aggregate write amplification: summed programs per summed host page.
    pub fn waf(&self) -> f64 {
        if self.host_pages_written == 0 {
            0.0
        } else {
            self.total_programs as f64 / self.host_pages_written as f64
        }
    }

    /// Aggregate dedup hit rate: summed hits per summed lookup.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_lookups == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.dedup_lookups as f64
        }
    }
}

impl ToJson for TrafficTotals {
    fn to_json(&self) -> Json {
        Json::obj([
            ("runs", Json::U64(self.runs)),
            ("host_pages_written", Json::U64(self.host_pages_written)),
            ("user_programs", Json::U64(self.user_programs)),
            ("total_programs", Json::U64(self.total_programs)),
            ("total_erases", Json::U64(self.total_erases)),
            ("dedup_lookups", Json::U64(self.dedup_lookups)),
            ("dedup_hits", Json::U64(self.dedup_hits)),
            ("gc_invocations", Json::U64(self.gc_invocations)),
            ("pages_migrated", Json::U64(self.pages_migrated)),
            ("waf", Json::F64(self.waf())),
            ("dedup_hit_rate", Json::F64(self.dedup_hit_rate())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the report's JSON has `key` at its top level.
    fn has_key(r: &RunReport, key: &str) -> bool {
        match r.to_json() {
            Json::Obj(fields) => fields.iter().any(|(k, _)| k == key),
            other => panic!("a report is a JSON object, not {other:?}"),
        }
    }

    #[test]
    fn latency_summary_from_histogram() {
        let mut h = Histogram::new();
        for v in [10_000u64, 20_000, 30_000, 40_000, 1_000_000] {
            h.record(v);
        }
        let s = LatencySummary::of(&h);
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p50_ns >= 20_000 && s.p50_ns <= 32_000);
    }

    #[test]
    fn waf_handles_empty_run() {
        let mut h = Histogram::new();
        h.record(1);
        let r = RunReport {
            scheme: "Baseline".into(),
            victim: "Greedy".into(),
            workload: "t".into(),
            all: LatencySummary::of(&h),
            reads: LatencySummary::of(&h),
            writes: LatencySummary::of(&h),
            during_gc: LatencySummary::of(&Histogram::new()),
            cdf: Cdf::from_histogram(&h),
            gc: GcStats::default(),
            index: IndexStats::default(),
            invalidation_by_refcount: [0; 4],
            host_pages_written: 0,
            user_programs: 0,
            total_programs: 0,
            total_erases: 0,
            read_misses: 0,
            trims: 0,
            trim_lat: LatencySummary::of(&Histogram::new()),
            honor_trim: true,
            trim_invalidated_pages: 0,
            trim_ref_releases: 0,
            wear: (0, 0, 0.0),
            wear_stddev: 0.0,
            die_utilization: (0.0, 0.0, 0.0),
            faults: FaultReport::default(),
            first_retirement_ns: None,
            recovery: None,
            telemetry: None,
            end_ns: 0,
        };
        assert_eq!(r.waf(), 0.0);
        assert_eq!(r.dedup_hit_rate(), 0.0);
        // Quiet faults stay out of the JSON entirely.
        assert!(!has_key(&r, "faults"));
        let mut noisy = r.clone();
        noisy.faults.program_failures = 1;
        assert!(has_key(&noisy, "faults"));
        // First-retirement timestamp rides the fault section's gating.
        assert!(!has_key(&noisy, "first_retirement_ns"));
        noisy.faults.erase_failures = 1;
        noisy.faults.blocks_retired = 1;
        noisy.first_retirement_ns = Some(5_000_000);
        assert!(noisy.to_json().render().contains("\"first_retirement_ns\":5000000"));
        // Untraced runs carry no telemetry section; traced runs do.
        assert!(!has_key(&r, "telemetry"));
        let mut traced = r.clone();
        traced.telemetry = Some(TelemetryReport {
            events_recorded: 4,
            dropped_events: 0,
            sample: 1,
            gauge_window_ns: 1_000,
            gauges: Vec::new(),
        });
        assert!(has_key(&traced, "telemetry"));

        // TrafficTotals recomputes ratios from summed counters.
        let mut a = r.clone();
        a.host_pages_written = 100;
        a.total_programs = 300;
        a.index.lookups = 100;
        a.index.hits = 10;
        let mut b = r.clone();
        b.host_pages_written = 900;
        b.total_programs = 900;
        b.index.lookups = 900;
        b.index.hits = 890;
        let mut tot = TrafficTotals::default();
        tot.add(&a);
        tot.add(&b);
        assert_eq!(tot.runs, 2);
        assert!((tot.waf() - 1.2).abs() < 1e-12);
        assert!((tot.dedup_hit_rate() - 0.9).abs() < 1e-12);
        assert!(tot.to_json().render().contains("\"dedup_hits\":900"));
        // Merging totals is the same sum as adding their runs one by one.
        let (mut left, mut right) = (TrafficTotals::default(), TrafficTotals::default());
        left.add(&a);
        right.add(&b);
        left.merge(&right);
        assert_eq!(left, tot);
    }
}
