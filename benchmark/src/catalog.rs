//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, and per-layer metrics grouped by layer (= crate).
//! `../BENCHMARK.json` must say the same (tested below).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_grid",
        why: "what `repro fig9 fig10 fig11` does (3 traces x 3 schemes on the pool, figures, JSON): the traffic users run; every layer below host works",
    },
    Workload {
        name: "gc_write_heavy",
        why: "one thread, Web-vm at footprint 0.95: GC is most of the wall, host/fleet/trace/pool idle; the low-noise place to show a GC-path gain",
    },
    Workload {
        name: "read_mostly",
        why: "same device, 98% reads at footprint 0.60: dispatch, flash read, timelines and histograms dominate, GC is idle; a GC gain must show no change here",
    },
    Workload {
        name: "host_chaos_traced",
        why: "NVMe closed loop with faults, sliced GC, retries and full tracing plus trace analytics: the slow paths the other workloads bypass",
    },
    Workload {
        name: "fleet_fanout",
        why: "96 tiny multi-tenant devices over the dynamic scheduler: spec building, synthesis, Ssd::new, aggregation and CSVs carry weight one big replay hides",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Host-time metrics are medians over a run's timed iterations. `sim_*`
/// metrics are simulated-device results: they repeat exactly for a seed
/// and this benchmark fails a run in which they differ between
/// iterations. Their bounds here are loose only because the driver's
/// spread check runs across seeds; `compare --strict` demands they be
/// bit-identical at equal seed.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("req_per_s", "req/s", Better::Higher, 0.25),
    e2e("ns_per_flash_op", "ns/op", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("sim_read_p99_us", "us", Better::Lower, 0.25),
    e2e("sim_gc_mean_us", "us", Better::Lower, 0.25),
    e2e("sim_waf", "ratio", Better::Lower, 0.05),
    e2e("sim_blocks_erased", "count", Better::Lower, 0.15),
    e2e("sim_pages_migrated", "count", Better::Lower, 0.25),
];

/// Whether an end-to-end metric is a simulated-device result or a count
/// (exact for a seed) rather than a host-time measurement.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim_")
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by layer. A traced run reports all of
/// them; one that does not apply to the workload reads 0.
pub const PER_LAYER: [PerLayer; 100] = [
    // workloads
    lo("workloads.synth_ms", "ms"),
    lo("workloads.synth_ns_per_req", "ns/req"),
    lo("workloads.parse_native_ns_per_req", "ns/req"),
    lo("workloads.interleave_ns_per_req", "ns/req"),
    // core
    lo("core.construct_ms", "ms"),
    lo("core.read_ns_per_req", "ns/req"),
    lo("core.write_ns_per_req", "ns/req"),
    lo("core.trim_ns_per_req", "ns/req"),
    lo("core.gc_write_ns_per_req", "ns/req"),
    lo("core.gc_ns_per_round", "ns/round"),
    lo("core.gc_wall_share", "ratio"),
    lo("core.report_ms", "ms"),
    lo("core.requests", "count"),
    lo("core.reads", "count"),
    lo("core.writes", "count"),
    lo("core.trims", "count"),
    lo("core.gc_rounds", "count"),
    lo("core.program_retries", "count"),
    lo("core.read_retries", "count"),
    // flash
    lo("flash.fault_arm_x", "x"),
    lo("flash.reads", "count"),
    lo("flash.programs", "count"),
    lo("flash.erases", "count"),
    lo("flash.program_failures", "count"),
    lo("flash.erase_failures", "count"),
    lo("flash.read_ecc_errors", "count"),
    lo("flash.blocks_retired", "count"),
    lo("flash.program_ns", "ns/op"),
    lo("flash.read_ns", "ns/op"),
    lo("flash.invalidate_ns", "ns/op"),
    lo("flash.erase_ns", "ns/op"),
    lo("flash.greedy_victim_ns", "ns/op"),
    // ftl
    lo("ftl.pages_migrated", "count"),
    lo("ftl.pages_scanned", "count"),
    lo("ftl.migrated_per_erase", "ratio"),
    lo("ftl.map_set_get_ns", "ns/op"),
    lo("ftl.rmap_add_remove_ns", "ns/op"),
    lo("ftl.rmap_relocate_ns", "ns/op"),
    lo("ftl.alloc_page_ns", "ns/op"),
    lo("ftl.victim_greedy_ns_per_block", "ns/block"),
    lo("ftl.victim_costbenefit_ns_per_block", "ns/block"),
    // dedup
    lo("dedup.cold_penalty_ms", "ms"),
    lo("dedup.lookups", "count"),
    hi("dedup.hits", "count"),
    hi("dedup.hit_rate", "ratio"),
    hi("dedup.gc_dedup_hits", "count"),
    lo("dedup.sha1_page_ns", "ns/op"),
    lo("dedup.fp_uncached_ns", "ns/op"),
    lo("dedup.fp_cached_ns", "ns/op"),
    lo("dedup.index_hit_ns", "ns/op"),
    lo("dedup.index_miss_ns", "ns/op"),
    lo("dedup.index_insert_release_ns", "ns/op"),
    // sim
    lo("sim.timeline_reserve_ns", "ns/op"),
    lo("sim.event_push_pop_ns", "ns/op"),
    // metrics
    lo("metrics.hist_record_ns", "ns/op"),
    lo("metrics.quantiles_us", "us"),
    lo("metrics.cdf_us", "us"),
    // host
    lo("host.replay_ms", "ms"),
    lo("host.overhead_ns_per_cmd", "ns/cmd"),
    lo("host.doorbells", "count"),
    lo("host.irqs", "count"),
    lo("host.pump_slices", "count"),
    lo("host.retries", "count"),
    lo("host.timeouts", "count"),
    lo("host.peak_occupancy", "count"),
    // error completions of the *simulated* device that reached the host
    lo("host.error_completions", "count"),
    lo("host.failed_op_share", "ratio"),
    // trace
    lo("trace.record_x", "x"),
    lo("trace.both_x", "x"),
    lo("trace.profile_ms", "ms"),
    lo("trace.anatomy_ms", "ms"),
    lo("trace.export_ms", "ms"),
    hi("trace.export_mb_per_s", "MB/s"),
    lo("trace.events", "count"),
    lo("trace.dropped_events", "count"),
    lo("trace.span_enabled_ns", "ns/op"),
    lo("trace.span_disabled_ns", "ns/op"),
    // fleet
    lo("fleet.specs_ms", "ms"),
    lo("fleet.device_ms_p50", "ms"),
    lo("fleet.device_ms_max", "ms"),
    lo("fleet.aggregate_ms", "ms"),
    lo("fleet.csv_ms", "ms"),
    hi("fleet.pool_eff", "ratio"),
    lo("fleet.devices", "count"),
    lo("fleet.distinct_traces", "count"),
    // harness
    hi("harness.pool_eff", "ratio"),
    lo("harness.json_render_ms", "ms"),
    lo("harness.pool_dispatch_us", "us"),
    hi("harness.json_parse_mb_per_s", "MB/s"),
    // bench
    lo("bench.figures_ms", "ms"),
    lo("bench.trace_overhead_pct", "%"),
    hi("bench.machine_speed_x", "x"),
    // attribution: sum(count x probe ns) / wall, direct workloads only
    lo("est.flash_share", "ratio"),
    lo("est.ftl_share", "ratio"),
    lo("est.dedup_share", "ratio"),
    lo("est.sim_share", "ratio"),
    lo("est.metrics_share", "ratio"),
    lo("est.unattributed_share", "ratio"),
    // accuracy: never a speed figure; 0 = no reference (unvalidated)
    lo("accuracy.paper_err_pp", "pp"),
    lo("accuracy.waf_model_err_pct", "%"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonx;
    use cagc_harness::Json;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, max, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` at the repo root is what the driver reads; this
    /// table is what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_this_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let j = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = jsonx::entries(&j).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            jsonx::get(&j, "paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
        assert_eq!(
            jsonx::num(&j, "run_seconds"),
            Some(crate::RUN_SECONDS as f64)
        );

        let list = |key: &str| match jsonx::get(&j, key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(jsonx::text(got, "name"), Some(want.name));
            assert_eq!(jsonx::text(got, "why"), Some(want.why));
            assert_eq!(jsonx::entries(got).len(), 2);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(jsonx::text(got, "name"), Some(want.name));
            assert_eq!(jsonx::text(got, "unit"), Some(want.unit), "{}", want.name);
            assert_eq!(
                jsonx::text(got, "better"),
                Some(want.better.as_str()),
                "{}",
                want.name
            );
            assert_eq!(jsonx::num(got, "bound"), Some(want.bound), "{}", want.name);
            assert_eq!(jsonx::entries(got).len(), 4);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(jsonx::text(got, "name"), Some(want.name));
            assert_eq!(jsonx::text(got, "unit"), Some(want.unit), "{}", want.name);
            assert_eq!(
                jsonx::text(got, "better"),
                Some(want.better.as_str()),
                "{}",
                want.name
            );
            assert_eq!(jsonx::entries(got).len(), 3);
        }
    }
}
