//! The fleet fan-out: compose device specs, schedule them dynamically,
//! aggregate the results.

use cagc_core::Scheme;
use cagc_flash::{FaultConfig, UllConfig};
use cagc_harness::pool::map_ordered_dynamic_chunked;
use cagc_trace::TraceConfig;

use crate::device::{simulate_device, DeviceSpec, TenantTrace};
use crate::library::TraceLibrary;
use crate::mix::TenantMix;
use crate::report::FleetReport;
use crate::slo::SloConfig;

/// Everything that determines a fleet run. Two equal configs produce
/// byte-identical [`FleetReport`]s at any worker count.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Tenant mixes; device `d` serves `mixes[d % mixes.len()]`.
    pub mixes: Vec<TenantMix>,
    /// FTL scheme every device runs.
    pub scheme: Scheme,
    /// Device shape and timing.
    pub flash: UllConfig,
    /// Timed requests generated per tenant stream.
    pub requests_per_tenant: usize,
    /// Fraction of each device's logical space the tenants share
    /// (split evenly between a mix's tenants).
    pub footprint_frac: f64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Distinct trace variants per tenant slot: device `d` draws from
    /// seed group `d % seed_groups`, so devices differ while trace
    /// memory stays bounded by `mixes × slots × seed_groups` — never by
    /// the device count.
    pub seed_groups: usize,
    /// Worker threads for the fan-out (0 = machine parallelism).
    pub workers: usize,
    /// Devices claimed per scheduler grab. 1 maximizes balance; larger
    /// chunks amortize claiming on huge fleets.
    pub chunk: usize,
    /// `Some((queue_pairs, queue_depth))` replays every device through
    /// the NVMe-style host interface (host-observed tenant latency);
    /// `None` feeds FTLs directly.
    pub host_queues: Option<(u32, u32)>,
    /// Fault-plan template applied to every device; each device gets its
    /// own plan seed derived from the template seed and the device index,
    /// so faults land independently across the fleet. An inactive
    /// template ([`FaultConfig::none`]) keeps every cell byte-identical
    /// to a fault-free fleet.
    pub faults: FaultConfig,
    /// Run every device with preemptible (sliced) GC.
    pub gc_preempt: bool,
    /// Per-device read-only floor override (`None` keeps the device
    /// default); see [`DeviceSpec::read_only_floor_blocks`].
    pub read_only_floor_blocks: Option<u32>,
    /// Arm every device's tracer with this configuration (gauge
    /// registries, plus span profiles when it records spans) and roll them
    /// up into the fleet timeline and merged profile. `None` keeps the
    /// report byte-identical to an unobserved fleet.
    pub telemetry: Option<TraceConfig>,
    /// Track per-tenant latency SLOs on every device and roll the
    /// ledgers up per (mix, tenant). `None` records nothing.
    pub slo: Option<SloConfig>,
}

impl FleetConfig {
    /// A small fleet on the tiny test device — fast enough for unit
    /// tests and the CI smoke gate.
    pub fn small_test() -> Self {
        Self {
            devices: 6,
            mixes: vec![TenantMix::balanced(), TenantMix::noisy_neighbor()],
            scheme: Scheme::Cagc,
            flash: UllConfig::tiny_for_tests(),
            requests_per_tenant: 300,
            footprint_frac: 0.90,
            seed: 7,
            seed_groups: 2,
            workers: 1,
            chunk: 1,
            host_queues: None,
            faults: FaultConfig::none(),
            gc_preempt: false,
            read_only_floor_blocks: None,
            telemetry: None,
            slo: None,
        }
    }
}

/// Build the per-device specs: intern every tenant trace in the
/// [`TraceLibrary`] and hand out shared `Arc` handles. Runs serially —
/// trace generation is deterministic and its order must not depend on
/// scheduling.
fn build_specs(cfg: &FleetConfig, lib: &mut TraceLibrary) -> Vec<DeviceSpec> {
    let logical = cfg.flash.logical_pages();
    (0..cfg.devices)
        .map(|d| {
            let mix = &cfg.mixes[d % cfg.mixes.len()];
            let group = (d % cfg.seed_groups.max(1)) as u64;
            let per_tenant_pages =
                (logical as f64 * cfg.footprint_frac / mix.tenants.len() as f64) as u64;
            let tenants = mix
                .tenants
                .iter()
                .enumerate()
                .map(|(slot, ts)| TenantTrace {
                    label: format!("{}[{slot}]", ts.workload.name()),
                    trace: lib.get(
                        ts.workload,
                        per_tenant_pages,
                        cfg.requests_per_tenant,
                        // Distinct seed per (group, slot): devices in
                        // different groups see different streams, while
                        // same-group devices share the same Arcs.
                        cfg.seed.wrapping_add(group * 1009 + slot as u64 * 523),
                        ts.rate_factor,
                    ),
                })
                .collect();
            // Derive an independent fault-plan seed per device: the
            // template decides *what* can fail, the device index decides
            // *where* the dice land. Inactive templates draw nothing, so
            // the derivation cannot perturb fault-free fleets.
            let mut faults = cfg.faults.clone();
            faults.seed = faults.seed.wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            DeviceSpec {
                id: d as u32,
                mix_name: mix.name.to_string(),
                scheme: cfg.scheme,
                flash: cfg.flash,
                tenants,
                host_queues: cfg.host_queues,
                faults,
                gc_preempt: cfg.gc_preempt,
                read_only_floor_blocks: cfg.read_only_floor_blocks,
                telemetry: cfg.telemetry.clone(),
                slo: cfg.slo.clone(),
            }
        })
        .collect()
}

/// Run the whole fleet: every device cell is a pure function of its
/// spec, scheduled over the deterministic dynamic pool (small chunks
/// claimed from a shared cursor), results collected in device order and
/// rolled up. Output is byte-identical at every worker count.
///
/// # Panics
/// Panics on an empty fleet, empty mix list, a footprint outside
/// `(0, 1]`, or a zero-sized host queue shape — checked up front so a
/// bad config fails here with a clear message, not inside a worker
/// thread mid-fan-out.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    assert!(cfg.devices > 0, "empty fleet");
    assert!(!cfg.mixes.is_empty(), "no tenant mixes");
    if let Some((pairs, depth)) = cfg.host_queues {
        assert!(pairs > 0 && depth > 0, "host queue shape {pairs}x{depth} must be non-zero");
    }
    assert!(
        cfg.footprint_frac > 0.0 && cfg.footprint_frac <= 1.0,
        "footprint fraction {} outside (0, 1]",
        cfg.footprint_frac
    );
    let mut lib = TraceLibrary::new();
    let specs = build_specs(cfg, &mut lib);
    let reports =
        map_ordered_dynamic_chunked(&specs, cfg.workers, cfg.chunk.max(1), simulate_device);
    FleetReport::aggregate(reports, lib.distinct())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        use cagc_harness::ToJson;
        let mut cfg = FleetConfig::small_test();
        let baseline = run_fleet(&cfg).to_json().render();
        // Single-device claims, then the static split: one contiguous
        // chunk per worker, so claiming has nothing left to balance.
        let per_worker = |workers: usize| (workers, cfg.devices.div_ceil(workers));
        for (workers, chunk) in [(2, 1), (8, 1), per_worker(2), per_worker(3)] {
            cfg.workers = workers;
            cfg.chunk = chunk;
            let got = run_fleet(&cfg).to_json().render();
            assert_eq!(got, baseline, "workers={workers} chunk={chunk} changed the fleet report");
        }
    }

    #[test]
    fn trace_memory_scales_with_mixes_not_devices() {
        let mut cfg = FleetConfig::small_test();
        let mut lib_small = TraceLibrary::new();
        let _ = build_specs(&cfg, &mut lib_small);
        cfg.devices *= 4;
        let mut lib_big = TraceLibrary::new();
        let specs_big = build_specs(&cfg, &mut lib_big);
        assert_eq!(
            lib_small.distinct(),
            lib_big.distinct(),
            "4x devices must not generate new traces"
        );
        // Same-group devices share the same allocation, not a copy.
        let a = &specs_big[0].tenants[0].trace;
        let b = &specs_big[cfg.mixes.len() * cfg.seed_groups].tenants[0].trace;
        assert!(Arc::ptr_eq(a, b), "same (mix, group, slot) must share one Arc");
    }

    /// A chaos fleet on a deliberately tiny 32-block device: heavy erase
    /// failures with the read-only floor spanning the whole device, so
    /// the first retirement degrades a cell within a few hundred
    /// requests.
    fn chaos_test() -> FleetConfig {
        FleetConfig {
            devices: 4,
            flash: UllConfig {
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
            },
            requests_per_tenant: 400,
            faults: FaultConfig {
                // Tuned so the per-device derived seeds leave at least
                // one device of the four fault-free (a survivor for the
                // rollup assertions) while the rest degrade.
                erase_fail_prob: 0.002,
                read_ecc_prob: 0.02,
                unrecoverable_prob: 0.3,
                seed: 99,
                ..FaultConfig::none()
            },
            read_only_floor_blocks: Some(32),
            ..FleetConfig::small_test()
        }
    }

    #[test]
    fn faulty_fleet_degrades_gracefully_with_attribution() {
        let rep = run_fleet(&chaos_test());
        assert!(
            rep.degraded_devices >= 1,
            "chaos plan must degrade at least one device, got {}",
            rep.degraded_devices
        );
        assert!(rep.degraded_devices < rep.devices.len() as u64, "some devices must survive");
        assert!(rep.failed_ops > 0, "degraded devices must fail tenant ops");
        assert_eq!(
            rep.failed_ops,
            rep.devices.iter().map(|d| d.failed_ops).sum::<u64>(),
            "fleet failed-op count is the sum of its devices'"
        );
        assert!(rep.first_degradation_ns.is_some());
        // Survivor rollups exclude read-only devices.
        assert!(rep.survivor_totals.runs == rep.fleet.runs - rep.degraded_devices);
        assert!(rep.survivor_totals.runs > 0);
        assert!(rep.survivor_totals.host_pages_written < rep.fleet.host_pages_written);
        // Degraded devices keep their tenant attribution.
        let degraded = rep.devices.iter().find(|d| d.read_only).unwrap();
        assert_eq!(
            degraded.failed_ops,
            degraded.tenants.iter().map(|t| t.failed_ops).sum::<u64>()
        );
    }

    #[test]
    fn faulty_fleet_is_byte_identical_across_worker_counts() {
        use cagc_harness::ToJson;
        let mut cfg = chaos_test();
        let baseline = run_fleet(&cfg).to_json().render();
        assert!(baseline.contains("degradation") || baseline.contains("degraded_devices"));
        for workers in [2usize, 5] {
            cfg.workers = workers;
            let got = run_fleet(&cfg).to_json().render();
            assert_eq!(got, baseline, "workers={workers} changed the chaos fleet report");
        }
    }

    /// A fully-observed fleet (span-recording telemetry + SLO tracking)
    /// must stay byte-identical at every worker count: the timeline CSV,
    /// the merged profile, and the SLO rollups are pure folds in device
    /// order.
    #[test]
    fn observed_fleet_is_byte_identical_across_worker_counts() {
        use cagc_harness::ToJson;
        let mut cfg = FleetConfig::small_test();
        cfg.telemetry =
            Some(TraceConfig { counter_window_ns: 1_000_000, sample: 1, ..TraceConfig::default() });
        cfg.slo = Some(SloConfig::uniform(200_000, 900, 1_000_000));
        let base = run_fleet(&cfg);
        let base_json = base.to_json().render();
        let base_csv = base.timeline_csv().expect("observed fleet must emit a timeline");
        let base_flame = base.profile.as_ref().unwrap().flamegraph();
        assert!(base_json.contains("\"observability\"") && base_json.contains("\"slo\""));
        assert!(base_csv.contains("dev000/") && base_csv.contains("fleet/"));
        assert!(base_csv.contains("slo/"));
        for workers in [2usize, 5] {
            cfg.workers = workers;
            let got = run_fleet(&cfg);
            assert_eq!(got.to_json().render(), base_json, "workers={workers} changed the report");
            assert_eq!(got.timeline_csv().unwrap(), base_csv, "workers={workers} changed the CSV");
            assert_eq!(
                got.profile.as_ref().unwrap().flamegraph(),
                base_flame,
                "workers={workers} changed the merged profile"
            );
        }
    }

    /// Telemetry and SLO tracking must not perturb the simulation: the
    /// core rollups of an observed fleet match the unobserved one, and
    /// an unobserved fleet emits no observability artifacts at all.
    #[test]
    fn observability_leaves_core_rollups_untouched() {
        use cagc_harness::ToJson;
        let cfg = FleetConfig::small_test();
        let plain = run_fleet(&cfg);
        let mut ocfg = cfg.clone();
        ocfg.telemetry = Some(TraceConfig::gauges_only(1_000_000, 1));
        ocfg.slo = Some(SloConfig::uniform(200_000, 900, 1_000_000));
        let observed = run_fleet(&ocfg);
        assert_eq!(plain.fleet.total_programs, observed.fleet.total_programs);
        assert_eq!(plain.fleet.total_erases, observed.fleet.total_erases);
        assert_eq!(plain.by_tenant.len(), observed.by_tenant.len());
        for (a, b) in plain.by_tenant.iter().zip(&observed.by_tenant) {
            let (a, b) = (&a.report, &b.report);
            assert_eq!(a.lat().p99_ns, b.lat().p99_ns, "SLO tracking changed {}", a.tenant);
        }
        // Pay-as-you-go: the unobserved report has no trace of the plane.
        assert!(plain.timeline.is_none() && plain.profile.is_none() && plain.slo.is_none());
        assert!(plain.timeline_csv().is_none());
        let j = plain.to_json().render();
        assert!(!j.contains("\"observability\"") && !j.contains("\"slo\""));
        // …while the observed one carries the rollups.
        assert!(observed.timeline.is_some());
        assert!(observed.slo.as_ref().is_some_and(|s| !s.is_empty()));
        let j = observed.to_json().render();
        assert!(j.contains("\"observability\"") && j.contains("\"slo\""));
    }

    #[test]
    fn device_assignment_round_robins_mixes() {
        let cfg = FleetConfig::small_test();
        let rep = run_fleet(&cfg);
        assert_eq!(rep.devices.len(), cfg.devices);
        for (d, dev) in rep.devices.iter().enumerate() {
            assert_eq!(dev.device as usize, d);
            assert_eq!(dev.mix, cfg.mixes[d % cfg.mixes.len()].name);
        }
        assert!(rep.fleet.runs == cfg.devices as u64);
        assert!(rep.fleet.waf() > 0.0);
    }
}
