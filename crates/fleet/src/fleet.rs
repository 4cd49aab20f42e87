//! The fleet fan-out: group identical devices into cells, simulate each
//! cell once on the dynamic scheduler, aggregate the device results.

use cagc_core::{Scheme, SsdConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_harness::pool::map_ordered_dynamic_chunked;
use cagc_trace::TraceConfig;

use crate::device::{simulate_device, DeviceReport, DeviceSpec, TenantTrace};
use crate::library::{TraceLibrary, Variant};
use crate::mix::TenantMix;
use crate::report::{upsert, FleetReport};
use crate::slo::SloConfig;

/// Everything a device's report depends on: its mix index, its seed
/// group, and its index when the fault template is armed.
type CellKey = (usize, usize, Option<usize>);

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
    /// Distinct trace variants per tenant slot (at least 1): device `d`
    /// draws from seed group `d % seed_groups`, so trace memory stays
    /// bounded by `mixes × slots × seed_groups` — never by the device
    /// count. Mix and group are a device's only inputs when the fault
    /// template is inactive, so devices `d` and `d'` are then identical
    /// exactly when `d ≡ d' (mod lcm(mixes, seed_groups))`: coprime
    /// counts give same-mix devices different streams, equal counts
    /// cycle in lockstep and give each mix one stream.
    pub seed_groups: usize,
    /// Worker threads for the fan-out (0 = machine parallelism).
    pub workers: usize,
    /// Device cells claimed per scheduler grab (at least 1). 1 maximizes
    /// balance; larger chunks amortize claiming on huge fleets.
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

    /// Check the fleet's shape, the device shape every cell builds and
    /// the trace every tenant synthesises, so a bad config fails before
    /// the fan-out, not inside a worker thread.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("empty fleet".into());
        }
        if self.mixes.is_empty() {
            return Err("no tenant mixes".into());
        }
        if let Some(mix) = self.mixes.iter().find(|m| m.tenants.is_empty()) {
            return Err(format!("tenant mix {} has no tenants", mix.name));
        }
        if self.seed_groups == 0 {
            return Err("seed_groups must be >= 1".into());
        }
        if self.chunk == 0 {
            return Err("chunk must be >= 1".into());
        }
        if let Some(slo) = &self.slo {
            if slo.window_ns == 0 {
                return Err("zero-width SLO compliance window".into());
            }
            if slo.goal_permille >= 1000 {
                let goal = slo.goal_permille;
                return Err(format!("SLO goal {goal} permille leaves no error budget"));
            }
        }
        if let Some((pairs, depth)) = self.host_queues {
            if pairs == 0 || depth == 0 {
                return Err(format!("host queue shape {pairs}x{depth} must be non-zero"));
            }
        }
        if !(self.footprint_frac > 0.0 && self.footprint_frac <= 1.0) {
            return Err(format!("footprint fraction {} outside (0, 1]", self.footprint_frac));
        }
        SsdConfig::paper(self.flash, self.scheme).validate()?;
        for mix in &self.mixes {
            let pages = tenant_pages(self, mix);
            for ts in &mix.tenants {
                let (name, rate) = (mix.name, ts.rate_factor);
                if rate.is_nan() || rate <= 0.0 {
                    return Err(format!("tenant mix {name}: rate factor {rate} must be positive"));
                }
                let synth = ts.workload.synth_config(pages, self.requests_per_tenant, self.seed);
                synth.validate().map_err(|e| format!("tenant mix {name}: {e}"))?;
            }
        }
        self.faults.validate()
    }

    /// The fleet's distinct devices, in first-appearance order: each cell
    /// lists the devices it stands for, and its first device's spec is
    /// the one simulated. A device's inputs are its mix and seed group,
    /// plus its own fault-plan seed when the fault template is active
    /// (an inactive one draws nothing), so that is the cell key: with
    /// faults armed every device is its own cell.
    pub fn cells(&self) -> Vec<Vec<u32>> {
        let armed = self.faults.is_active();
        let mut cells: Vec<(CellKey, Vec<u32>)> = Vec::new();
        for d in 0..self.devices {
            let key = (d % self.mixes.len(), d % self.seed_groups, armed.then_some(d));
            let (cell, _) = upsert(&mut cells, |(k, _)| *k == key, || (key, Vec::new()));
            cell.1.push(d as u32);
        }
        cells.into_iter().map(|(_, devices)| devices).collect()
    }
}

/// The trace variants device `d`'s tenants replay, in slot order: each
/// mix tenant's workload and rate over an even share of the fleet's
/// footprint.
fn tenant_variants(cfg: &FleetConfig, d: usize) -> impl Iterator<Item = Variant> + '_ {
    let mix = &cfg.mixes[d % cfg.mixes.len()];
    let group = (d % cfg.seed_groups) as u64;
    let logical_pages = tenant_pages(cfg, mix);
    mix.tenants.iter().enumerate().map(move |(slot, ts)| Variant {
        workload: ts.workload,
        logical_pages,
        requests: cfg.requests_per_tenant,
        // Distinct seed per (group, slot): devices in different groups
        // see different streams, while same-group devices share the
        // same Arcs.
        seed: cfg.seed.wrapping_add(group * 1009 + slot as u64 * 523),
        rate_factor: ts.rate_factor,
    })
}

/// The logical pages each tenant of `mix` addresses.
fn tenant_pages(cfg: &FleetConfig, mix: &TenantMix) -> u64 {
    (cfg.flash.logical_pages() as f64 * cfg.footprint_frac / mix.tenants.len() as f64) as u64
}

/// Build the specs of devices `ds`: intern every tenant trace in the
/// [`TraceLibrary`] and hand out shared `Arc` handles. A trace the
/// library does not hold yet is generated here, on the calling thread.
fn build_specs(
    cfg: &FleetConfig,
    lib: &mut TraceLibrary,
    ds: impl IntoIterator<Item = usize>,
) -> Vec<DeviceSpec> {
    ds.into_iter()
        .map(|d| {
            let mix = &cfg.mixes[d % cfg.mixes.len()];
            let tenants = mix
                .tenants
                .iter()
                .zip(tenant_variants(cfg, d))
                .enumerate()
                .map(|(slot, (ts, variant))| TenantTrace {
                    label: format!("{}[{slot}]", ts.workload.name()),
                    trace: lib.intern(variant),
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

/// The spec of each cell's first device, and the number of distinct
/// traces they hold. Every distinct tenant trace is synthesised once,
/// in parallel on the pool, before any spec is built.
fn cell_specs(cfg: &FleetConfig, cells: &[Vec<u32>]) -> (Vec<DeviceSpec>, usize) {
    let firsts = || cells.iter().map(|cell| cell[0] as usize);
    let mut lib = TraceLibrary::new();
    lib.synthesize(firsts().flat_map(|d| tenant_variants(cfg, d)), cfg.workers);
    let specs = build_specs(cfg, &mut lib, firsts());
    (specs, lib.distinct())
}

/// Run the whole fleet: every distinct tenant trace is synthesised once
/// on the pool; each distinct device cell ([`FleetConfig::cells`]) is
/// then simulated once from its first device's spec, scheduled over the
/// deterministic dynamic pool (small chunks claimed from a shared
/// cursor); every device then gets its cell's report under its own index,
/// in device order, and the reports are rolled up. A device's copy is the
/// report's fixed-size record: its tenant records, telemetry and SLO
/// ledgers are the cell's, shared, so a report's heap grows with cells,
/// not devices. Output is byte-identical at every worker count, and to
/// simulating every device.
///
/// # Panics
/// Panics with [`FleetConfig::validate`]'s message on a bad config —
/// checked up front so it fails here, not inside a worker thread
/// mid-fan-out.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let cells = cfg.cells();
    let (specs, distinct) = cell_specs(cfg, &cells);
    let reports = map_ordered_dynamic_chunked(&specs, cfg.workers, cfg.chunk, simulate_device);
    let mut cell_of = vec![0; cfg.devices];
    for (c, cell) in cells.iter().enumerate() {
        cell.iter().for_each(|&d| cell_of[d as usize] = c);
    }
    let devices = cell_of
        .iter()
        .enumerate()
        .map(|(d, &c)| DeviceReport { device: d as u32, ..reports[c].clone() })
        .collect();
    FleetReport::aggregate(devices, distinct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagc_workloads::Trace;
    use std::sync::Arc;

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        use cagc_harness::ToJson;
        // 2 mixes x 3 seed groups: every device is its own cell, so the
        // pool has six cells to schedule.
        let mut cfg = FleetConfig { seed_groups: 3, ..FleetConfig::small_test() };
        assert_eq!(cfg.cells().len(), cfg.devices);
        let baseline = run_fleet(&cfg).to_json().render();
        // Single-cell claims, then the static split: one contiguous
        // chunk per worker, so claiming has nothing left to balance.
        let per_worker = |workers: usize| (workers, cfg.devices.div_ceil(workers));
        for (workers, chunk) in [(2, 1), (8, 1), per_worker(2), per_worker(3)] {
            cfg.workers = workers;
            cfg.chunk = chunk;
            let got = run_fleet(&cfg).to_json().render();
            assert_eq!(got, baseline, "workers={workers} chunk={chunk} changed the fleet report");
        }
    }

    /// A fault-armed fleet whose cells are its devices while its traces
    /// are shared between them: its traces are synthesised on the pool,
    /// each once, yet the report is the same at every worker count and
    /// under the static split, and same-variant tenants share one `Arc`.
    #[test]
    fn armed_cells_share_pool_synthesised_traces_at_every_worker_count() {
        // A never-reached crash arms the template without a fault.
        let faults = FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() };
        let mut cfg = FleetConfig { devices: 8, faults, ..FleetConfig::small_test() };
        let cells = cfg.cells();
        assert_eq!(cells.len(), cfg.devices, "every armed device is its own cell");
        let (_, serial) = every_device_spec(&cfg);
        assert!(serial < cfg.devices * 3, "cells must share traces ({serial} distinct)");

        let baseline = rendered(&run_fleet(&cfg));
        let per_worker = |workers: usize| (workers, cfg.devices.div_ceil(workers));
        for (workers, chunk) in [(2, 1), (8, 1), per_worker(2), per_worker(3)] {
            cfg.workers = workers;
            cfg.chunk = chunk;
            let report = run_fleet(&cfg);
            assert_eq!(report.distinct_traces, serial, "workers={workers}: distinct traces");
            assert_eq!(rendered(&report), baseline, "workers={workers} chunk={chunk}");

            let (specs, distinct) = cell_specs(&cfg, &cells);
            assert_eq!(distinct, serial);
            let tenants: Vec<(Variant, &Arc<Trace>)> = specs
                .iter()
                .flat_map(|s| tenant_variants(&cfg, s.id as usize).zip(&s.tenants))
                .map(|(v, t)| (v, &t.trace))
                .collect();
            for (va, a) in &tenants {
                for (vb, b) in &tenants {
                    assert_eq!(Arc::ptr_eq(a, b), va.key() == vb.key(), "{va:?} and {vb:?}");
                }
            }
        }
    }

    /// Every device's spec, built one by one with no cell sharing, and
    /// the number of distinct traces they hold.
    fn every_device_spec(cfg: &FleetConfig) -> (Vec<DeviceSpec>, usize) {
        let mut lib = TraceLibrary::new();
        let specs = build_specs(cfg, &mut lib, 0..cfg.devices);
        (specs, lib.distinct())
    }

    /// The fleet without cells: `simulate_device` on every device's spec,
    /// then the fold.
    fn every_device_simulated(cfg: &FleetConfig) -> FleetReport {
        let (specs, distinct) = every_device_spec(cfg);
        FleetReport::aggregate(specs.iter().map(simulate_device).collect(), distinct)
    }

    /// The JSON report and its three CSVs (an absent timeline is empty).
    fn rendered(rep: &FleetReport) -> [String; 4] {
        use cagc_harness::ToJson;
        [
            rep.to_json().render(),
            rep.device_csv(),
            rep.qos_csv(),
            rep.timeline_csv().unwrap_or_default(),
        ]
    }

    #[test]
    fn trace_memory_scales_with_mixes_not_devices() {
        let mut cfg = FleetConfig::small_test();
        let (_, small) = every_device_spec(&cfg);
        cfg.devices *= 4;
        let (specs_big, big) = every_device_spec(&cfg);
        assert_eq!(small, big, "4x devices must not generate new traces");
        // Same-group devices share the same allocation, not a copy.
        let a = &specs_big[0].tenants[0].trace;
        let b = &specs_big[cfg.mixes.len() * cfg.seed_groups].tenants[0].trace;
        assert!(Arc::ptr_eq(a, b), "same (mix, group, slot) must share one Arc");
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 { a } else { gcd(b, a % b) }
    }

    #[test]
    fn cells_are_the_distinct_mix_and_group_pairs_unless_faults_are_armed() {
        for m in 1..=4 {
            for g in 1..=5 {
                let lcm = m * g / gcd(m, g);
                for devices in 1..=25 {
                    let mut cfg = FleetConfig {
                        devices,
                        mixes: TenantMix::all()[..m].to_vec(),
                        seed_groups: g,
                        ..FleetConfig::small_test()
                    };
                    let cells = cfg.cells();
                    assert_eq!(cells.len(), devices.min(lcm), "{m} mixes x {g} groups, {devices}");
                    let mut seen: Vec<u32> = cells.concat();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..devices as u32).collect::<Vec<_>>(), "one cell each");
                    for cell in &cells {
                        let first = cell[0] as usize;
                        assert!(cell.iter().all(|&d| {
                            let d = d as usize;
                            d % m == first % m && d % g == first % g
                        }));
                    }
                    // A never-reached crash arms the template: every device
                    // has its own fault-plan seed, so its own cell.
                    cfg.faults = FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() };
                    let armed = cfg.cells();
                    assert_eq!(armed, (0..devices as u32).map(|d| vec![d]).collect::<Vec<_>>());
                }
            }
        }
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

    /// Simulating each distinct cell once renders every byte that
    /// simulating every device does: the lockstep and coprime mix/group
    /// cycles, host mode with gauges and SLO tracking, and a fault-armed
    /// fleet whose cells are its devices.
    #[test]
    fn shared_cells_render_what_every_device_simulated_renders() {
        let lockstep = FleetConfig {
            devices: 12,
            mixes: TenantMix::all(),
            seed_groups: 4,
            requests_per_tenant: 200,
            ..FleetConfig::small_test()
        };
        let coprime = FleetConfig { devices: 24, seed_groups: 3, ..lockstep.clone() };
        let observed = FleetConfig {
            host_queues: Some((2, 8)),
            telemetry: Some(TraceConfig::gauges_only(1_000_000, 1)),
            slo: Some(SloConfig::uniform(200_000, 900, 1_000_000)),
            ..FleetConfig::small_test()
        };
        let cases = [("lockstep", lockstep, 4), ("coprime", coprime, 12), ("observed", observed, 2)];
        for (name, cfg, cells) in cases.into_iter().chain([("chaos", chaos_test(), 4)]) {
            assert_eq!(cfg.cells().len(), cells, "{name}: cell count");
            let shared = rendered(&run_fleet(&cfg));
            let every = rendered(&every_device_simulated(&cfg));
            for (i, (a, b)) in shared.iter().zip(&every).enumerate() {
                assert_eq!(a, b, "{name}: artifact {i} differs from simulating every device");
            }
        }
    }

    /// Every device of a cell holds its cell's tenant records, telemetry
    /// and SLO ledgers as one shared allocation each, and the devices are
    /// those payloads' only owners: one per device of the cell, so one
    /// each in a fault-armed fleet.
    #[test]
    fn devices_of_a_cell_share_its_payloads_and_own_them_alone() {
        let observed = FleetConfig {
            devices: 10,
            telemetry: Some(TraceConfig::gauges_only(1_000_000, 1)),
            slo: Some(SloConfig::uniform(200_000, 900, 1_000_000)),
            ..FleetConfig::small_test()
        };
        let faults = FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() };
        let armed = FleetConfig { faults, ..observed.clone() };
        for cfg in [observed, armed] {
            let cells = cfg.cells();
            let rep = run_fleet(&cfg);
            for cell in &cells {
                let first = &rep.devices[cell[0] as usize];
                let (obs, slo) = (first.obs.as_ref().unwrap(), first.slo.as_ref().unwrap());
                assert_eq!(Arc::strong_count(&first.tenants), cell.len(), "cell {cell:?}");
                assert_eq!(Arc::strong_count(obs), cell.len(), "cell {cell:?}");
                assert_eq!(Arc::strong_count(slo), cell.len(), "cell {cell:?}");
                assert_eq!(Arc::strong_count(&first.mix), cell.len(), "cell {cell:?}");
                for &d in cell {
                    let dev = &rep.devices[d as usize];
                    assert_eq!(dev.device, d);
                    assert!(Arc::ptr_eq(&dev.tenants, &first.tenants), "device {d}");
                    assert!(Arc::ptr_eq(dev.obs.as_ref().unwrap(), obs), "device {d}");
                    assert!(Arc::ptr_eq(dev.slo.as_ref().unwrap(), slo), "device {d}");
                }
            }
        }
    }

    #[test]
    fn validate_names_the_first_bad_field() {
        let ok = FleetConfig::small_test();
        assert_eq!(ok.validate(), Ok(()));
        let mut no_tenants = TenantMix::balanced();
        no_tenants.tenants.clear();
        let mut stalled = TenantMix::mail_heavy();
        stalled.tenants[2].rate_factor = 0.0;
        // Built as a literal, an SLO skips `SloConfig::uniform`'s asserts.
        let slo = SloConfig::uniform(500_000, 990, 1_000_000);
        let cases = [
            (FleetConfig { devices: 0, ..ok.clone() }, "empty fleet"),
            (FleetConfig { mixes: vec![], ..ok.clone() }, "no tenant mixes"),
            (FleetConfig { mixes: vec![no_tenants], ..ok.clone() }, "has no tenants"),
            (FleetConfig { seed_groups: 0, ..ok.clone() }, "seed_groups must be >= 1"),
            (FleetConfig { chunk: 0, ..ok.clone() }, "chunk must be >= 1"),
            (
                FleetConfig { slo: Some(SloConfig { window_ns: 0, ..slo.clone() }), ..ok.clone() },
                "zero-width SLO compliance window",
            ),
            (
                FleetConfig { slo: Some(SloConfig { goal_permille: 1001, ..slo }), ..ok.clone() },
                "SLO goal 1001 permille leaves no error budget",
            ),
            (FleetConfig { host_queues: Some((0, 8)), ..ok.clone() }, "host queue shape 0x8"),
            (FleetConfig { footprint_frac: 1.5, ..ok.clone() }, "footprint fraction 1.5"),
            (
                FleetConfig { footprint_frac: 1e-9, ..ok.clone() },
                "tenant mix balanced: synthetic trace `Homes`: empty logical space",
            ),
            (
                FleetConfig { mixes: vec![stalled], ..ok.clone() },
                "tenant mix mail-heavy: rate factor 0 must be positive",
            ),
            (
                FleetConfig { flash: UllConfig { gc_watermark: -1.0, ..ok.flash }, ..ok.clone() },
                "gc_watermark",
            ),
            (
                FleetConfig {
                    faults: FaultConfig { erase_fail_prob: 2.0, ..FaultConfig::none() },
                    ..ok.clone()
                },
                "erase_fail_prob 2 outside [0, 1]",
            ),
        ];
        for (cfg, want) in cases {
            let err = cfg.validate().expect_err(want);
            assert!(err.contains(want), "`{err}` does not name `{want}`");
        }
    }

    #[test]
    #[should_panic(expected = "seed_groups must be >= 1")]
    fn run_fleet_panics_with_the_validators_message() {
        run_fleet(&FleetConfig { seed_groups: 0, ..FleetConfig::small_test() });
    }

    #[test]
    fn device_assignment_round_robins_mixes() {
        let cfg = FleetConfig::small_test();
        let rep = run_fleet(&cfg);
        assert_eq!(rep.devices.len(), cfg.devices);
        for (d, dev) in rep.devices.iter().enumerate() {
            assert_eq!(dev.device as usize, d);
            assert_eq!(*dev.mix, *cfg.mixes[d % cfg.mixes.len()].name);
        }
        assert!(rep.fleet.runs == cfg.devices as u64);
        assert!(rep.fleet.waf() > 0.0);
    }
}
