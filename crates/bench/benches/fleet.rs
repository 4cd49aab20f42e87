//! Fleet fan-out scaling: the committed baseline behind
//! `results/BENCH_fleet.json` (gated by `scripts/verify.sh` via
//! `bench_check`).
//!
//! One deliberately *skewed* 64-device fleet — the first 8 devices serve
//! a six-tenant "hot" blend (~6x the replay work of the single-tenant
//! "cold" blend on the other 56) — replayed three ways:
//!
//! * `replay_w1` — serial reference (one worker);
//! * `replay_w8_static` — 8 workers, `chunk = 64 / 8`: one contiguous
//!   eight-device chunk per worker, which is what a static split would
//!   hand out (the pool itself no longer has one). Every hot device lands
//!   in the first chunk, so one worker drags the makespan;
//! * `replay_w8_dynamic` — 8 workers, `chunk = 1`: workers claim single
//!   devices from the shared cursor, so the hot devices spread across the
//!   pool.
//!
//! On a machine with >= 8 cores, dynamic beats static on this shape and
//! `replay_w1 / replay_w8_dynamic` shows the fan-out speedup
//! (`verify.sh` enforces the >= 5x floor only there; single-core CI
//! boxes still byte-check determinism, and the machine-independent
//! makespan bound is asserted in `crates/harness/tests/dynamic_pool.rs`).
//! All three produce byte-identical `FleetReport`s — asserted here once
//! before sampling begins.

use cagc_core::Scheme;
use cagc_fleet::{run_fleet, FleetConfig, TenantMix, TenantSpec};
use cagc_harness::bench::Bench;
use cagc_harness::ToJson;
use cagc_workloads::FiuWorkload;

/// 64 devices, hot-first: mix list as long as the fleet so the skew is
/// positional (round-robin would re-balance it).
fn skewed_fleet() -> FleetConfig {
    let hot = TenantMix {
        name: "hot",
        tenants: (0..6)
            .map(|i| {
                TenantSpec::new(if i % 2 == 0 { FiuWorkload::Mail } else { FiuWorkload::Homes })
            })
            .collect(),
    };
    let cold = TenantMix { name: "cold", tenants: vec![TenantSpec::new(FiuWorkload::WebVm)] };
    let mixes: Vec<TenantMix> =
        (0..64).map(|d| if d < 8 { hot.clone() } else { cold.clone() }).collect();
    FleetConfig {
        devices: 64,
        mixes,
        scheme: Scheme::Cagc,
        flash: cagc_flash::UllConfig::tiny_for_tests(),
        requests_per_tenant: 400,
        footprint_frac: 0.90,
        seed: 7,
        seed_groups: 2,
        workers: 1,
        chunk: 1,
        host_queues: None,
        faults: cagc_flash::FaultConfig::none(),
        gc_preempt: false,
        read_only_floor_blocks: None,
        telemetry: None,
        slo: None,
    }
}

fn bench_fleet(c: &mut Bench) {
    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);

    let base = skewed_fleet();
    let at = |workers: usize, chunk: usize| FleetConfig { workers, chunk, ..base.clone() };

    // Determinism anchor: every scheduling shape below must yield the
    // same bytes, or the scaling numbers compare different computations.
    let want = run_fleet(&at(1, 1)).to_json().render();
    for (w, chunk) in [(8, 1), (8, 64 / 8)] {
        assert_eq!(
            run_fleet(&at(w, chunk)).to_json().render(),
            want,
            "fleet report must be byte-identical at {w} workers (chunk {chunk})"
        );
    }

    g.bench_function("replay_w1", |b| b.iter(|| run_fleet(&at(1, 1))));
    // Static shape: one contiguous chunk per worker (chunk = n/w), so
    // claiming has nothing left to balance.
    g.bench_function("replay_w8_static", |b| b.iter(|| run_fleet(&at(8, 64 / 8))));
    g.bench_function("replay_w8_dynamic", |b| b.iter(|| run_fleet(&at(8, 1))));

    g.finish();
}

cagc_harness::harness_bench_main!(bench_fleet);
