//! Hot-path replay throughput: the CI-gated performance baseline
//! (`BENCH_hotpath.json`, one sample committed under `results/`, compared
//! against fresh runs by `scripts/verify.sh` via the `bench_check` binary).
//!
//! Two GC-heavy CAGC replays, both fully deterministic:
//!
//! * `gc_heavy_replay` — the tiny-device workload (6 000 Mail requests,
//!   tracing off; 8.3 ms before the hot-path overhaul, docs/PERFORMANCE.md);
//! * `gc_heavy_replay_1gb` — the same Mail workload scaled to a 1 GB
//!   device (8 ch × 4 dies, 4096 blocks, ≈8300 GC rounds), where the
//!   overhaul's asymptotic wins (O(1) victim selection vs O(blocks),
//!   O(1) reverse-map churn vs O(sharers)) dominate. Measured seed
//!   baseline and methodology: docs/PERFORMANCE.md.
//!
//! And the device-size gate, `device_churn_1gb` / `device_churn_8gb`: the
//! same 256 GC rounds (select the Greedy victim, drain it, erase it,
//! refill it, invalidate as many pages elsewhere) on a 4096-block and a
//! 32 768-block [`FlashDevice`] held at 85 % valid. Nothing in a round
//! may walk the blocks, so the two medians differ by what the larger
//! arrays cost in cache misses and by the tie-break over a fuller lowest
//! bucket (which fills and drains over ≈ 5 000 rounds at 8 GB, so that
//! case's samples spread with the phase they land on); a victim search
//! that walks the device shows up as a multiple on the 8 GB case.
//! `scripts/verify.sh` gates the ratio of the two
//! (docs/PERFORMANCE.md, "Victim index" and "Regression policy").

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::{FlashDevice, PageOob, PageState};
use cagc_harness::bench::{Bench, Group};
use cagc_sim::SimRng;
use cagc_workloads::{FiuWorkload, Trace};

fn gc_heavy_trace(flash: &cagc_flash::UllConfig, requests: usize) -> Trace {
    FiuWorkload::Mail
        .synth_config((flash.logical_pages() as f64 * 0.9) as u64, requests, 9)
        .generate()
}

/// A random currently-valid page of `dev`.
fn random_valid_page(dev: &FlashDevice, rng: &mut SimRng) -> u64 {
    loop {
        let ppn = rng.gen_range_u64(0..dev.geometry().total_pages());
        if dev.page_state(ppn) == PageState::Valid {
            return ppn;
        }
    }
}

fn bench_device_churn(g: &mut Group<'_>, name: &str, gb: u32) {
    const ROUNDS: usize = 256;
    let cfg = cagc_flash::UllConfig::scaled_gb(gb);
    let geom = cfg.geometry();
    let mut dev = FlashDevice::new(geom, cfg.timing());
    let mut rng = SimRng::seed_from_u64(u64::from(gb));
    // Age the device: every block full, 15 % of the pages invalid.
    for b in 0..geom.total_blocks() {
        for _ in 0..geom.pages_per_block {
            dev.program_next(b, 0, PageOob::gc(None)).expect("fresh block");
        }
    }
    for _ in 0..geom.total_pages() * 15 / 100 {
        let ppn = random_valid_page(&dev, &mut rng);
        dev.invalidate(ppn, 0);
    }
    g.bench_function(name, |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                let victim = dev.greedy_full_victim().expect("an aged device has a victim");
                let base = geom.ppn(victim, 0);
                let mut moved = 0;
                for page in 0..geom.pages_per_block {
                    if dev.page_state(base + u64::from(page)) == PageState::Valid {
                        dev.invalidate(base + u64::from(page), 0);
                        moved += 1;
                    }
                }
                dev.erase(victim, 0).expect("drained victim");
                // The block takes the `moved` migrated pages plus host
                // writes, each of which overwrites a page somewhere else:
                // the valid population is stationary.
                for _ in 0..geom.pages_per_block {
                    dev.program_next(victim, 0, PageOob::gc(None)).expect("erased block");
                }
                for _ in moved..geom.pages_per_block {
                    let ppn = random_valid_page(&dev, &mut rng);
                    dev.invalidate(ppn, 0);
                }
            }
        })
    });
}

fn bench_hotpath(c: &mut Bench) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);

    let tiny = cagc_flash::UllConfig::tiny_for_tests();
    let tiny_trace = gc_heavy_trace(&tiny, 6_000);
    g.bench_function("gc_heavy_replay", |b| {
        b.iter(|| {
            let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
            ssd.replay(&tiny_trace)
        })
    });

    let gb = cagc_flash::UllConfig::scaled_gb(1);
    let gb_trace = gc_heavy_trace(&gb, 200_000);
    g.bench_function("gc_heavy_replay_1gb", |b| {
        b.iter(|| {
            let mut ssd = Ssd::new(SsdConfig::paper(gb, Scheme::Cagc));
            ssd.replay(&gb_trace)
        })
    });

    bench_device_churn(&mut g, "device_churn_1gb", 1);
    bench_device_churn(&mut g, "device_churn_8gb", 8);

    g.finish();
}

cagc_harness::harness_bench_main!(bench_hotpath);
