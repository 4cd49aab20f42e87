//! Determinism contract of the pool scheduler.
//!
//! Workers claim chunks from an atomic cursor, so *which thread computes
//! an item* is scheduler-dependent — these tests pin down everything that
//! must **not** be: for a pure cell function the output vector is
//! byte-identical to `items.iter().map(f)` at every worker count and chunk
//! size, even under adversarially skewed per-item runtimes, and a
//! panicking cell's payload reaches the caller. One test proves the
//! claiming itself, through `map_ordered`.

use cagc_harness::pool::{
    dynamic_chunk_bounds, map_ordered, map_ordered_dynamic_chunked,
};
use cagc_harness::prop::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A pure cell function whose result depends on every bit of the item.
fn cell(x: &u64) -> String {
    format!("{:016x}", x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ x)
}

/// Burn deterministic CPU time proportional to `units` (no sleeping — a
/// sleeping worker frees its core, which would hide scheduling bugs that
/// only bite when workers genuinely compete).
fn spin(units: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..units * 2_000 {
        acc = acc.wrapping_add(black_box(i).wrapping_mul(0x9E37_79B9));
    }
    black_box(acc)
}

harness_proptest! {
    #![config(cases = 24)]

    /// Pool output equals a plain serial map for every worker count,
    /// chunk size, and input shape.
    #[test]
    fn dynamic_is_byte_identical_to_serial(
        items in vec(0u64..u64::MAX, 0..120),
        chunk in 1usize..9,
    ) {
        let serial: Vec<String> = items.iter().map(cell).collect();
        for workers in [1usize, 2, 3, 8] {
            let dynamic = map_ordered_dynamic_chunked(&items, workers, chunk, cell);
            prop_assert_eq!(&dynamic, &serial, "workers={} chunk={}", workers, chunk);
            prop_assert_eq!(&map_ordered(&items, workers, cell), &serial, "workers={}", workers);
        }
    }

    /// Chunk boundaries tile the input exactly once for any geometry.
    #[test]
    fn chunk_boundaries_tile_the_input(items in 0usize..500, chunk in 1usize..40) {
        let n_chunks = items.div_ceil(chunk);
        let mut next = 0usize;
        for c in 0..n_chunks {
            let (s, e) = dynamic_chunk_bounds(items, chunk, c);
            prop_assert_eq!(s, next);
            prop_assert!(e > s && e <= items);
            next = e;
        }
        prop_assert_eq!(next, items);
    }
}

/// The adversarial shape the fleet hits in practice: one item is ~100×
/// slower than the rest. Assignment becomes timing-dependent, output must
/// not.
#[test]
fn skewed_runtimes_never_change_output() {
    // 64 items, item 11 is ~100x the work of the others.
    let items: Vec<u64> = (0..64).collect();
    let skewed_cell = |&x: &u64| {
        spin(if x == 11 { 400 } else { 4 });
        cell(&x)
    };
    let serial: Vec<String> = items.iter().map(skewed_cell).collect();
    for workers in [1usize, 2, 3, 8] {
        for chunk in [1usize, 3] {
            let out = map_ordered_dynamic_chunked(&items, workers, chunk, skewed_cell);
            assert_eq!(out, serial, "workers={workers} chunk={chunk}");
        }
        let out = map_ordered(&items, workers, skewed_cell);
        assert_eq!(out, serial, "workers={workers} chunk=1 (default)");
    }
}

/// Proof that `map_ordered` claims as it goes: item 0 does not return
/// until every other item has, so on two workers the run only completes
/// if the free worker takes all seven others — a contiguous share per
/// worker would leave items 1–3 queued behind item 0 for ever. The wait
/// is bounded, so a regression fails here instead of hanging the suite.
#[test]
fn a_free_worker_claims_past_any_static_share() {
    let items: Vec<usize> = (0..8).collect();
    let finished = AtomicUsize::new(0);
    let others = items.len() - 1;
    let out = map_ordered(&items, 2, |&i| {
        if i == 0 {
            let deadline = Instant::now() + Duration::from_secs(60);
            while finished.load(Ordering::SeqCst) < others {
                assert!(
                    Instant::now() < deadline,
                    "item 0 still waiting on {} of {others} items: its worker's \
                     neighbours were never claimed by the free worker",
                    others - finished.load(Ordering::SeqCst)
                );
                std::thread::yield_now();
            }
        } else {
            finished.fetch_add(1, Ordering::SeqCst);
        }
        i * 10
    });
    assert_eq!(out, (0..8).map(|i| i * 10).collect::<Vec<_>>());
}

/// A panic in a cell reaches the caller with its payload, through either
/// entry point.
#[test]
fn panic_payload_reaches_the_caller() {
    let items: Vec<u64> = (0..32).collect();
    let poison = |&x: &u64| {
        if x == 17 {
            panic!("poisoned item");
        }
        x * 2
    };
    let msg = |p: Box<dyn std::any::Any + Send>| {
        p.downcast_ref::<&str>().map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .expect("panic payload is a string")
    };
    let single = std::panic::catch_unwind(|| map_ordered(&items, 4, poison)).unwrap_err();
    let chunked =
        std::panic::catch_unwind(|| map_ordered_dynamic_chunked(&items, 4, 5, poison)).unwrap_err();
    assert_eq!(msg(single), "poisoned item");
    assert_eq!(msg(chunked), "poisoned item");
}

/// The workspace's only statement of the scheduling win, and a
/// machine-independent one (measured wall-clock scaling is `benchmark/`'s
/// `fleet.pool_eff` / `harness.pool_eff`): replaying the two
/// policies over a *modelled* cost vector (list scheduling for the claim
/// order, the contiguous per-worker split the pool used to make for the
/// static one) shows the dynamic makespan beating static partitioning
/// ≥ 5× on the skewed 64-device / 8-worker fleet shape, and within the
/// classic `total/workers + max_item` list-scheduling bound.
#[test]
fn modelled_makespan_dynamic_beats_static_5x_on_skewed_fleet() {
    // 64 devices; the 8 "noisy neighbor" tenants land contiguously at the
    // front of the grid (devices 0..8), each ~100x a quiet device — the
    // exact shape that pins static partitioning's first worker.
    let costs: Vec<u64> = (0..64u64).map(|i| if i < 8 { 100 } else { 1 }).collect();
    let workers = 8usize;

    // Static contiguous split: each worker owns one eighth of the input.
    let static_makespan: u64 =
        costs.chunks(costs.len() / workers).map(|share| share.iter().sum()).max().unwrap();

    // Dynamic claiming: greedy list scheduling — each item goes to the
    // worker that frees up first (what the atomic cursor implements).
    let mut free_at = vec![0u64; workers];
    for &c in &costs {
        let w = (0..workers).min_by_key(|&w| free_at[w]).unwrap();
        free_at[w] += c;
    }
    let dynamic_makespan = *free_at.iter().max().unwrap();

    let total: u64 = costs.iter().sum();
    let bound = total / workers as u64 + costs.iter().max().unwrap();
    assert!(dynamic_makespan <= bound, "{dynamic_makespan} > bound {bound}");
    assert!(
        static_makespan >= 5 * dynamic_makespan,
        "static {static_makespan} vs dynamic {dynamic_makespan}: skew no longer pins \
         the static path"
    );
}
