//! Scoped worker-thread pool with deterministic work partitioning.
//!
//! The simulator is single-threaded and deterministic; what runs in
//! parallel is the *grid around it* — experiment cells, fleet devices,
//! batch hashing — which is embarrassingly parallel. This module gives
//! that fan-out a fixed contract:
//!
//! * **Deterministic partitioning** — work is split into chunks whose
//!   boundaries are computed purely from the input and the chunk size
//!   ([`dynamic_chunk_bounds`]), never from scheduler state or the worker
//!   count. Workers claim the next unclaimed chunk from a shared atomic
//!   cursor as they finish the previous one.
//! * **Ordered collection** — results come back in input order no matter
//!   how the OS schedules the threads.
//!
//! Together these make `map_ordered*(items, 1, f)` and
//! `map_ordered*(items, n, f)` produce *identical* output vectors whenever
//! `f` is a pure function of its item, which is exactly the property the
//! reproducibility tests assert (see `tests/hermetic_determinism.rs` at
//! the workspace root and `tests/dynamic_pool.rs` in this crate).
//!
//! ## One scheduler
//!
//! There is one claiming loop ([`map_ordered_dynamic_chunked`]);
//! [`map_ordered`] is it with single-item chunks. A static split — one
//! contiguous share per worker, decided up front — has zero coordination
//! but lets the slowest *share* bound the wall clock: one expensive region
//! of the input strands every other core (the paper grid's nine cells ran
//! at 0.69 pool efficiency that way). Claiming trades one relaxed atomic
//! `fetch_add` per chunk for greedy load balancing — a worker that drew a
//! cheap chunk immediately claims the next unclaimed one — which is the
//! classic list-scheduling bound: makespan ≤ (total work)/workers + max
//! single chunk. *Which* worker computes an item is scheduler-dependent;
//! *what* is computed and *where the result lands* are not, so
//! byte-identity across worker counts holds for pure cell functions. That
//! needs cells whose cost and footprint do not depend on the thread that
//! runs them, which is why the workspace keeps no thread-local state
//! (`scripts/verify.sh` checks). When items are cheap (tens of
//! microseconds) pick a chunk size that amortises the claim and the
//! per-chunk `Vec`; when each is a whole replay, single items are right.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested worker count: `0` means "size to the machine",
/// and the result is clamped to `[1, items]` so no thread sits idle.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let w = if requested == 0 { hw() } else { requested };
    w.max(1).min(items.max(1))
}

/// The fixed chunk bounds `[start, end)` of chunk `index` when `items`
/// items are split into chunks of `chunk` items each (the last chunk may
/// be short). Purely arithmetic in `(items, chunk, index)` — the worker
/// count never moves a boundary, which is what keeps the dynamic
/// scheduler's output worker-count-independent even for impure cell
/// functions that observe their chunk-mates.
pub fn dynamic_chunk_bounds(items: usize, chunk: usize, index: usize) -> (usize, usize) {
    let chunk = chunk.max(1);
    let start = (index * chunk).min(items);
    (start, (start + chunk).min(items))
}

/// Apply `f` to every item with *dynamic* chunk claiming: the input is
/// split into fixed-boundary chunks of `chunk` items, workers claim the
/// next unclaimed chunk from a shared atomic cursor, and results are
/// collected in input order.
///
/// For a pure `f`, any worker count produces the same vector, byte for
/// byte, and a worker finishing a cheap chunk immediately takes the next
/// one, so skewed per-item runtimes do not strand cores.
///
/// A panic in `f` propagates to the caller (other workers drain the
/// remaining chunks first).
pub fn map_ordered_dynamic_chunked<T, R, F>(
    items: &[T],
    workers: usize,
    chunk: usize,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunk = chunk.max(1);
    let workers = effective_workers(workers, items.len().div_ceil(chunk));
    if items.is_empty() {
        return Vec::new();
    }
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<R>>> = (0..n_chunks).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let f = &f;
            let cursor = &cursor;
            handles.push(s.spawn(move || {
                let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let (start, end) = dynamic_chunk_bounds(items.len(), chunk, c);
                    mine.push((c, items[start..end].iter().map(f).collect()));
                }
                mine
            }));
        }
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (c, v) in done {
                        debug_assert!(slots[c].is_none(), "chunk {c} claimed twice");
                        slots[c] = Some(v);
                    }
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    slots
        .into_iter()
        .flat_map(|c| c.expect("every chunk claimed exactly once"))
        .collect()
}

/// Apply `f` to every item on up to `workers` scoped OS threads
/// (`0` ⇒ machine parallelism) and return results in input order:
/// [`map_ordered_dynamic_chunked`] with single-item chunks — the right
/// default when each item is expensive (a whole device replay, a whole
/// experiment cell) and the atomic claim is noise by comparison.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_ordered_dynamic_chunked(items, workers, 1, f)
}

/// [`map_ordered`] under the name it had while a static split existed
/// beside it; `benchmark/` still calls it.
pub fn map_ordered_dynamic<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_ordered(items, workers, f)
}

/// Run `f(worker_index)` once on each of `workers` scoped threads and
/// return the results indexed by worker. The low-level entry point for
/// callers that manage their own partitioning.
pub fn run_workers<R, F>(workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1);
    let mut out: Vec<Option<R>> = (0..workers).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let f = &f;
            handles.push(s.spawn(move || f(w)));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            match h.join() {
                Ok(v) => *slot = Some(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    out.into_iter().map(|r| r.expect("worker result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ordered_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 3, 8, 300] {
            let out = map_ordered(&items, workers, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The determinism contract: any worker count, same output bytes.
        let items: Vec<u64> = (0..100).map(|i| i * i).collect();
        let serial = map_ordered(&items, 1, |&x| format!("{:x}", x.wrapping_mul(0x9E3779B97F4A7C15)));
        for workers in [2, 4, 7, 16] {
            assert_eq!(map_ordered(&items, workers, |&x| format!("{:x}", x.wrapping_mul(0x9E3779B97F4A7C15))), serial);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map_ordered(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
        assert!(map_ordered_dynamic(&[] as &[u32], 4, |&x| x).is_empty());
    }

    #[test]
    fn zero_workers_means_machine_sized() {
        let items = [1u32, 2, 3];
        assert_eq!(map_ordered(&items, 0, |&x| x + 1), vec![2, 3, 4]);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn dynamic_chunk_bounds_cover_exactly_once() {
        for items in [0usize, 1, 2, 7, 64, 101] {
            for chunk in [1usize, 2, 3, 16, 200] {
                let n_chunks = items.div_ceil(chunk);
                let mut expect_start = 0usize;
                for c in 0..n_chunks {
                    let (s, e) = dynamic_chunk_bounds(items, chunk, c);
                    assert_eq!(s, expect_start, "gap at chunk {c}");
                    assert!(e > s, "empty chunk {c} for items={items} chunk={chunk}");
                    expect_start = e;
                }
                assert_eq!(expect_start, items, "items={items} chunk={chunk}");
                // Out-of-range indices collapse to empty tail chunks.
                let (s, e) = dynamic_chunk_bounds(items, chunk, n_chunks + 3);
                assert_eq!((s, e), (items, items));
            }
        }
    }

    #[test]
    fn dynamic_matches_serial_for_any_worker_count_and_chunk() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 300] {
            for chunk in [1, 2, 7, 64, 500] {
                let out = map_ordered_dynamic_chunked(&items, workers, chunk, |&x| x * 3 + 1);
                assert_eq!(out, serial, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn run_workers_indexes_results() {
        let out = run_workers(5, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        map_ordered(&[1u32, 2, 3, 4], 2, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }
}
