//! The hash engine: latency model and a real parallel hasher.
//!
//! Two views of the same component:
//!
//! * [`HashEngine`] — the *timing* model used inside the simulator. The
//!   SSD's hash unit is a single-server resource ([`cagc_sim::Timeline`]):
//!   each page fingerprint occupies it for `hash_ns` (Table I: 14 µs).
//!   Inline-Dedupe puts these reservations on the foreground write path;
//!   CAGC puts them on the GC path, where they overlap with die work — the
//!   central mechanism of the paper.
//! * [`ParallelHasher`] — a real data-path implementation that fingerprints
//!   batches of page payloads across worker threads (the
//!   [`cagc_harness::pool`] scoped pool), used by benches and the
//!   real-content example to measure what the 14 µs figure abstracts.

use crate::fingerprint::Fingerprint;
use cagc_sim::time::Nanos;
use cagc_sim::timeline::{Reservation, Timeline};

/// Timing model of the SSD-internal fingerprint unit.
#[derive(Debug, Clone)]
pub struct HashEngine {
    unit: Timeline,
    hash_ns: Nanos,
    hashed_pages: u64,
}

impl HashEngine {
    /// A hash engine with `hash_ns` per-page latency (Table I: 14_000).
    pub fn new(hash_ns: Nanos) -> Self {
        Self { unit: Timeline::new(), hash_ns, hashed_pages: 0 }
    }

    /// Per-page hash latency.
    pub fn hash_ns(&self) -> Nanos {
        self.hash_ns
    }

    /// Reserve the unit to fingerprint one page, ready at `ready_at`.
    pub fn hash_page(&mut self, ready_at: Nanos) -> Reservation {
        self.hashed_pages += 1;
        self.unit.reserve(ready_at, self.hash_ns)
    }

    /// Number of pages fingerprinted so far.
    pub fn hashed_pages(&self) -> u64 {
        self.hashed_pages
    }

    /// Total busy time of the unit.
    pub fn busy_total(&self) -> Nanos {
        self.unit.busy_total()
    }

    /// Earliest time the unit could accept new work.
    pub fn next_free(&self) -> Nanos {
        self.unit.next_free()
    }
}

/// Real multi-threaded page fingerprinting over byte payloads.
///
/// Deterministic output (order-preserving); workers claim fixed runs of
/// pages, about four per worker, so one slow run does not strand the rest.
#[derive(Debug, Clone, Copy)]
pub struct ParallelHasher {
    workers: usize,
}

impl ParallelHasher {
    /// A hasher with `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// A hasher sized to the machine (`available_parallelism`).
    pub fn auto() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Fingerprint every page payload, preserving order.
    pub fn hash_pages(&self, pages: &[Vec<u8>]) -> Vec<Fingerprint> {
        if self.workers == 1 || pages.len() < 2 * self.workers {
            return pages.iter().map(|p| Fingerprint::of_bytes(p)).collect();
        }
        // A page is ~20 µs of SHA-1: claim runs, not single pages.
        let chunk = pages.len().div_ceil(4 * self.workers);
        cagc_harness::pool::map_ordered_dynamic_chunked(pages, self.workers, chunk, |p| {
            Fingerprint::of_bytes(p)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ContentId;
    use cagc_sim::time::us;

    #[test]
    fn hash_engine_serializes_on_the_unit() {
        let mut e = HashEngine::new(us(14));
        let a = e.hash_page(0);
        let b = e.hash_page(0); // same ready time: queues behind a
        assert_eq!(a.end, us(14));
        assert_eq!(b.start, us(14));
        assert_eq!(b.end, us(28));
        assert_eq!(e.hashed_pages(), 2);
        assert_eq!(e.busy_total(), us(28));
    }

    #[test]
    fn hash_engine_overlaps_with_anything_else() {
        // The whole point: the unit is independent of die timelines, so a
        // hash issued during an erase completes inside the erase window.
        let mut e = HashEngine::new(us(14));
        let erase_start = us(100);
        let r = e.hash_page(erase_start);
        assert!(r.end < erase_start + us(1500)); // fits within a 1.5ms erase
    }

    #[test]
    fn parallel_hasher_matches_serial() {
        let pages: Vec<Vec<u8>> =
            (0..64).map(|i| ContentId(i).synth_bytes(4096)).collect();
        let serial: Vec<Fingerprint> =
            pages.iter().map(|p| Fingerprint::of_bytes(p)).collect();
        for workers in [1, 2, 4, 8] {
            let par = ParallelHasher::new(workers).hash_pages(&pages);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_hasher_empty_and_tiny_inputs() {
        let h = ParallelHasher::new(4);
        assert!(h.hash_pages(&[]).is_empty());
        let one = vec![ContentId(1).synth_bytes(512)];
        assert_eq!(h.hash_pages(&one).len(), 1);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(ParallelHasher::new(0).hash_pages(&[vec![1, 2, 3]]).len(), 1);
    }
}
