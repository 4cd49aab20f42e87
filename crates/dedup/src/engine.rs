//! The hash engine's latency model.
//!
//! [`HashEngine`] is the *timing* model used inside the simulator. The
//! SSD's hash unit is a single-server resource ([`cagc_sim::Timeline`]):
//! each page fingerprint occupies it for `hash_ns` (Table I: 14 µs).
//! Inline-Dedupe puts these reservations on the foreground write path;
//! CAGC puts them on the GC path, where they overlap with die work — the
//! central mechanism of the paper.

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

#[cfg(test)]
mod tests {
    use super::*;
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
}
