//! Single-server resource timelines.
//!
//! A [`Timeline`] models a unit that can do one thing at a time — a NAND die
//! executing reads/programs/erases, a channel transferring data, or the
//! SSD-internal hash engine. Work is *reserved* against the timeline: given
//! the earliest time the operation could start (`ready_at`) and its duration,
//! [`Timeline::reserve`] returns when it actually starts (after any earlier
//! reservation drains) and when it completes.
//!
//! This greedy in-order reservation discipline matches how FlashSim services
//! per-die command queues and is what makes garbage collection visibly delay
//! foreground I/O in the simulator: a GC erase reserves 1.5 ms of die time,
//! and the next user read on that die starts only after it.

use crate::time::Nanos;

/// The result of reserving an interval on a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the operation actually began (≥ the requested `ready_at`).
    pub start: Nanos,
    /// When the operation completes (`start + duration`).
    pub end: Nanos,
    /// Time spent waiting behind earlier reservations (`start - ready_at`).
    pub queued: Nanos,
}

/// A single-server resource with in-order (FIFO) service.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy_until: Nanos,
    busy_total: Nanos,
}

impl Timeline {
    /// An idle timeline at time zero.
    pub const fn new() -> Self {
        Self { busy_until: 0, busy_total: 0 }
    }

    /// Reserve `duration` of service, no earlier than `ready_at`.
    #[inline]
    pub fn reserve(&mut self, ready_at: Nanos, duration: Nanos) -> Reservation {
        let start = ready_at.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_total += duration;
        Reservation { start, end, queued: start - ready_at }
    }

    /// Earliest time a new operation could start.
    #[inline]
    pub fn next_free(&self) -> Nanos {
        self.busy_until
    }

    /// Total busy time accumulated across all reservations.
    #[inline]
    pub fn busy_total(&self) -> Nanos {
        self.busy_total
    }
}

/// An indexed set of [`Timeline`]s (e.g. one per NAND die or channel).
#[derive(Debug, Clone, Default)]
pub struct TimelineGroup {
    lines: Vec<Timeline>,
}

impl TimelineGroup {
    /// `n` idle timelines.
    pub fn new(n: usize) -> Self {
        Self { lines: vec![Timeline::new(); n] }
    }

    /// Number of timelines in the group.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Reserve on timeline `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range — callers derive the index from a
    /// validated physical address, so an out-of-range index is a logic bug.
    #[inline]
    pub fn reserve(&mut self, idx: usize, ready_at: Nanos, duration: Nanos) -> Reservation {
        self.lines[idx].reserve(ready_at, duration)
    }

    /// Immutable access to timeline `idx`.
    pub fn get(&self, idx: usize) -> &Timeline {
        &self.lines[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;

    #[test]
    fn idle_timeline_starts_immediately() {
        let mut t = Timeline::new();
        let r = t.reserve(us(100), us(12));
        assert_eq!(r.start, us(100));
        assert_eq!(r.end, us(112));
        assert_eq!(r.queued, 0);
    }

    #[test]
    fn busy_timeline_queues_work() {
        let mut t = Timeline::new();
        t.reserve(0, us(16)); // busy [0, 16us)
        let r = t.reserve(us(4), us(12)); // wants 4us, must wait
        assert_eq!(r.start, us(16));
        assert_eq!(r.end, us(28));
        assert_eq!(r.queued, us(12));
    }

    #[test]
    fn reservation_after_gap_leaves_idle_hole() {
        let mut t = Timeline::new();
        t.reserve(0, us(10));
        let r = t.reserve(us(50), us(10)); // arrives long after drain
        assert_eq!(r.start, us(50));
        assert_eq!(t.busy_total(), us(20)); // holes don't count as busy
    }

    #[test]
    fn zero_duration_reservation_is_a_fence() {
        let mut t = Timeline::new();
        t.reserve(0, us(10));
        let r = t.reserve(0, 0);
        assert_eq!(r.start, us(10));
        assert_eq!(r.end, us(10));
    }

    #[test]
    fn a_timeline_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Timeline>(), 16);
    }

    #[test]
    fn group_reserves_independently() {
        let mut g = TimelineGroup::new(4);
        g.reserve(0, 0, us(100));
        let r = g.reserve(1, 0, us(5)); // different die: no interference
        assert_eq!(r.start, 0);
        assert_eq!((g.get(0).busy_total(), g.get(1).busy_total()), (us(100), us(5)));
    }
}
