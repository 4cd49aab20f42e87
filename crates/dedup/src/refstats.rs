//! Reference-count invalidation statistics (the Fig. 6 measurement).
//!
//! Fig. 6 of the paper plots, per workload, what fraction of pages that
//! *became invalid* had reference count 1, 2, 3, or >3 — the empirical basis
//! for treating high-refcount pages as cold. We bucket each invalidated page
//! by the **maximum reference count its stored copy ever reached**: a page
//! that was only ever referenced once lands in bucket "1", a page that was
//! shared by four files before they were all deleted lands in ">3".

/// Invalidations bucketed by peak reference count {1, 2, 3, >3}.
///
/// Besides the Fig. 6 buckets this also tracks how many reference drops
/// were caused by host trims (deallocations) rather than overwrites — the
/// signal behind trim-aware placement: a shared page whose sharers are
/// being trimmed away is *cooling down* and will fall back from the cold
/// region to hot on its next GC migration once its count crosses back
/// under the threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCountStats {
    buckets: [u64; 4],
    trim_releases: u64,
}

impl RefCountStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one page invalidation whose copy peaked at `max_refs`.
    pub fn record_invalidation(&mut self, max_refs: u32) {
        let b = match max_refs {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            _ => 3,
        };
        self.buckets[b] += 1;
    }

    /// Record one reference drop caused by a host trim. Orthogonal to the
    /// buckets: a trim that takes a count to zero *also* records an
    /// invalidation via [`RefCountStats::record_invalidation`].
    pub fn record_trim_release(&mut self) {
        self.trim_releases += 1;
    }

    /// Reference drops attributed to host trims (deallocations).
    pub fn trim_releases(&self) -> u64 {
        self.trim_releases
    }

    /// Raw bucket counts `[ref==1, ref==2, ref==3, ref>3]`.
    pub fn buckets(&self) -> [u64; 4] {
        self.buckets
    }

    /// Total invalidations recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merge another statistics object into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.trim_releases += other.trim_releases;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_fig6_classes() {
        let mut s = RefCountStats::new();
        s.record_invalidation(1);
        s.record_invalidation(1);
        s.record_invalidation(2);
        s.record_invalidation(3);
        s.record_invalidation(4);
        s.record_invalidation(100);
        assert_eq!(s.buckets(), [2, 1, 1, 2]);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn zero_refs_treated_as_one() {
        // Defensive: an untracked page is implicitly refcount 1.
        let mut s = RefCountStats::new();
        s.record_invalidation(0);
        assert_eq!(s.buckets(), [1, 0, 0, 0]);
    }

    #[test]
    fn merge_adds_buckets() {
        let mut a = RefCountStats::new();
        a.record_invalidation(1);
        let mut b = RefCountStats::new();
        b.record_invalidation(5);
        b.record_invalidation(1);
        a.merge(&b);
        assert_eq!(a.buckets(), [2, 0, 0, 1]);
    }

    #[test]
    fn trim_releases_are_counted_and_merged() {
        let mut a = RefCountStats::new();
        a.record_trim_release();
        a.record_trim_release();
        // Trim attribution does not disturb the Fig. 6 buckets.
        assert_eq!(a.trim_releases(), 2);
        assert_eq!(a.total(), 0);
        let mut b = RefCountStats::new();
        b.record_trim_release();
        a.merge(&b);
        assert_eq!(a.trim_releases(), 3);
    }
}
