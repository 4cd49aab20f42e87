//! Log-bucket latency histogram.
//!
//! An HDR-style histogram: values are bucketed by (exponent, mantissa-slice)
//! with `SUB_BITS` linear sub-buckets per power of two, giving a bounded
//! relative error of `2^-SUB_BITS` (≈1.6 % with the default 6 bits) across
//! the full `u64` range in constant memory. Used for response-time
//! distributions (Fig. 11 means, Fig. 12 CDFs, tail percentiles).

const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Number of top-level (exponent) tiers.
const TIERS: usize = 64 - SUB_BITS as usize;
/// Exact values retained for the upper tail: quantiles whose rank falls
/// within the largest `TAIL_KEEP` recorded values (p99.9 of a ≤1M-sample
/// run, every quantile of a ≤1024-sample run) are exact order statistics,
/// not bucket approximations. Bounded memory, amortized O(1) per record.
const TAIL_KEEP: usize = 1024;

/// A fixed-memory log-bucket histogram over `u64` values (nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>, // TIERS * SUB_COUNT
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Unsorted buffer whose top-`TAIL_KEEP` multiset is exactly the
    /// largest `TAIL_KEEP` values ever recorded. Kept below `2 * TAIL_KEEP`
    /// entries by [`Self::tail_compact`]; record-path cost is a bounds
    /// check plus an amortized-O(1) push, which is why this is a flat `Vec`
    /// and not a heap (ordering is only needed at report time).
    tail: Vec<u64>,
    /// Values strictly below this floor cannot rank in the top `TAIL_KEEP`
    /// and are dropped on arrival. 0 (filter disabled) until the first
    /// compaction establishes a true K-th-largest.
    tail_floor: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; TIERS * SUB_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            tail: Vec::new(),
            tail_floor: 0,
        }
    }

    /// Bytes the histogram holds on the heap: its fixed bucket array and
    /// the exact-tail buffer.
    pub fn heap_bytes(&self) -> usize {
        (self.buckets.capacity() + self.tail.capacity()) * std::mem::size_of::<u64>()
    }

    /// Offer `v` to the exact-tail buffer. Values below the established
    /// floor are dropped (they cannot rank in the top `TAIL_KEEP`); the
    /// retained *multiset* of the buffer's largest `TAIL_KEEP` entries is
    /// the top `TAIL_KEEP` values ever recorded, regardless of order.
    #[inline]
    fn tail_push(&mut self, v: u64) {
        if v < self.tail_floor {
            return;
        }
        self.tail.push(v);
        if self.tail.len() >= 2 * TAIL_KEEP {
            self.tail_compact();
        }
    }

    /// Shrink the buffer to exactly the top-`TAIL_KEEP` multiset and raise
    /// the floor to the K-th largest. O(len) via quickselect, so the
    /// amortized cost per retained push is O(1).
    fn tail_compact(&mut self) {
        self.tail.select_nth_unstable_by(TAIL_KEEP - 1, |a, b| b.cmp(a));
        self.tail.truncate(TAIL_KEEP);
        self.tail_floor = self.tail[TAIL_KEEP - 1];
    }

    /// Number of top ranks (from the maximum downward) answerable as exact
    /// order statistics from the tail buffer.
    fn tail_exact_len(&self) -> usize {
        self.count.min(TAIL_KEEP as u64) as usize
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB_COUNT as u64 {
            return v as usize; // exact in tier 0
        }
        // msb >= SUB_BITS here. Values in tier t keep their top SUB_BITS
        // bits: sub = v >> t lands in [SUB_COUNT/2, SUB_COUNT).
        let msb = 63 - v.leading_zeros();
        let tier = (msb - SUB_BITS + 1) as usize;
        let sub = (v >> tier) as usize;
        debug_assert!((SUB_COUNT / 2..SUB_COUNT).contains(&sub), "sub {sub} for {v}");
        tier * SUB_COUNT + sub
    }

    /// Representative (upper-edge) value of bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        let tier = idx / SUB_COUNT;
        let sub = (idx % SUB_COUNT) as u64;
        if tier == 0 {
            return sub;
        }
        ((sub + 1) << tier) - 1
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.tail_push(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q ∈ [0,1]`. Quantiles whose rank lands within the
    /// retained exact tail (the largest `TAIL_KEEP` values — p99.9 of a
    /// million-sample run, *every* quantile of a small run) are exact order
    /// statistics; lower ranks fall back to the bucket approximation
    /// (≈1.6 % relative error). Min/max are always exact. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_inner(q, &mut None)
    }

    /// Values at several quantiles at once. Equivalent to calling
    /// [`Self::quantile`] per entry, but the exact-tail buffer is sorted at
    /// most once for the whole batch — use this on report paths that
    /// summarize many percentiles of the same histogram.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut sorted_tail = None;
        qs.map(|q| self.quantile_inner(q, &mut sorted_tail))
    }

    /// [`Self::quantile`] with a caller-held cache of the descending-sorted
    /// tail, filled on first use so a batch of queries sorts once.
    fn quantile_inner(&self, q: f64, sorted_tail: &mut Option<Vec<u64>>) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let from_top = self.count - target; // 0 = the maximum
        if (from_top as usize) < self.tail_exact_len() {
            // Rank falls inside the exact tail: return the true order
            // statistic. Queries are rare (report time), so sorting a copy
            // here beats paying for ordering on every record.
            let sorted = sorted_tail.get_or_insert_with(|| {
                let mut s = self.tail.clone();
                s.sort_unstable_by(|a, b| b.cmp(a));
                s
            });
            return sorted[from_top as usize];
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Iterate `(bucket_upper_value, count)` over non-empty buckets,
    /// ascending — the raw material for CDFs.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_value(i), c))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // Top-K of a union is the top-K of the two top-Ks, and every entry
        // in `other.tail` is a genuinely recorded value, so offering the
        // whole buffer (a superset of other's top-K) preserves exactness.
        for &v in other.tail.iter() {
            self.tail_push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_COUNT as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_COUNT as u64 - 1);
        // Every small value sits in its own bucket.
        assert_eq!(h.iter_buckets().count(), SUB_COUNT);
    }

    #[test]
    fn mean_is_exact_regardless_of_bucketing() {
        let mut h = Histogram::new();
        let values = [12_000u64, 16_000, 1_500_000, 28_000, 44_000];
        for &v in &values {
            h.record(v);
        }
        let expect = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean() - expect).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        // Latencies spanning us to ms.
        let mut vals: Vec<u64> = (0..10_000).map(|i| 1_000 + i * 173).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = vals[((q * vals.len() as f64) as usize).min(vals.len() - 1)];
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.05, "q={q}: approx {approx} vs exact {exact} (rel {rel})");
        }
        assert_eq!(h.quantile(0.0), *vals.first().unwrap());
        assert_eq!(h.quantile(1.0), *vals.last().unwrap());
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1_000);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn tail_quantiles_are_exact_order_statistics() {
        // With fewer than TAIL_KEEP samples, *every* quantile is exact.
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..800u64).map(|i| 10_007 * (i * 37 % 800) + 991).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let target = (q * vals.len() as f64).ceil() as usize;
            let exact = vals[target - 1];
            assert_eq!(h.quantile(q), exact, "q={q} not exact");
        }
        assert_eq!(h.quantile(1.0), *vals.last().unwrap());
    }

    #[test]
    fn tail_stays_exact_past_capacity() {
        // 100k samples: p50 uses buckets, but p99.9 ranks inside the
        // retained top-1024 and must be the true order statistic.
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..100_000u64).map(|i| 1_000 + (i * 48_271 % 100_000) * 173).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.99, 0.999, 0.9999] {
            let target = (q * vals.len() as f64).ceil() as usize;
            assert_eq!(h.quantile(q), vals[target - 1], "q={q} not exact");
        }
    }

    #[test]
    fn merge_preserves_exact_tail() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Vec::new();
        for i in 0..3_000u64 {
            let v = 5_000 + (i * 127) % 90_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.push(v);
        }
        a.merge(&b);
        all.sort_unstable();
        let target = (0.999 * all.len() as f64).ceil() as usize;
        assert_eq!(a.quantile(0.999), all[target - 1]);
        assert_eq!(a.max(), *all.last().unwrap());
    }

    #[test]
    fn tied_values_survive_tail_compaction() {
        // Thousands of copies of one value force repeated buffer
        // compactions where every candidate ties at the cut; the retained
        // multiset must still be exact.
        let mut h = Histogram::new();
        for _ in 0..5 * TAIL_KEEP {
            h.record(42_000);
        }
        h.record(99_000);
        assert_eq!(h.quantile(0.999), 42_000);
        assert_eq!(h.quantile(1.0), 99_000);
        assert_eq!(h.count(), 5 * TAIL_KEEP as u64 + 1);
    }

    #[test]
    fn batched_quantiles_match_single_queries() {
        let mut h = Histogram::new();
        for i in 0..30_000u64 {
            h.record(1_000 + (i * 48_271) % 500_000);
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];
        let batch = h.quantiles(qs);
        for (q, b) in qs.iter().zip(batch) {
            assert_eq!(h.quantile(*q), b, "q={q}");
        }
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut prev = 0;
        for v in (0..1u64 << 40).step_by(1 << 22) {
            let b = Histogram::bucket_of(v);
            assert!(b >= prev, "bucket index regressed at {v}");
            prev = b;
        }
    }

    #[test]
    fn bucket_value_is_within_bucket() {
        // For sampled values, bucket_value(bucket_of(v)) must be >= v and
        // within the relative error bound.
        for v in [1u64, 63, 64, 65, 127, 128, 1_000, 12_000, 1_500_000, 10_000_000_000] {
            let bv = Histogram::bucket_value(Histogram::bucket_of(v));
            assert!(bv >= v, "bucket value {bv} below {v}");
            assert!((bv as f64) <= v as f64 * 1.04 + 1.0, "bucket value {bv} too far above {v}");
        }
    }
}
