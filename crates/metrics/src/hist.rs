//! Log-bucket latency histogram.
//!
//! An HDR-style histogram: values are bucketed by (exponent, mantissa-slice)
//! with `SUB_BITS` significant bits kept per value, giving a bounded
//! relative error of `2^-(SUB_BITS-1)` (≈3.1 % with the default 6 bits)
//! across the full `u64` range. Used for response-time distributions
//! (Fig. 11 means, Fig. 12 CDFs, tail percentiles).
//!
//! The bucket index is compact: 64 exact slots for values below 64, then
//! 32 slots per tier (a tier is the values sharing a most significant
//! bit, and a value of 64 or more keeps only the top 32 of its tier's 64
//! mantissa slices), up to msb 63 — 1 920 slots in all. A histogram holds
//! one contiguous window of that index, covering only the tiers its values
//! have reached: an empty histogram allocates nothing, and a stream of
//! latencies from 1 µs to 1 s holds 21 tiers, 672 slots.

const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Slots per tier above tier 0: the upper half of its mantissa slices.
const TIER_SLOTS: usize = SUB_COUNT / 2;
/// Exact values retained for the upper tail: quantiles whose rank falls
/// within the largest `TAIL_KEEP` recorded values (p99.9 of a ≤1M-sample
/// run, every quantile of a ≤1024-sample run) are exact order statistics,
/// not bucket approximations. Bounded memory, amortized O(1) per record.
const TAIL_KEEP: usize = 1024;

/// A log-bucket histogram over `u64` values (nanoseconds) whose buckets
/// span only the tiers its values reach.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of the index slots `base..base + buckets.len()`; the window
    /// starts and ends on tier boundaries, and is empty until the first
    /// value. A boxed slice: it only ever changes size by reallocation.
    buckets: Box<[u64]>,
    /// First slot of the window (the index has 1 920 slots).
    base: u32,
    /// Set by [`Self::freeze`]: `tail` is exactly the largest
    /// `min(count, TAIL_KEEP)` values, sorted descending, at that
    /// capacity. The next value the tail takes in clears it.
    frozen: bool,
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
    /// An empty histogram. Allocates nothing.
    pub fn new() -> Self {
        Self {
            buckets: Box::default(),
            base: 0,
            frozen: false,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            tail: Vec::new(),
            tail_floor: 0,
        }
    }

    /// Bytes the histogram holds on the heap: its bucket window and the
    /// exact-tail buffer.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.buckets) + self.tail_bytes()
    }

    /// Bytes the exact-tail buffer holds on the heap (its capacity).
    pub fn tail_bytes(&self) -> usize {
        self.tail.capacity() * std::mem::size_of::<u64>()
    }

    /// Finish the histogram for reading: the exact tail keeps only the
    /// largest `min(count, TAIL_KEEP)` values, sorted descending, at
    /// exactly that capacity, so [`Self::quantiles`] reads its ranks by
    /// index and a clone copies at most `TAIL_KEEP` values. Every answer
    /// stays what it was. A later [`Self::record`] or [`Self::merge`]
    /// whose values reach the tail makes the histogram an ordinary one
    /// again.
    pub fn freeze(&mut self) {
        let keep = self.tail_exact_len();
        if self.tail.len() > keep {
            self.tail.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a));
            self.tail.truncate(keep);
        }
        self.tail.sort_unstable_by(|a, b| b.cmp(a));
        self.tail.shrink_to_fit();
        if keep == TAIL_KEEP {
            // Now the true K-th largest: what falls below it stays frozen.
            self.tail_floor = self.tail[keep - 1];
        }
        self.frozen = true;
    }

    /// Whether [`Self::freeze`] ran and no value has reached the tail since.
    pub fn is_frozen(&self) -> bool {
        self.frozen
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
        self.frozen = false;
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

    /// Index slot of `v`.
    #[inline]
    fn slot_of(v: u64) -> usize {
        if v < SUB_COUNT as u64 {
            return v as usize; // exact in tier 0
        }
        // msb >= SUB_BITS here. Values in tier t keep their top SUB_BITS
        // bits: sub = v >> t lands in [TIER_SLOTS, SUB_COUNT), so tier t
        // takes the slots [(t + 1) * TIER_SLOTS, (t + 2) * TIER_SLOTS).
        let msb = 63 - v.leading_zeros();
        let tier = (msb - SUB_BITS + 1) as usize;
        let sub = (v >> tier) as usize;
        debug_assert!((TIER_SLOTS..SUB_COUNT).contains(&sub), "sub {sub} for {v}");
        tier * TIER_SLOTS + sub
    }

    /// The slots of the tier holding `slot`.
    fn tier_of(slot: usize) -> std::ops::Range<usize> {
        if slot < SUB_COUNT {
            return 0..SUB_COUNT;
        }
        let start = slot - slot % TIER_SLOTS;
        start..start + TIER_SLOTS
    }

    /// Representative (upper-edge) value of index slot `slot`.
    fn bucket_value(slot: usize) -> u64 {
        if slot < SUB_COUNT {
            return slot as u64;
        }
        let tier = slot / TIER_SLOTS - 1;
        let sub = (slot % TIER_SLOTS + TIER_SLOTS) as u64;
        // `(sub + 1) << tier` would overflow in the top tier.
        (sub << tier) | ((1 << tier) - 1)
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let slot = Self::slot_of(v);
        match self.buckets.get_mut(slot.wrapping_sub(self.base as usize)) {
            Some(c) => *c += 1,
            None => self.record_outside(slot),
        }
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.tail_push(v);
    }

    /// Count a value whose slot lies outside the window: the window grows
    /// by the slot's tier (and the tiers between) first.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, slot: usize) {
        self.widen(Self::tier_of(slot));
        self.buckets[slot - self.base as usize] += 1;
    }

    /// Grow the window to its union with `slots`, which start and end on
    /// tier boundaries. The new window is allocated at its exact size.
    fn widen(&mut self, slots: std::ops::Range<usize>) {
        let lo = self.base as usize;
        let hi = lo + self.buckets.len();
        if self.buckets.is_empty() {
            self.buckets = vec![0; slots.len()].into_boxed_slice();
            self.base = slots.start as u32;
        } else if slots.start < lo || slots.end > hi {
            let (start, end) = (slots.start.min(lo), slots.end.max(hi));
            let mut buckets = vec![0; end - start];
            buckets[lo - start..hi - start].copy_from_slice(&self.buckets);
            self.buckets = buckets.into_boxed_slice();
            self.base = start as u32;
        }
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
    /// (≈3.1 % relative error). Min/max are always exact. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantiles([q])[0]
    }

    /// Values at several quantiles at once, each equal to what
    /// [`Self::quantile`] returns for it. The batch costs one walk over
    /// the buckets, plus, for tail ranks, one copy of the exact-tail
    /// buffer narrowed by a quickselect per rank — or, once
    /// [`Self::freeze`] has sorted the tail, one index per rank and no
    /// allocation. Use this on report paths that summarize many
    /// percentiles of the same histogram.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        if self.count == 0 {
            return [0; N];
        }
        // Unanswered entries keep the walk's fallback, the maximum.
        let mut out = [self.max; N];
        // (rank from the top, entry) for the exact tail, and (rank from
        // the bottom, entry) for the bucket walk.
        let (mut tail, mut walk) = ([(0, 0); N], [(0, 0); N]);
        let (mut n_tail, mut n_walk) = (0, 0);
        for (i, q) in qs.into_iter().enumerate() {
            let q = q.clamp(0.0, 1.0);
            if q.is_nan() || q <= 0.0 {
                out[i] = self.min;
            } else if q < 1.0 {
                let target = (q * self.count as f64).ceil() as u64;
                let from_top = self.count.saturating_sub(target) as usize;
                if from_top < self.tail_exact_len() {
                    tail[n_tail] = (from_top, i);
                    n_tail += 1;
                } else {
                    walk[n_walk] = (target, i);
                    n_walk += 1;
                }
            }
        }
        if self.frozen {
            // The tail is the top ranks in order: read them.
            for &(rank, i) in &tail[..n_tail] {
                out[i] = self.tail[rank];
            }
        } else if n_tail > 0 {
            // Rank falls inside the exact tail: the true order statistic.
            // Ascending ranks each select within what the previous left
            // below it, so the batch partitions one copy, never sorts it.
            let tail = &mut tail[..n_tail];
            tail.sort_unstable();
            let mut values = self.tail.clone();
            let mut done = 0;
            for &(rank, i) in tail.iter() {
                let (_, v, _) = values[done..].select_nth_unstable_by(rank - done, |a, b| b.cmp(a));
                out[i] = *v;
                done = rank;
            }
        }
        let walk = &mut walk[..n_walk];
        walk.sort_unstable();
        let mut pending = walk.iter().peekable();
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            while let Some(&(_, entry)) = pending.next_if(|&&(target, _)| seen >= target) {
                out[entry] = Self::bucket_value(self.base as usize + i).min(self.max).max(self.min);
            }
            if pending.peek().is_none() {
                break;
            }
        }
        out
    }

    /// Iterate `(bucket_upper_value, count)` over non-empty buckets,
    /// ascending — the raw material for CDFs.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_value(self.base as usize + i), c))
    }

    /// Merge another histogram into this one; the window grows to the
    /// union of both.
    pub fn merge(&mut self, other: &Self) {
        if !other.buckets.is_empty() {
            let start = other.base as usize;
            self.widen(start..start + other.buckets.len());
            let at = start - self.base as usize;
            for (a, b) in self.buckets[at..].iter_mut().zip(other.buckets.iter()) {
                *a += b;
            }
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;

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
            let b = Histogram::slot_of(v);
            assert!(b >= prev, "bucket index regressed at {v}");
            prev = b;
        }
    }

    #[test]
    fn bucket_value_is_within_bucket() {
        // For sampled values, bucket_value(bucket_of(v)) must be >= v and
        // within the relative error bound.
        for v in [1u64, 63, 64, 65, 127, 128, 1_000, 12_000, 1_500_000, 10_000_000_000] {
            let bv = Histogram::bucket_value(Histogram::slot_of(v));
            assert!(bv >= v, "bucket value {bv} below {v}");
            assert!((bv as f64) <= v as f64 * 1.04 + 1.0, "bucket value {bv} too far above {v}");
        }
    }

    #[test]
    fn values_up_to_u64_max_are_recorded_and_read_back() {
        let values = [0, 63, 64, (1 << 63) - 1, 1 << 63, u64::MAX];
        let mut h = Histogram::new();
        let (mut low, mut high) = (Histogram::new(), Histogram::new());
        for (i, &v) in values.iter().enumerate() {
            h.record(v);
            if i < 3 {
                low.record(v)
            } else {
                high.record(v)
            }
        }
        let top = (1 << 63) + (1 << 58) - 1; // 2^63's bucket: the top tier's first
        let buckets = [(0, 1), (63, 1), (65, 1), ((1 << 63) - 1, 1), (top, 1), (u64::MAX, 1)];
        assert_eq!(h.iter_buckets().collect::<Vec<_>>(), buckets);
        assert_eq!((h.min(), h.max(), h.count()), (0, u64::MAX, 6));
        // Six values rank inside the exact tail: every quantile is one of them.
        let exact = [0, 63, 64, (1 << 63) - 1, u64::MAX, u64::MAX];
        assert_eq!(h.quantiles([0.0, 0.2, 0.5, 0.6, 0.9, 1.0]), exact);
        assert_eq!(h.quantile(0.7), 1 << 63);
        for (mut a, b) in [(low.clone(), &high), (high.clone(), &low)] {
            a.merge(b);
            assert_eq!(a.iter_buckets().collect::<Vec<_>>(), buckets);
            assert_eq!(a.quantiles([0.5, 0.7]), [64, 1 << 63]);
        }
        let cdf = Cdf::from_histogram(&h);
        let values: Vec<u64> = cdf.points().iter().map(|p| p.value_ns).collect();
        assert_eq!(values, buckets.map(|(v, _)| v));
        assert_eq!(cdf.points().last().map(|p| p.fraction), Some(1.0));
    }

    #[test]
    fn a_window_holds_only_the_tiers_its_values_reach() {
        assert_eq!(Histogram::new().heap_bytes(), 0, "an empty histogram allocates nothing");
        // Latencies from 1 µs to 1 s have msb 9 to 29: 21 tiers of 32
        // slots, 8 bytes each.
        let mut h = Histogram::new();
        let mut v = 1_000u64;
        while v < 1_000_000_000 {
            h.record(v);
            v += v / 16;
        }
        h.record(1_000_000_000);
        let window = |h: &Histogram| std::mem::size_of_val(&*h.buckets);
        assert_eq!(window(&h), 5376);
        let mut one = Histogram::new();
        one.record(1_000);
        assert_eq!(window(&one), 256, "one value, one tier");
        // A value at each end of the u64 range opens the whole index: 64
        // exact slots and 58 tiers of 32.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(window(&h), 15360);
    }

    #[test]
    fn a_frozen_tail_holds_at_most_1024_values_at_that_capacity() {
        let mut h = Histogram::new();
        for i in 0..3_000u64 {
            h.record(i * 7_919 % 3_001);
        }
        assert!(h.tail_bytes() > 8192, "a growing tail holds more than its top ranks");
        h.freeze();
        assert_eq!(h.tail_bytes(), 8192, "1 024 values of 8 B");
        assert_eq!(h.heap_bytes(), 8192 + std::mem::size_of_val(&*h.buckets));
        assert_eq!(h.clone().tail_bytes(), 8192, "a clone copies the frozen tail");
        let mut few = Histogram::new();
        [5, 9, 9].into_iter().for_each(|v| few.record(v));
        few.freeze();
        assert_eq!(few.tail_bytes(), 24, "below 1 024 values, all of them");
        assert_eq!(Histogram::new().tail_bytes(), 0);
    }

    #[test]
    fn a_histogram_is_96_bytes() {
        // Four sit inline in every `Ssd`, next to the fields the request
        // path touches: a `Vec` window (112 B) measurably slowed replay.
        assert_eq!(std::mem::size_of::<Histogram>(), 96);
    }
}
