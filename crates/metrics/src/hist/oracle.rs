//! Reference implementation of [`Histogram`] — the dense layout the
//! windowed one replaced, one slot per (tier, mantissa slice) over every
//! tier, allocated up front — and the property tests that the two agree
//! on every observable for narrow, wide, extreme and empty streams, on
//! merges in both orders, and once frozen (read, recorded into, merged
//! into and merged from). The dense layout carries one fix over the
//! one it replaced: a tier for msb 63, without which a value of 2^63 or
//! more indexed past the end.

use cagc_harness::prop::*;

use super::{Histogram, SUB_BITS, SUB_COUNT, TAIL_KEEP};
use crate::Cdf;

const TIERS: usize = 64 - SUB_BITS as usize + 1;

/// The dense layout: `TIERS * SUB_COUNT` buckets, a sorted tail copy per
/// quantile batch, one bucket walk per quantile.
#[derive(Debug, Clone)]
struct Dense {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    tail: Vec<u64>,
    tail_floor: u64,
}

impl Dense {
    fn new() -> Self {
        let buckets = vec![0; TIERS * SUB_COUNT];
        Self { buckets, count: 0, sum: 0, min: u64::MAX, max: 0, tail: Vec::new(), tail_floor: 0 }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB_COUNT as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let tier = (msb - SUB_BITS + 1) as usize;
        tier * SUB_COUNT + (v >> tier) as usize
    }

    fn bucket_value(idx: usize) -> u64 {
        let (tier, sub) = (idx / SUB_COUNT, (idx % SUB_COUNT) as u64);
        if tier == 0 {
            return sub;
        }
        (sub << tier) | ((1 << tier) - 1)
    }

    fn tail_push(&mut self, v: u64) {
        if v < self.tail_floor {
            return;
        }
        self.tail.push(v);
        if self.tail.len() >= 2 * TAIL_KEEP {
            self.tail.select_nth_unstable_by(TAIL_KEEP - 1, |a, b| b.cmp(a));
            self.tail.truncate(TAIL_KEEP);
            self.tail_floor = self.tail[TAIL_KEEP - 1];
        }
    }

    fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.tail_push(v);
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn quantile(&self, q: f64, sorted_tail: &mut Option<Vec<u64>>) -> u64 {
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
        let from_top = self.count - target;
        if (from_top as usize) < self.count.min(TAIL_KEEP as u64) as usize {
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

    fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let nonzero = self.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
        nonzero.map(|(i, &c)| (Self::bucket_value(i), c))
    }

    fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &v in other.tail.iter() {
            self.tail_push(v);
        }
    }
}

/// Quantiles asked of both layouts: out of order, so a batch mixes tail
/// ranks and bucket ranks, with both ends, the clamped range and NaN.
const QS: [f64; 16] = [
    0.5, 0.0, 0.999, 0.01, 1.0, 0.9, 0.25, 0.9999, 1e-9, 0.75, 0.99, 0.5, -1.0, 2.0, f64::NAN,
    0.999_999,
];

/// Values a stream can hold besides its band: both sides of every tier
/// edge the index treats specially, and the middle of the top tier.
const EXTREMES: [u64; 11] =
    [0, 1, 63, 64, 65, 127, (1 << 63) - 1, 1 << 63, 3 << 62, u64::MAX - 1, u64::MAX];

/// One value of a stream over msb band `[lo, lo + width]`: `pick` chooses
/// a tier edge one time in eight (for an extreme stream) and otherwise
/// the bits `raw` keeps.
fn value(lo: u32, width: u32, extreme: bool, (pick, raw): (u32, u64)) -> u64 {
    if extreme && pick % 8 == 0 {
        return EXTREMES[(raw % EXTREMES.len() as u64) as usize];
    }
    let bits = (lo + pick % (width + 1)).min(64);
    if bits == 0 {
        0
    } else {
        raw >> (64 - bits)
    }
}

/// Both layouts fed `values`.
fn both(values: &[u64]) -> (Histogram, Dense) {
    let (mut h, mut d) = (Histogram::new(), Dense::new());
    for &v in values {
        h.record(v);
        d.record(v);
    }
    (h, d)
}

/// Every observable of `h` equals the oracle's.
fn assert_agrees(h: &Histogram, d: &Dense) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.count(), d.count);
    prop_assert_eq!(h.mean().to_bits(), d.mean().to_bits());
    prop_assert_eq!((h.min(), h.max()), (d.min(), d.max));
    let mut sorted_tail = None;
    let oracle = QS.map(|q| d.quantile(q, &mut sorted_tail));
    prop_assert_eq!(h.quantiles(QS), oracle);
    for (q, want) in QS.into_iter().zip(oracle) {
        prop_assert_eq!(h.quantile(q), want, "q = {}", q);
    }
    let buckets: Vec<(u64, u64)> = d.iter_buckets().collect();
    prop_assert_eq!(h.iter_buckets().collect::<Vec<_>>(), buckets.clone());
    let mut cum = 0;
    let points: Vec<(u64, f64)> = buckets
        .iter()
        .map(|&(v, c)| {
            cum += c;
            (v, cum as f64 / d.count as f64)
        })
        .collect();
    let cdf = Cdf::from_histogram(h);
    let cdf: Vec<(u64, f64)> = cdf.points().iter().map(|p| (p.value_ns, p.fraction)).collect();
    prop_assert_eq!(cdf, points);
    Ok(())
}

/// `a` merged with `b` in both orders agrees with the oracle's merges.
fn assert_merges_agree(a: &[u64], b: &[u64]) -> Result<(), TestCaseError> {
    let ((ha, da), (hb, db)) = (both(a), both(b));
    for ((h, d), (ho, dox)) in [((&ha, &da), (&hb, &db)), ((&hb, &db), (&ha, &da))] {
        let (mut h, mut d) = (h.clone(), d.clone());
        h.merge(ho);
        d.merge(dox);
        assert_agrees(&h, &d)?;
    }
    Ok(())
}

/// `a` recorded and frozen: its tail is exactly the largest
/// `min(count, TAIL_KEEP)` values, sorted descending, at that capacity,
/// and so is a clone's.
fn frozen(a: &[u64]) -> Result<(Histogram, Dense), TestCaseError> {
    let (mut h, d) = both(a);
    h.freeze();
    for h in [&h, &h.clone()] {
        prop_assert!(h.is_frozen());
        let keep = d.count.min(TAIL_KEEP as u64) as usize;
        let mut want = d.tail.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        want.truncate(keep);
        prop_assert_eq!(&h.tail, &want);
        prop_assert_eq!(h.tail.capacity(), keep);
    }
    Ok((h, d))
}

/// A frozen `a` agrees with the oracle as it is, after `b` is recorded
/// into it, after `b` is merged into it, after it is merged into `b`,
/// and frozen again after each.
fn assert_freezes_agree(a: &[u64], b: &[u64]) -> Result<(), TestCaseError> {
    let (fa, da) = frozen(a)?;
    let (hb, db) = both(b);
    assert_agrees(&fa, &da)?;
    let (mut recorded, mut d_recorded) = (fa.clone(), da.clone());
    for &v in b {
        recorded.record(v);
        d_recorded.record(v);
    }
    let (mut into, mut d_into) = (fa.clone(), da.clone());
    into.merge(&hb);
    d_into.merge(&db);
    let (mut from, mut d_from) = (hb.clone(), db.clone());
    from.merge(&fa);
    d_from.merge(&da);
    for (mut h, d) in [(recorded, d_recorded), (into, d_into), (from, d_from)] {
        assert_agrees(&h, &d)?;
        h.freeze();
        assert_agrees(&h, &d)?;
    }
    Ok(())
}

harness_proptest! {
    #![config(cases = 256)]
    /// Streams over any msb band — a narrow one when `width` is small, a
    /// wide one when it is large, empty when `draws` is — with tier edges
    /// mixed in for an extreme stream; long enough to compact the tail.
    #[test]
    fn the_window_reads_like_the_dense_layout(
        lo in 0u32..65,
        width in 0u32..65,
        extreme in any::<bool>(),
        draws in vec((any::<u32>(), any::<u64>()), 0..2_500)
    ) {
        let values: Vec<u64> = draws.into_iter().map(|d| value(lo, width, extreme, d)).collect();
        let (h, d) = both(&values);
        assert_agrees(&h, &d)?;
    }

    /// Two streams whose bands are `shift` tiers apart: overlapping
    /// windows when the shift is below the width, disjoint ones above,
    /// and one side empty when its draws are.
    #[test]
    fn merged_windows_read_like_merged_dense_layouts(
        lo in 0u32..65,
        width in 0u32..8,
        shift in 0u32..24,
        extreme in any::<bool>(),
        a in vec((any::<u32>(), any::<u64>()), 0..1_500),
        b in vec((any::<u32>(), any::<u64>()), 0..1_500)
    ) {
        let a: Vec<u64> = a.into_iter().map(|d| value(lo, width, extreme, d)).collect();
        let b: Vec<u64> = b.into_iter().map(|d| value(lo + shift, width, extreme, d)).collect();
        assert_merges_agree(&a, &b)?;
    }

    /// A frozen histogram reads like the oracle, and so does one that
    /// takes values after freezing: recorded one by one, merged in, or
    /// merged from it into another. `a` runs past `TAIL_KEEP` values
    /// often, so the tail is cut as well as sorted.
    #[test]
    fn a_frozen_window_reads_like_the_dense_layout(
        lo in 0u32..65,
        width in 0u32..8,
        shift in 0u32..24,
        extreme in any::<bool>(),
        a in vec((any::<u32>(), any::<u64>()), 0..2_500),
        b in vec((any::<u32>(), any::<u64>()), 0..1_500)
    ) {
        let a: Vec<u64> = a.into_iter().map(|d| value(lo, width, extreme, d)).collect();
        let b: Vec<u64> = b.into_iter().map(|d| value(lo + shift, width, extreme, d)).collect();
        assert_freezes_agree(&a, &b)?;
    }
}

/// The layouts' corner cases by name, so that a change to the random
/// generator cannot silently stop covering one.
#[test]
fn named_corner_cases_match_the_oracle() {
    let one_tier: Vec<u64> = (1_000..1_024).collect();
    let far: Vec<u64> = (0..50).map(|i| (1 << 40) + i * 977).collect();
    let streams: [&[u64]; 6] = [&[], &[0], &[63, 64], &EXTREMES, &one_tier, &far];
    for a in streams {
        let (h, d) = both(a);
        assert_agrees(&h, &d).unwrap_or_else(|e| panic!("{a:?}: {e}"));
        for b in streams {
            assert_merges_agree(a, b).unwrap_or_else(|e| panic!("{a:?} + {b:?}: {e}"));
            assert_freezes_agree(a, b).unwrap_or_else(|e| panic!("frozen {a:?} + {b:?}: {e}"));
        }
    }
}
