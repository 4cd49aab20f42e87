//! A content-id → fingerprint memo table, **retained only for the
//! benchmark's `dedup.fp_cached_ns` probe**.
//!
//! Nothing in the workspace calls this any more:
//! [`Fingerprint::of_content`] is a few-nanosecond mix, cheaper than a
//! probe of this table, so the simulator computes fingerprints where it
//! needs them and no per-thread memo exists. `benchmark/` (which the PR
//! that retired the memo could not edit) still compiles against
//! [`FingerprintCache::new`] and [`FingerprintCache::get_or_insert`];
//! this module goes in the next `benchmark` PR, with that probe.

use crate::fingerprint::{ContentId, Fingerprint};

/// One memo cell, exactly half a cache line and aligned to it, so a probe
/// never straddles two lines (an `Option<(u64, Fingerprint)>` is 40 bytes
/// and did on two probes in five).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Cell {
    key: u64,
    fp: Fingerprint,
    occupied: bool,
}

const VACANT: Cell = Cell {
    key: 0,
    fp: Fingerprint([0; 20]),
    occupied: false,
};

/// Memo table from content id to its fingerprint (see module docs).
#[derive(Debug, Clone, Default)]
pub struct FingerprintCache {
    /// Open-addressed, linear-probe cells.
    cells: Vec<Cell>,
    len: usize,
}

/// SplitMix64 finalizer: content ids are often small and sequential, so
/// they need mixing before they index a power-of-two table.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FingerprintCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct contents memoized.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fingerprint of `id`, computed (and memoized) on first sight.
    /// Exactly equal to `Fingerprint::of_content(id)`.
    pub fn get_or_insert(&mut self, id: ContentId) -> Fingerprint {
        if self.cells.is_empty() {
            self.cells = vec![VACANT; 64];
        } else if (self.len + 1) * 4 > self.cells.len() * 3 {
            self.grow();
        }
        let mask = self.cells.len() - 1;
        let mut i = (mix(id.0) as usize) & mask;
        loop {
            let c = &self.cells[i];
            if !c.occupied {
                let fp = Fingerprint::of_content(id);
                self.cells[i] = Cell {
                    key: id.0,
                    fp,
                    occupied: true,
                };
                self.len += 1;
                return fp;
            }
            if c.key == id.0 {
                return c.fp;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let mut bigger = vec![VACANT; self.cells.len() * 2];
        let mask = bigger.len() - 1;
        for cell in self.cells.drain(..).filter(|c| c.occupied) {
            let mut i = (mix(cell.key) as usize) & mask;
            while bigger[i].occupied {
                i = (i + 1) & mask;
            }
            bigger[i] = cell;
        }
        self.cells = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoized_fingerprints_match_direct_computation() {
        let mut cache = FingerprintCache::new();
        for i in 0..500u64 {
            let id = ContentId(i.wrapping_mul(0x1234_5678_9ABC_DEF1));
            assert_eq!(cache.get_or_insert(id), Fingerprint::of_content(id));
        }
        // Second pass hits the memo and still agrees.
        for i in 0..500u64 {
            let id = ContentId(i.wrapping_mul(0x1234_5678_9ABC_DEF1));
            assert_eq!(cache.get_or_insert(id), Fingerprint::of_content(id));
        }
        assert_eq!(cache.len(), 500);
    }

    #[test]
    fn cell_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Cell>(), 32);
        assert_eq!(std::mem::align_of::<Cell>(), 32);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut cache = FingerprintCache::new();
        let first = cache.get_or_insert(ContentId(7));
        for i in 0..200u64 {
            cache.get_or_insert(ContentId(i));
        }
        assert_eq!(cache.get_or_insert(ContentId(7)), first);
        assert_eq!(cache.len(), 200, "0..200 includes the initial id 7");
    }
}
