//! PPN → LPNs reverse map.
//!
//! GC migrates physical pages, but the state that must be updated is
//! logical: every LPN that points at the migrated PPN has to be remapped.
//! Without dedup each PPN has exactly one LPN; with dedup a popular page
//! may be shared by many. The reverse map tracks that set per PPN.
//!
//! # Representation
//!
//! The map is on the GC hot path (every migrated page consults its sharer
//! set; every host overwrite removes one pair), so it is a dense
//! `Vec<RSlot>` indexed by PPN rather than a `HashMap<Ppn, Vec<Lpn>>`.
//! The overwhelmingly common case — a page with exactly one sharer — is
//! stored inline (`RSlot::One`) with no heap allocation at all; a `Vec`
//! is only materialized once a second sharer appears (a dedup share), and
//! is dropped again when the set shrinks back to one. Iteration order and
//! the multiset semantics of the original `HashMap` version are preserved
//! exactly; `iter` now walks PPNs in ascending order (callers treat the
//! order as unspecified).

use crate::mapping::Lpn;
use cagc_flash::Ppn;

/// Per-PPN sharer set: empty, one inline LPN, or a spilled vector.
#[derive(Debug, Clone, Default)]
enum RSlot {
    /// No LPN references this PPN.
    #[default]
    Empty,
    /// Exactly one sharer, stored inline (the common, allocation-free case).
    One(Lpn),
    /// Two or more sharers (a deduplicated page).
    Many(Vec<Lpn>),
}

/// Reverse mapping from physical page to the logical pages backed by it.
#[derive(Debug, Clone, Default)]
pub struct ReverseMap {
    slots: Vec<RSlot>,
    /// `pos[lpn]` = index of `lpn` inside its PPN's [`RSlot::Many`] vector,
    /// making [`ReverseMap::remove`] O(1) instead of a linear scan (a hot
    /// dedup page can have thousands of sharers, and every host overwrite
    /// of one of them removes a pair). Maintained on every add/remove;
    /// meaningless (stale) for LPNs not currently in a `Many` slot. With
    /// duplicate LPN entries (multiset semantics) it points at *one*
    /// occurrence, which is equally valid to remove since they are
    /// indistinguishable.
    pos: Vec<u32>,
    /// Number of PPNs with at least one sharer.
    occupied: usize,
    /// Total LPN references across all PPNs.
    total: u64,
}

impl ReverseMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of PPNs with at least one LPN.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no PPN is referenced.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Bytes the map holds on the heap: the dense slot vector, every
    /// spilled sharer vector and the positional index. O(slots): a
    /// diagnostic, not a hot-path query.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let spilled: usize = self
            .slots
            .iter()
            .map(|s| match s {
                RSlot::Many(v) => v.capacity() * size_of::<Lpn>(),
                RSlot::Empty | RSlot::One(_) => 0,
            })
            .sum();
        self.slots.capacity() * size_of::<RSlot>() + spilled + self.pos.capacity() * size_of::<u32>()
    }

    fn slot_mut(&mut self, ppn: Ppn) -> &mut RSlot {
        let i = ppn as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, RSlot::default);
        }
        &mut self.slots[i]
    }

    /// Grow the positional index to cover `lpn` and record its position.
    #[inline]
    fn set_pos(pos: &mut Vec<u32>, lpn: Lpn, p: u32) {
        let i = lpn as usize;
        if i >= pos.len() {
            pos.resize(i + 1, 0);
        }
        pos[i] = p;
    }

    /// Record that `lpn` now points at `ppn`.
    #[inline]
    pub fn add(&mut self, ppn: Ppn, lpn: Lpn) {
        let i = ppn as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, RSlot::default);
        }
        let slot = &mut self.slots[i];
        match slot {
            RSlot::Empty => {
                *slot = RSlot::One(lpn);
                self.occupied += 1;
            }
            RSlot::One(first) => {
                let f = *first;
                *slot = RSlot::Many(vec![f, lpn]);
                Self::set_pos(&mut self.pos, f, 0);
                Self::set_pos(&mut self.pos, lpn, 1);
            }
            RSlot::Many(v) => {
                let p = v.len() as u32;
                v.push(lpn);
                Self::set_pos(&mut self.pos, lpn, p);
            }
        }
        self.total += 1;
    }

    /// Record that `lpn` no longer points at `ppn`. Returns how many LPNs
    /// still reference the PPN.
    ///
    /// # Panics
    /// Panics if the pair was not present — the forward and reverse maps
    /// must never disagree.
    #[inline]
    pub fn remove(&mut self, ppn: Ppn, lpn: Lpn) -> usize {
        let slot = self
            .slots
            .get_mut(ppn as usize)
            .filter(|s| !matches!(s, RSlot::Empty))
            .unwrap_or_else(|| panic!("reverse map: ppn {ppn} untracked"));
        let remaining = match slot {
            RSlot::Empty => unreachable!("filtered above"),
            RSlot::One(l) => {
                assert!(*l == lpn, "reverse map: lpn {lpn} not under ppn {ppn}");
                *slot = RSlot::Empty;
                self.occupied -= 1;
                0
            }
            RSlot::Many(v) => {
                // O(1) via the positional index; the hint is only trusted
                // when it actually points at `lpn`, so a stale entry (from
                // duplicate-LPN multiset use) degrades to the scan instead
                // of corrupting the set.
                let hint = self.pos.get(lpn as usize).copied().unwrap_or(0) as usize;
                let i = if v.get(hint) == Some(&lpn) {
                    hint
                } else {
                    v.iter()
                        .position(|&l| l == lpn)
                        .unwrap_or_else(|| panic!("reverse map: lpn {lpn} not under ppn {ppn}"))
                };
                v.swap_remove(i);
                if let Some(&moved) = v.get(i) {
                    self.pos[moved as usize] = i as u32;
                }
                if v.len() == 1 {
                    // Shrink back to the inline representation, releasing
                    // the spill vector.
                    *slot = RSlot::One(v[0]);
                    1
                } else {
                    v.len()
                }
            }
        };
        self.total -= 1;
        remaining
    }

    /// LPNs currently backed by `ppn` (empty slice if none).
    pub fn lpns(&self, ppn: Ppn) -> &[Lpn] {
        match self.slots.get(ppn as usize) {
            Some(RSlot::One(l)) => std::slice::from_ref(l),
            Some(RSlot::Many(v)) => v.as_slice(),
            _ => &[],
        }
    }

    /// Number of LPNs backed by `ppn`.
    pub fn count(&self, ppn: Ppn) -> usize {
        match self.slots.get(ppn as usize) {
            Some(RSlot::One(_)) => 1,
            Some(RSlot::Many(v)) => v.len(),
            _ => 0,
        }
    }

    /// Detach and return `ppn`'s whole sharer slot, fixing up the counters.
    fn take_slot(&mut self, ppn: Ppn) -> RSlot {
        let Some(slot) = self.slots.get_mut(ppn as usize) else {
            return RSlot::Empty;
        };
        let taken = std::mem::take(slot);
        match &taken {
            RSlot::Empty => {}
            RSlot::One(_) => {
                self.occupied -= 1;
                self.total -= 1;
            }
            RSlot::Many(v) => {
                self.occupied -= 1;
                self.total -= v.len() as u64;
            }
        }
        taken
    }

    /// Remove and return all LPNs of `ppn` (migration: the set will be
    /// re-added under the destination PPN).
    pub fn take(&mut self, ppn: Ppn) -> Vec<Lpn> {
        match self.take_slot(ppn) {
            RSlot::Empty => Vec::new(),
            RSlot::One(l) => vec![l],
            RSlot::Many(v) => v,
        }
    }

    /// [`ReverseMap::take`] into a caller-owned scratch buffer: `out` is
    /// cleared and filled with `ppn`'s former sharers. Lets the GC hot path
    /// reuse one allocation across migrations.
    pub fn take_into(&mut self, ppn: Ppn, out: &mut Vec<Lpn>) {
        out.clear();
        match self.take_slot(ppn) {
            RSlot::Empty => {}
            RSlot::One(l) => out.push(l),
            RSlot::Many(v) => out.extend_from_slice(&v),
        }
    }

    /// Move `from`'s entire sharer set under `to`, which must currently be
    /// empty (GC relocation of a page to a fresh destination). O(1): the
    /// slot moves wholesale, without visiting individual LPNs.
    ///
    /// # Panics
    /// Panics if `from` is untracked or `to` already has sharers.
    pub fn relocate(&mut self, from: Ppn, to: Ppn) {
        assert!(
            self.count(to) == 0,
            "reverse map: relocate target ppn {to} occupied"
        );
        let slot = self
            .slots
            .get_mut(from as usize)
            .filter(|s| !matches!(s, RSlot::Empty))
            .unwrap_or_else(|| panic!("reverse map: ppn {from} untracked"));
        let moved = std::mem::take(slot);
        *self.slot_mut(to) = moved;
        // occupied/total are unchanged: one slot emptied, one filled.
    }

    /// Total LPN references across all PPNs (= mapped LPN count; used by
    /// consistency audits).
    pub fn total_refs(&self) -> u64 {
        self.total
    }

    /// Iterate `(ppn, sharing LPNs)` over all referenced physical pages
    /// (order unspecified; audits and reports only).
    pub fn iter(&self) -> impl Iterator<Item = (Ppn, &[Lpn])> {
        self.slots.iter().enumerate().filter_map(|(p, s)| match s {
            RSlot::Empty => None,
            RSlot::One(l) => Some((p as Ppn, std::slice::from_ref(l))),
            RSlot::Many(v) => Some((p as Ppn, v.as_slice())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trip() {
        let mut r = ReverseMap::new();
        r.add(10, 1);
        r.add(10, 2);
        assert_eq!(r.count(10), 2);
        assert_eq!(r.remove(10, 1), 1);
        assert_eq!(r.lpns(10), &[2]);
        assert_eq!(r.remove(10, 2), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn heap_bytes_counts_spilled_sharer_sets() {
        let mut r = ReverseMap::new();
        assert_eq!(r.heap_bytes(), 0, "an empty map allocates nothing");
        r.add(3, 1);
        let inline = r.heap_bytes();
        assert_eq!(inline, r.slots.capacity() * std::mem::size_of::<RSlot>());
        r.add(3, 2);
        let RSlot::Many(v) = &r.slots[3] else { panic!("second sharer spills") };
        let spilled = v.capacity() * std::mem::size_of::<Lpn>();
        assert_eq!(r.heap_bytes(), inline + spilled + r.pos.capacity() * 4);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn removing_unknown_ppn_panics() {
        ReverseMap::new().remove(5, 1);
    }

    #[test]
    #[should_panic(expected = "not under")]
    fn removing_unknown_lpn_panics() {
        let mut r = ReverseMap::new();
        r.add(5, 1);
        r.remove(5, 2);
    }

    #[test]
    fn take_empties_the_ppn() {
        let mut r = ReverseMap::new();
        r.add(7, 1);
        r.add(7, 2);
        let mut taken = r.take(7);
        taken.sort_unstable();
        assert_eq!(taken, vec![1, 2]);
        assert_eq!(r.count(7), 0);
        assert!(r.take(7).is_empty()); // idempotent on empty
    }

    #[test]
    fn take_into_reuses_the_scratch_buffer() {
        let mut r = ReverseMap::new();
        r.add(7, 1);
        r.add(7, 2);
        r.add(8, 3);
        let mut scratch = Vec::new();
        r.take_into(7, &mut scratch);
        scratch.sort_unstable();
        assert_eq!(scratch, vec![1, 2]);
        assert_eq!(r.count(7), 0);
        r.take_into(8, &mut scratch); // clears the previous contents
        assert_eq!(scratch, vec![3]);
        r.take_into(9, &mut scratch); // empty ppn leaves it empty
        assert!(scratch.is_empty());
        assert_eq!(r.total_refs(), 0);
    }

    #[test]
    fn relocate_moves_the_slot_wholesale() {
        let mut r = ReverseMap::new();
        r.add(4, 40);
        r.add(4, 41);
        r.add(5, 50);
        r.relocate(4, 9);
        assert_eq!(r.count(4), 0);
        let mut moved = r.lpns(9).to_vec();
        moved.sort_unstable();
        assert_eq!(moved, vec![40, 41]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_refs(), 3);
        // Single-sharer slots move too.
        r.relocate(5, 4);
        assert_eq!(r.lpns(4), &[50]);
    }

    #[test]
    #[should_panic(expected = "untracked")]
    fn relocating_unknown_ppn_panics() {
        ReverseMap::new().relocate(1, 2);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn relocating_onto_occupied_target_panics() {
        let mut r = ReverseMap::new();
        r.add(1, 10);
        r.add(2, 20);
        r.relocate(1, 2);
    }

    #[test]
    fn large_sharer_sets_remove_in_any_order() {
        // Exercises the positional index across swap_remove reshuffles:
        // remove from the middle, the ends, and interleave with re-adds.
        let mut r = ReverseMap::new();
        for l in 0..100 {
            r.add(1, l);
        }
        for l in (0..100).step_by(3) {
            assert!(r.remove(1, l) > 0);
        }
        for l in 0..100u64 {
            if l % 3 == 0 {
                r.add(1, l); // back in, at a fresh position
            }
        }
        assert_eq!(r.count(1), 100);
        let mut left: Vec<u64> = (0..100).collect();
        // Drain in an order unrelated to insertion order.
        while let Some(l) = left.pop() {
            r.remove(1, l);
        }
        assert_eq!(r.count(1), 0);
        assert_eq!(r.total_refs(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_lpn_entries_are_counted_separately() {
        // Shouldn't occur in a consistent FTL, but the structure itself is
        // a multiset and removal takes one occurrence at a time.
        let mut r = ReverseMap::new();
        r.add(3, 9);
        r.add(3, 9);
        assert_eq!(r.count(3), 2);
        assert_eq!(r.remove(3, 9), 1);
        assert_eq!(r.remove(3, 9), 0);
    }
}
