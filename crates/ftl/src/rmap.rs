//! PPN → LPNs reverse map.
//!
//! GC migrates physical pages, but the state that must be updated is
//! logical: every LPN that points at the migrated PPN has to be remapped.
//! Without dedup each PPN has exactly one LPN; with dedup a popular page
//! may be shared by many. The reverse map tracks that set per PPN.
//!
//! # Representation
//!
//! The map is on the GC hot path (every migrated page walks its sharer
//! set; every host overwrite removes one pair), and an LPN sits under at
//! most one PPN at a time, so each sharer set is an intrusive doubly
//! linked list threaded through per-LPN cells. Three flat `u32` columns
//! hold it, with `u32::MAX` for "none":
//!
//! * `head[ppn]` — the first LPN of the PPN's sharer list;
//! * `link[lpn]` — the LPN's `[prev, next]` neighbours in that list;
//! * `owner[lpn]` — the PPN the LPN is linked under.
//!
//! That is 4 B per physical page plus 12 B per logical page, whatever
//! the sharing, and no per-set allocation: [`ReverseMap::with_pages`]
//! sizes the columns once from the geometry, while [`ReverseMap::new`]
//! starts empty and grows them to the largest PPN and LPN seen. `add`
//! pushes at the front and `remove` unlinks in O(1); the owner column
//! makes the "is this LPN under that PPN" check O(1) as well, instead of
//! a walk to the list head. Sharer order is unspecified — newest first
//! today — and no caller may depend on it. Entries are stored in 32 bits
//! behind the 64-bit [`Ppn`] / [`Lpn`] API, so a page number at or past
//! [`PAGE_LIMIT`] panics naming the limit.

use crate::mapping::{narrow, Lpn, PAGE_LIMIT};
use cagc_flash::Ppn;

/// Empty `head` / `owner` entry and end-of-list link.
const NIL: u32 = u32::MAX;

/// One LPN's neighbours in its PPN's sharer list (`NIL` at either end).
/// Meaningful only while the LPN's `owner` is set.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL };

/// Reverse mapping from physical page to the logical pages backed by it.
#[derive(Debug, Clone, Default)]
pub struct ReverseMap {
    head: Vec<u32>,
    link: Vec<Link>,
    owner: Vec<u32>,
    /// Number of PPNs with at least one sharer.
    occupied: usize,
    /// Total LPN references across all PPNs.
    total: u64,
}

impl ReverseMap {
    /// Empty map whose columns grow to the largest PPN and LPN added.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty map with its columns sized for `physical_pages` PPNs and
    /// `logical_pages` LPNs up front, so it never allocates again.
    pub fn with_pages(physical_pages: u64, logical_pages: u64) -> Self {
        let mut map = Self::new();
        map.grow_ppns(physical_pages);
        map.grow_lpns(logical_pages);
        map
    }

    fn grow_ppns(&mut self, pages: u64) {
        if pages as usize > self.head.len() {
            self.head.resize(pages as usize, NIL);
        }
    }

    fn grow_lpns(&mut self, pages: u64) {
        if pages as usize > self.owner.len() {
            self.link.resize(pages as usize, UNLINKED);
            self.owner.resize(pages as usize, NIL);
        }
    }

    /// Number of PPNs with at least one LPN.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no PPN is referenced.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Bytes the map holds on the heap: its three columns.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.head.capacity() * size_of::<u32>()
            + self.link.capacity() * size_of::<Link>()
            + self.owner.capacity() * size_of::<u32>()
    }

    fn head_of(&self, ppn: Ppn) -> u32 {
        self.head.get(ppn as usize).copied().unwrap_or(NIL)
    }

    /// Record that `lpn` now points at `ppn`.
    ///
    /// # Panics
    /// Panics if `lpn` is already linked under a PPN (the forward map is a
    /// function: an LPN is released before it is bound again), or if
    /// either number is at or past [`PAGE_LIMIT`].
    #[inline]
    pub fn add(&mut self, ppn: Ppn, lpn: Lpn) {
        let (p, l) = (narrow(ppn, "ppn"), narrow(lpn, "lpn"));
        self.grow_ppns(ppn + 1);
        self.grow_lpns(lpn + 1);
        let owner = self.owner[l as usize];
        assert!(owner == NIL, "reverse map: lpn {lpn} already under ppn {owner}");
        let first = self.head[p as usize];
        if first == NIL {
            self.occupied += 1;
        } else {
            self.link[first as usize].prev = l;
        }
        self.link[l as usize] = Link { prev: NIL, next: first };
        self.head[p as usize] = l;
        self.owner[l as usize] = p;
        self.total += 1;
    }

    /// Record that `lpn` no longer points at `ppn`. Returns whether other
    /// LPNs still reference the PPN. O(1).
    ///
    /// # Panics
    /// Panics if the pair was not present — the forward and reverse maps
    /// must never disagree.
    #[inline]
    pub fn remove(&mut self, ppn: Ppn, lpn: Lpn) -> bool {
        assert!(self.head_of(ppn) != NIL, "reverse map: ppn {ppn} untracked");
        // A tracked `ppn` is below `PAGE_LIMIT`, so it never equals `NIL`.
        let owner = self.owner.get(lpn as usize).copied().unwrap_or(NIL);
        assert!(u64::from(owner) == ppn, "reverse map: lpn {lpn} not under ppn {ppn}");
        let Link { prev, next } = self.link[lpn as usize];
        if prev == NIL {
            self.head[ppn as usize] = next;
        } else {
            self.link[prev as usize].next = next;
        }
        if next != NIL {
            self.link[next as usize].prev = prev;
        }
        self.owner[lpn as usize] = NIL;
        self.total -= 1;
        let shared = self.head[ppn as usize] != NIL;
        if !shared {
            self.occupied -= 1;
        }
        shared
    }

    /// The list starting at LPN `first`.
    fn walk(&self, first: u32) -> impl Iterator<Item = Lpn> + Clone + '_ {
        std::iter::successors((first != NIL).then_some(first), |&l| {
            let next = self.link[l as usize].next;
            (next != NIL).then_some(next)
        })
        .map(Lpn::from)
    }

    /// LPNs currently backed by `ppn` (none if untracked), in unspecified
    /// order.
    pub fn lpns(&self, ppn: Ppn) -> impl Iterator<Item = Lpn> + Clone + '_ {
        self.walk(self.head_of(ppn))
    }

    /// Number of LPNs backed by `ppn`. Walks the sharer list.
    pub fn count(&self, ppn: Ppn) -> usize {
        self.lpns(ppn).count()
    }

    /// Remove all LPNs of `ppn` into a caller-owned scratch buffer (`out`
    /// is cleared first), for migrations that re-add the set under another
    /// PPN one sharer at a time.
    pub fn take_into(&mut self, ppn: Ppn, out: &mut Vec<Lpn>) {
        out.clear();
        let first = self.head_of(ppn);
        if first == NIL {
            return;
        }
        out.extend(self.walk(first));
        for &l in out.iter() {
            self.owner[l as usize] = NIL;
        }
        self.head[ppn as usize] = NIL;
        self.occupied -= 1;
        self.total -= out.len() as u64;
    }

    /// Move `from`'s entire sharer set under `to`, which must currently be
    /// empty (GC relocation of a page to a fresh destination): the list
    /// head moves and each sharer's owner is rewritten; no link changes.
    ///
    /// # Panics
    /// Panics if `from` is untracked or `to` already has sharers.
    pub fn relocate(&mut self, from: Ppn, to: Ppn) {
        let to32 = narrow(to, "ppn");
        assert!(self.head_of(to) == NIL, "reverse map: relocate target ppn {to} occupied");
        let first = self.head_of(from);
        assert!(first != NIL, "reverse map: ppn {from} untracked");
        self.grow_ppns(to + 1);
        self.head[from as usize] = NIL;
        self.head[to as usize] = first;
        let mut l = first;
        while l != NIL {
            self.owner[l as usize] = to32;
            l = self.link[l as usize].next;
        }
        // occupied/total are unchanged: one list emptied, one filled.
    }

    /// Total LPN references across all PPNs (= mapped LPN count; used by
    /// consistency audits).
    pub fn total_refs(&self) -> u64 {
        self.total
    }

    /// Iterate `(ppn, sharing LPNs)` over all referenced physical pages,
    /// in ascending PPN order (audits and reports only).
    pub fn iter(&self) -> impl Iterator<Item = (Ppn, impl Iterator<Item = Lpn> + Clone + '_)> {
        self.head
            .iter()
            .enumerate()
            .filter(|&(_, &first)| first != NIL)
            .map(|(p, &first)| (p as Ppn, self.walk(first)))
    }
}

// `PAGE_LIMIT` leaves `NIL` out of the page space.
const _: () = assert!(PAGE_LIMIT <= NIL as u64);

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(it: impl Iterator<Item = Lpn>) -> Vec<Lpn> {
        let mut v: Vec<Lpn> = it.collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn add_remove_round_trip() {
        let mut r = ReverseMap::new();
        r.add(10, 1);
        r.add(10, 2);
        assert_eq!(r.count(10), 2);
        assert!(r.remove(10, 1));
        assert_eq!(sorted(r.lpns(10)), vec![2]);
        assert!(!r.remove(10, 2));
        assert!(r.is_empty());
    }

    #[test]
    fn a_link_cell_is_two_u32s() {
        assert_eq!(std::mem::size_of::<Link>(), 8);
    }

    #[test]
    fn heap_bytes_is_fixed_by_the_page_counts() {
        assert_eq!(ReverseMap::new().heap_bytes(), 0, "an empty map allocates nothing");
        let mut r = ReverseMap::with_pages(64, 48);
        let sized = r.heap_bytes();
        assert_eq!(sized, 64 * 4 + 48 * (8 + 4));
        for l in 0..48 {
            r.add(l % 3, l); // one 16-sharer list per PPN 0..3
        }
        r.relocate(0, 63);
        assert_eq!(r.heap_bytes(), sized, "sharing allocates nothing");
    }

    #[test]
    fn a_lazy_map_grows_to_the_largest_numbers_seen() {
        let mut r = ReverseMap::new();
        r.add(3, 1);
        assert_eq!((r.head.len(), r.owner.len()), (4, 2));
        r.add(1, 7);
        assert_eq!((r.head.len(), r.owner.len()), (4, 8));
        r.relocate(3, 9);
        assert_eq!(r.head.len(), 10);
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
    #[should_panic(expected = "lpn 1 not under ppn 6")]
    fn removing_an_lpn_linked_under_another_ppn_panics() {
        // The owner column catches this in O(1), in release builds too.
        let mut r = ReverseMap::new();
        r.add(5, 1);
        r.add(6, 2);
        r.remove(6, 1);
    }

    #[test]
    #[should_panic(expected = "lpn 9 already under ppn 3")]
    fn adding_an_lpn_that_is_already_linked_panics() {
        // A sharer set is a set: an LPN is released before it is bound
        // again, so a second add without a remove is a caller bug.
        let mut r = ReverseMap::new();
        r.add(3, 9);
        r.add(4, 9);
    }

    #[test]
    #[should_panic(expected = "ppn 4294967294 is past the 32-bit table limit PAGE_LIMIT")]
    fn adding_a_ppn_past_the_32_bit_limit_panics() {
        ReverseMap::new().add(PAGE_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "lpn 4294967294 is past the 32-bit table limit PAGE_LIMIT")]
    fn adding_an_lpn_past_the_32_bit_limit_panics() {
        ReverseMap::new().add(0, PAGE_LIMIT);
    }

    #[test]
    fn take_into_empties_the_ppn_into_the_scratch_buffer() {
        let mut r = ReverseMap::new();
        r.add(7, 1);
        r.add(7, 2);
        r.add(8, 3);
        let mut scratch = Vec::new();
        r.take_into(7, &mut scratch);
        scratch.sort_unstable();
        assert_eq!(scratch, vec![1, 2]);
        assert_eq!(r.count(7), 0);
        assert_eq!(r.len(), 1);
        r.take_into(8, &mut scratch); // clears the previous contents
        assert_eq!(scratch, vec![3]);
        r.take_into(9, &mut scratch); // empty ppn leaves it empty
        assert!(scratch.is_empty());
        assert_eq!(r.total_refs(), 0);
        r.add(9, 1); // taken LPNs are free to be linked again
        assert_eq!(sorted(r.lpns(9)), vec![1]);
    }

    #[test]
    fn relocate_moves_the_list_wholesale() {
        let mut r = ReverseMap::new();
        r.add(4, 40);
        r.add(4, 41);
        r.add(5, 50);
        r.relocate(4, 9);
        assert_eq!(r.count(4), 0);
        assert_eq!(sorted(r.lpns(9)), vec![40, 41]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_refs(), 3);
        // The owners moved with the head: removal under the new PPN works.
        assert!(r.remove(9, 40));
        // Single-sharer lists move too.
        r.relocate(5, 4);
        assert_eq!(sorted(r.lpns(4)), vec![50]);
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
        // Unlinking from the middle, the head and the tail, interleaved
        // with re-adds at the front.
        let mut r = ReverseMap::new();
        for l in 0..100 {
            r.add(1, l);
        }
        for l in (0..100).step_by(3) {
            assert!(r.remove(1, l));
        }
        for l in (0..100).step_by(3) {
            r.add(1, l);
        }
        assert_eq!(sorted(r.lpns(1)), (0..100).collect::<Vec<_>>());
        // Drain in an order unrelated to insertion order.
        for l in (0..100).rev() {
            r.remove(1, l);
        }
        assert_eq!(r.count(1), 0);
        assert_eq!(r.total_refs(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn iter_lists_every_referenced_ppn_with_its_sharers() {
        let mut r = ReverseMap::new();
        r.add(6, 1);
        r.add(2, 3);
        r.add(6, 4);
        let seen: Vec<(Ppn, Vec<Lpn>)> = r.iter().map(|(p, l)| (p, sorted(l))).collect();
        assert_eq!(seen, vec![(2, vec![3]), (6, vec![1, 4])]);
    }
}
