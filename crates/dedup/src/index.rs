//! The fingerprint index: fingerprint → (physical page, reference count).
//!
//! This is the metadata structure at the heart of any dedup FTL (CAFTL's
//! "fingerprint store", CA-SSD's "hash store"). It maintains a bidirectional
//! mapping:
//!
//! * `fingerprint → (ppn, refs)` — where the unique copy lives and how many
//!   logical pages share it;
//! * `ppn → fingerprint` — so invalidations and GC migrations, which arrive
//!   addressed by physical page, can find and update the entry.
//!
//! Reference-count semantics follow Sec. III-A of the paper exactly: an
//! overwrite or delete of a logical page *decrements* the stored page's
//! count, and the flash page becomes invalid **only when the count reaches
//! zero**. The index also records, per entry, the maximum count the entry
//! ever reached — that is the statistic behind Fig. 6.
//!
//! # Representation
//!
//! The index sits on the GC hot path (every migrated page probes it, every
//! host overwrite releases through it), so it is **open-addressed**, not a
//! pair of `std::collections::HashMap`s:
//!
//! * entries live in a slab of plain 32-byte `Copy` records — fingerprint,
//!   `u32` PPN, count, peak count — plus a free list, so an entry has one
//!   stable integer id for its whole life. A count of zero marks a free
//!   slot; there is no `Option` around a record;
//! * a Robin-Hood linear-probe table of 8-byte cells maps
//!   `fingerprint → slot id`. The probe key is the fingerprint's first
//!   eight bytes — uniform already, whether a SHA-1 digest or a content-id
//!   embedding, so no secondary hasher (and no per-process hash seed) is
//!   needed — and a cell keeps only its low 32 bits (the *tag*) next to
//!   the slot id. A home position and a probe distance are the key masked
//!   to the table size, so they come from the tag alone and the table is
//!   laid out exactly as with the whole key; two fingerprints with equal
//!   tags are told apart at the slab. Deletion is backward-shift, keeping
//!   probe chains gap-free;
//! * the `ppn → slot` direction is a dense `Vec<u32>` indexed by PPN
//!   (physical page numbers are bounded by device geometry), making
//!   release/relocate/refs-of-ppn a single array load. A PPN at or past
//!   2³² does not fit a record and panics naming that limit; it never
//!   wraps.
//!
//! Everything is deterministic: layout depends only on the sequence of
//! operations, never on a process-random hash seed, so same-seed runs stay
//! byte-identical (see `docs/PERFORMANCE.md`).

use crate::fingerprint::Fingerprint;
use crate::refstats::RefCountStats;

/// One stored unique page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpEntry {
    /// Physical page where the unique copy is stored.
    pub ppn: u64,
    /// Current reference count (≥ 1 while the entry exists).
    pub refs: u32,
    /// Highest reference count this entry ever reached.
    pub max_refs: u32,
}

/// Counters describing index traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// `lookup` calls.
    pub lookups: u64,
    /// Lookups that found an entry (dedup hits).
    pub hits: u64,
    /// New unique entries inserted.
    pub inserts: u64,
    /// Entries removed (refcount reached zero or page dropped).
    pub removals: u64,
}

/// Sentinel for "no slot" in both the probe table and the PPN map.
const NONE_SLOT: u32 = u32::MAX;

/// One probe-table cell: the low 32 bits of the entry's probe key (its
/// tag) plus its slab slot. The tag places the cell and screens probes,
/// so a probe reads the slab only where the tags match.
#[derive(Debug, Clone, Copy)]
struct Cell {
    tag: u32,
    slot: u32,
}

const VACANT: Cell = Cell { tag: 0, slot: NONE_SLOT };

/// One slab record; `refs == 0` marks a free slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    fp: Fingerprint,
    ppn: u32,
    refs: u32,
    max_refs: u32,
}

impl Slot {
    fn entry(&self) -> FpEntry {
        FpEntry { ppn: u64::from(self.ppn), refs: self.refs, max_refs: self.max_refs }
    }
}

/// The tag: the low 32 bits of the probe key, which is the fingerprint's
/// leading eight bytes read little-endian — so its first four bytes, which
/// both fingerprint constructors leave uniformly distributed.
#[inline]
fn fp_tag(fp: &Fingerprint) -> u32 {
    u32::from_le_bytes(fp.0[..4].try_into().expect("fingerprint has 20 bytes"))
}

/// `ppn` as a record stores it.
///
/// # Panics
/// Panics if `ppn` is at or past 2³², the most pages a record can name.
fn ppn32(ppn: u64) -> u32 {
    u32::try_from(ppn)
        .unwrap_or_else(|_| panic!("ppn {ppn} is past the fingerprint index's limit of 2^32 pages"))
}

/// Robin-Hood insertion into `cells` (caller guarantees a vacancy exists).
fn cell_insert(cells: &mut [Cell], mut tag: u32, mut slot: u32) {
    let mask = cells.len() - 1;
    let mut i = (tag as usize) & mask;
    let mut dist = 0usize;
    loop {
        let c = cells[i];
        if c.slot == NONE_SLOT {
            cells[i] = Cell { tag, slot };
            return;
        }
        let resident_dist = i.wrapping_sub(c.tag as usize) & mask;
        if resident_dist < dist {
            // The resident is closer to home than we are: take its cell and
            // carry it forward (the Robin-Hood displacement rule).
            cells[i] = Cell { tag, slot };
            tag = c.tag;
            slot = c.slot;
            dist = resident_dist;
        }
        i = (i + 1) & mask;
        dist += 1;
    }
}

/// Remove the cell holding `slot` (whose tag is `tag`), backward-shifting
/// the rest of the probe chain so no tombstones accumulate.
fn cell_remove(cells: &mut [Cell], tag: u32, slot: u32) {
    let mask = cells.len() - 1;
    let mut i = (tag as usize) & mask;
    loop {
        let c = cells[i];
        assert!(c.slot != NONE_SLOT, "by_ppn/by_fp out of sync");
        if c.slot == slot {
            break;
        }
        i = (i + 1) & mask;
    }
    loop {
        let next = (i + 1) & mask;
        let c = cells[next];
        if c.slot == NONE_SLOT || next.wrapping_sub(c.tag as usize) & mask == 0 {
            cells[i] = VACANT;
            return;
        }
        cells[i] = c;
        i = next;
    }
}

/// Fingerprint index with reference counting (open-addressed; see the
/// module docs for the layout).
#[derive(Debug, Clone)]
pub struct FingerprintIndex {
    /// Robin-Hood probe table: fingerprint key → slab slot.
    cells: Vec<Cell>,
    /// Entry slab; freed slots have `refs == 0` and are recycled through
    /// `free`.
    slots: Vec<Slot>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Dense PPN → slab slot map (`NONE_SLOT` = untracked).
    by_ppn: Vec<u32>,
    /// Live entry count.
    len: usize,
    stats: IndexStats,
    ref_stats: RefCountStats,
}

impl Default for FingerprintIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintIndex {
    /// An empty index.
    pub fn new() -> Self {
        FingerprintIndex {
            cells: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            by_ppn: Vec::new(),
            len: 0,
            stats: IndexStats::default(),
            ref_stats: RefCountStats::default(),
        }
    }

    /// Number of unique stored pages tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Traffic counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// The Fig.6 statistic: invalidations bucketed by max refcount reached.
    pub fn ref_stats(&self) -> &RefCountStats {
        &self.ref_stats
    }

    /// Bytes the index holds on the heap: probe table, entry slab, free
    /// list and PPN map.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.cells.capacity() * size_of::<Cell>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.free.capacity() * size_of::<u32>()
            + self.by_ppn.capacity() * size_of::<u32>()
    }

    /// Find the slab slot of `fp`, if tracked.
    fn find_slot(&self, fp: &Fingerprint) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.cells.len() - 1;
        let tag = fp_tag(fp);
        let mut i = (tag as usize) & mask;
        let mut dist = 0usize;
        loop {
            let c = self.cells[i];
            if c.slot == NONE_SLOT {
                return None;
            }
            if c.tag == tag && self.slots[c.slot as usize].fp == *fp {
                return Some(c.slot);
            }
            if i.wrapping_sub(c.tag as usize) & mask < dist {
                // Robin-Hood invariant: a resident closer to home than our
                // probe distance means the key cannot be further along.
                return None;
            }
            i = (i + 1) & mask;
            dist += 1;
        }
    }

    /// Slab slot tracked for `ppn` (`NONE_SLOT` if untracked).
    #[inline]
    fn ppn_slot(&self, ppn: u64) -> u32 {
        self.by_ppn.get(ppn as usize).copied().unwrap_or(NONE_SLOT)
    }

    fn set_ppn_slot(&mut self, ppn: u64, slot: u32) {
        let i = ppn as usize;
        if i >= self.by_ppn.len() {
            self.by_ppn.resize(i + 1, NONE_SLOT);
        }
        self.by_ppn[i] = slot;
    }

    /// Grow (or lazily create) the probe table so one more entry keeps the
    /// load factor at or below 7/8.
    fn reserve_one(&mut self) {
        if self.cells.is_empty() {
            self.cells = vec![VACANT; 16];
            return;
        }
        if (self.len + 1) * 8 > self.cells.len() * 7 {
            let mut bigger = vec![VACANT; self.cells.len() * 2];
            for c in &self.cells {
                if c.slot != NONE_SLOT {
                    cell_insert(&mut bigger, c.tag, c.slot);
                }
            }
            self.cells = bigger;
        }
    }

    /// Place a checked-fresh entry (`refs` references, peak `refs`) into
    /// the slab, probe table, and PPN map.
    fn place(&mut self, fp: Fingerprint, ppn: u64, refs: u32) {
        let record = Slot { fp, ppn: ppn32(ppn), refs, max_refs: refs };
        self.reserve_one();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = record;
                s
            }
            None => {
                self.slots.push(record);
                (self.slots.len() - 1) as u32
            }
        };
        cell_insert(&mut self.cells, fp_tag(&fp), slot);
        self.set_ppn_slot(ppn, slot);
        self.len += 1;
    }

    /// Remove `slot`'s entry — its cell, its PPN-map entry and its slab
    /// record, which is freed — and count the removal.
    fn unplace(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.refs = 0;
        cell_remove(&mut self.cells, fp_tag(&s.fp), slot);
        self.by_ppn[s.ppn as usize] = NONE_SLOT;
        self.free.push(slot);
        self.len -= 1;
        self.stats.removals += 1;
    }

    /// Look up a fingerprint, counting the probe.
    pub fn lookup(&mut self, fp: &Fingerprint) -> Option<FpEntry> {
        self.stats.lookups += 1;
        let hit = self.peek(fp);
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    /// [`FingerprintIndex::lookup`] of the fingerprint stored at `ppn`,
    /// without the probe: the dense PPN map leads straight to the entry.
    /// `None` (and nothing counted) when `ppn` is untracked — there is no
    /// fingerprint to look up; otherwise the counters move exactly as
    /// `lookup(&fp_of_ppn(ppn))` would move them, and the entry returned is
    /// the one that lookup would find (a fingerprint has one entry).
    pub fn lookup_ppn(&mut self, ppn: u64) -> Option<(Fingerprint, FpEntry)> {
        let slot = self.ppn_slot(ppn);
        if slot == NONE_SLOT {
            return None;
        }
        self.stats.lookups += 1;
        self.stats.hits += 1;
        let s = &self.slots[slot as usize];
        Some((s.fp, s.entry()))
    }

    /// Non-counting read (for assertions/reports).
    pub fn peek(&self, fp: &Fingerprint) -> Option<FpEntry> {
        self.find_slot(fp).map(|s| self.slots[s as usize].entry())
    }

    /// Insert a brand-new unique page stored at `ppn` with `refs` initial
    /// references (1 for an inline write; the number of sharing LPNs for a
    /// page absorbed during GC).
    ///
    /// # Panics
    /// Panics if the fingerprint or the ppn is already tracked — double
    /// insertion means the caller failed to look up first, which would
    /// silently fork the refcount — or if `ppn` is at or past 2³².
    pub fn insert(&mut self, fp: Fingerprint, ppn: u64, refs: u32) {
        assert!(refs >= 1, "insert with zero refs");
        assert!(self.find_slot(&fp).is_none(), "fingerprint already indexed: {fp:?}");
        assert!(self.ppn_slot(ppn) == NONE_SLOT, "ppn {ppn} already indexed");
        self.place(fp, ppn, refs);
        self.stats.inserts += 1;
    }

    /// Recovery-only insert: register a unique page rebuilt from durable
    /// metadata (per-page OOB fingerprint stamp + recovered sharer count)
    /// without touching traffic counters — a crash-recovery scan is not
    /// index traffic, and `max_refs` history died with the crash, so it
    /// restarts at the recovered count.
    ///
    /// # Panics
    /// Same contract as [`FingerprintIndex::insert`].
    pub fn restore(&mut self, fp: Fingerprint, ppn: u64, refs: u32) {
        assert!(refs >= 1, "restore with zero refs");
        assert!(self.find_slot(&fp).is_none(), "fingerprint already indexed: {fp:?}");
        assert!(self.ppn_slot(ppn) == NONE_SLOT, "ppn {ppn} already indexed");
        self.place(fp, ppn, refs);
    }

    /// Add `n` references to an existing entry; returns the new count.
    ///
    /// # Panics
    /// Panics if the fingerprint is unknown.
    pub fn add_refs(&mut self, fp: &Fingerprint, n: u32) -> u32 {
        let slot = self.find_slot(fp).unwrap_or_else(|| panic!("add_refs: unknown {fp:?}"));
        let s = &mut self.slots[slot as usize];
        s.refs += n;
        s.max_refs = s.max_refs.max(s.refs);
        s.refs
    }

    /// Drop one reference from the page stored at `ppn`.
    ///
    /// Returns `Some(remaining)` if the ppn is tracked (0 means the entry
    /// was just removed and the physical page is now invalid), or `None`
    /// if the ppn is not in the index — which is normal for CAGC, where
    /// pages written by the foreground path are not fingerprinted until
    /// their first GC migration.
    pub fn release_ppn(&mut self, ppn: u64) -> Option<u32> {
        let slot = self.ppn_slot(ppn);
        if slot == NONE_SLOT {
            return None;
        }
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(u64::from(s.ppn), ppn);
        s.refs -= 1;
        if s.refs == 0 {
            let max = s.max_refs;
            self.unplace(slot);
            self.ref_stats.record_invalidation(max);
            Some(0)
        } else {
            Some(s.refs)
        }
    }

    /// Drop one reference from the page stored at `ppn` because the host
    /// trimmed a sharing logical page. Same return contract as
    /// [`FingerprintIndex::release_ppn`], but when the ppn is tracked the
    /// drop is also counted in [`RefCountStats::trim_releases`], so reports
    /// can tell how much of the refcount decay came from deallocation
    /// rather than overwrites.
    pub fn release_ppn_trimmed(&mut self, ppn: u64) -> Option<u32> {
        let remaining = self.release_ppn(ppn)?;
        self.ref_stats.record_trim_release();
        Some(remaining)
    }

    /// Current reference count of the page at `ppn` (`None` if untracked).
    pub fn refs_of_ppn(&self, ppn: u64) -> Option<u32> {
        let slot = self.ppn_slot(ppn);
        if slot == NONE_SLOT {
            return None;
        }
        Some(self.slots[slot as usize].refs)
    }

    /// Fingerprint stored at `ppn`, if tracked.
    pub fn fp_of_ppn(&self, ppn: u64) -> Option<Fingerprint> {
        let slot = self.ppn_slot(ppn);
        if slot == NONE_SLOT {
            return None;
        }
        Some(self.slots[slot as usize].fp)
    }

    /// GC moved the unique copy from `old_ppn` to `new_ppn`. O(1): the
    /// slab entry stays put, only the two PPN-map cells change.
    ///
    /// # Panics
    /// Panics if `old_ppn` is untracked, `new_ppn` already occupied, or
    /// `new_ppn` at or past 2³².
    pub fn relocate(&mut self, old_ppn: u64, new_ppn: u64) {
        let slot = self.ppn_slot(old_ppn);
        if slot == NONE_SLOT {
            panic!("relocate: ppn {old_ppn} not indexed");
        }
        assert!(
            self.ppn_slot(new_ppn) == NONE_SLOT,
            "relocate: target ppn {new_ppn} occupied"
        );
        self.slots[slot as usize].ppn = ppn32(new_ppn);
        self.by_ppn[old_ppn as usize] = NONE_SLOT;
        self.set_ppn_slot(new_ppn, slot);
    }

    /// Forget the entry at `ppn` without counting an invalidation (used when
    /// a tracked page's references are transferred wholesale, e.g. a dedup
    /// hit during migration absorbs this copy into another entry).
    pub fn forget_ppn(&mut self, ppn: u64) -> Option<FpEntry> {
        let slot = self.ppn_slot(ppn);
        if slot == NONE_SLOT {
            return None;
        }
        let entry = self.slots[slot as usize].entry();
        self.unplace(slot);
        Some(entry)
    }

    /// Record an invalidation of an *untracked* page (refcount implicitly 1)
    /// so Fig. 6 statistics also cover the never-deduplicated population.
    pub fn record_untracked_invalidation(&mut self) {
        self.ref_stats.record_invalidation(1);
    }

    /// The slab records in use.
    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|s| s.refs > 0)
    }

    /// Internal-consistency audit, both directions of each map: every
    /// PPN-map entry points to a live slab slot that points back, with
    /// refs ≥ 1 ≤ max_refs, and the probe table finds it; exactly `len`
    /// cells are occupied, each by a live slot whose fingerprint carries
    /// the cell's tag. Used by tests and debug assertions; O(n).
    pub fn audit(&self) -> Result<(), String> {
        let tracked_ppns = self.by_ppn.iter().filter(|&&s| s != NONE_SLOT).count();
        if self.len != tracked_ppns {
            return Err(format!(
                "size mismatch: {} fingerprints vs {} ppns",
                self.len, tracked_ppns
            ));
        }
        let live_slots = self.live().count();
        if self.len != live_slots {
            return Err(format!(
                "size mismatch: {} fingerprints vs {} live slots",
                self.len, live_slots
            ));
        }
        let occupied = self.cells.iter().filter(|c| c.slot != NONE_SLOT).count();
        if self.len != occupied {
            return Err(format!(
                "size mismatch: {} fingerprints vs {occupied} occupied cells",
                self.len
            ));
        }
        for (i, c) in self.cells.iter().enumerate() {
            if c.slot == NONE_SLOT {
                continue;
            }
            match self.slots.get(c.slot as usize) {
                Some(s) if s.refs > 0 && fp_tag(&s.fp) == c.tag => {}
                Some(s) if s.refs > 0 => {
                    return Err(format!("cell {i} has tag {:#x}, its slot {:?}", c.tag, s.fp))
                }
                _ => return Err(format!("cell {i} points at free slot {}", c.slot)),
            }
        }
        for (i, &slot) in self.by_ppn.iter().enumerate() {
            if slot == NONE_SLOT {
                continue;
            }
            let ppn = i as u64;
            let s = self
                .slots
                .get(slot as usize)
                .filter(|s| s.refs > 0)
                .ok_or_else(|| format!("dangling ppn {ppn}"))?;
            if u64::from(s.ppn) != ppn {
                return Err(format!("ppn {ppn} maps to entry at {}", s.ppn));
            }
            if s.max_refs < s.refs {
                return Err(format!("bad refcounts at ppn {ppn}: {:?}", s.entry()));
            }
            if self.find_slot(&s.fp) != Some(slot) {
                return Err(format!("probe table lost the fingerprint at ppn {ppn}"));
            }
        }
        Ok(())
    }

    /// Sum of reference counts over all entries (= number of logical pages
    /// currently backed by deduplicated physical pages).
    pub fn total_refs(&self) -> u64 {
        self.live().map(|s| u64::from(s.refs)).sum()
    }

    /// Histogram of current reference counts, bucketed {1, 2, 3, >3}.
    pub fn live_ref_histogram(&self) -> [u64; 4] {
        let mut h = [0u64; 4];
        for s in self.live() {
            let b = match s.refs {
                1 => 0,
                2 => 1,
                3 => 2,
                _ => 3,
            };
            h[b] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ContentId;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of_content(ContentId(n))
    }

    #[test]
    fn insert_lookup_hit_and_miss() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 100, 1);
        assert_eq!(ix.lookup(&fp(1)).unwrap().ppn, 100);
        assert!(ix.lookup(&fp(2)).is_none());
        let s = ix.stats();
        assert_eq!((s.lookups, s.hits, s.inserts), (2, 1, 1));
    }

    #[test]
    fn refcounts_rise_and_fall() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 100, 1);
        assert_eq!(ix.add_refs(&fp(1), 1), 2);
        assert_eq!(ix.add_refs(&fp(1), 2), 4);
        assert_eq!(ix.release_ppn(100), Some(3));
        assert_eq!(ix.release_ppn(100), Some(2));
        assert_eq!(ix.release_ppn(100), Some(1));
        assert_eq!(ix.release_ppn(100), Some(0)); // entry gone
        assert_eq!(ix.release_ppn(100), None); // now untracked
        assert!(ix.is_empty());
    }

    #[test]
    fn max_refs_feeds_fig6_buckets() {
        let mut ix = FingerprintIndex::new();
        // Entry that peaks at 4 refs then dies: bucket ">3".
        ix.insert(fp(1), 1, 1);
        ix.add_refs(&fp(1), 3);
        for _ in 0..4 {
            ix.release_ppn(1);
        }
        // Entry that never exceeds 1: bucket "1".
        ix.insert(fp(2), 2, 1);
        ix.release_ppn(2);
        let b = ix.ref_stats().buckets();
        assert_eq!(b, [1, 0, 0, 1]);
    }

    #[test]
    fn untracked_release_returns_none() {
        let mut ix = FingerprintIndex::new();
        assert_eq!(ix.release_ppn(999), None);
    }

    #[test]
    fn trimmed_release_attributes_the_drop() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 100, 2);
        assert_eq!(ix.release_ppn_trimmed(100), Some(1));
        assert_eq!(ix.ref_stats().trim_releases(), 1);
        // Taking the count to zero still records the Fig. 6 invalidation.
        assert_eq!(ix.release_ppn_trimmed(100), Some(0));
        assert_eq!(ix.ref_stats().trim_releases(), 2);
        assert_eq!(ix.ref_stats().total(), 1);
        // Untracked pages don't count as trim releases.
        assert_eq!(ix.release_ppn_trimmed(100), None);
        assert_eq!(ix.ref_stats().trim_releases(), 2);
    }

    #[test]
    fn relocate_moves_the_reverse_mapping() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 100, 2);
        ix.relocate(100, 200);
        assert_eq!(ix.refs_of_ppn(100), None);
        assert_eq!(ix.refs_of_ppn(200), Some(2));
        assert_eq!(ix.lookup(&fp(1)).unwrap().ppn, 200);
        ix.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn relocate_unknown_ppn_panics() {
        FingerprintIndex::new().relocate(1, 2);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn double_insert_same_fp_panics() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 1, 1);
        ix.insert(fp(1), 2, 1);
    }

    #[test]
    fn forget_drops_without_invalidation_stat() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 1, 3);
        let e = ix.forget_ppn(1).unwrap();
        assert_eq!(e.refs, 3);
        assert_eq!(ix.ref_stats().total(), 0); // no invalidation recorded
        assert!(ix.is_empty());
    }

    #[test]
    fn restore_rebuilds_without_traffic_stats() {
        let mut ix = FingerprintIndex::new();
        ix.restore(fp(1), 100, 3);
        ix.restore(fp(2), 101, 1);
        let s = ix.stats();
        assert_eq!((s.lookups, s.hits, s.inserts, s.removals), (0, 0, 0, 0));
        assert_eq!(ix.refs_of_ppn(100), Some(3));
        assert_eq!(ix.peek(&fp(1)).unwrap().max_refs, 3, "max_refs restarts at refs");
        assert_eq!(ix.total_refs(), 4);
        ix.audit().unwrap();
        // Restored entries behave like any other afterwards.
        assert_eq!(ix.release_ppn(101), Some(0));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn totals_and_histogram() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 1, 1);
        ix.insert(fp(2), 2, 2);
        ix.insert(fp(3), 3, 3);
        ix.insert(fp(4), 4, 9);
        assert_eq!(ix.total_refs(), 15);
        assert_eq!(ix.live_ref_histogram(), [1, 1, 1, 1]);
        ix.audit().unwrap();
    }

    #[test]
    fn audit_catches_nothing_on_healthy_index() {
        let mut ix = FingerprintIndex::new();
        for i in 0..100 {
            ix.insert(fp(i), i, (i % 5 + 1) as u32);
        }
        ix.audit().unwrap();
    }

    #[test]
    fn survives_growth_and_slot_recycling() {
        // Enough entries to force several probe-table doublings, with
        // interleaved removals so freed slab slots get recycled.
        let mut ix = FingerprintIndex::new();
        for i in 0..500u64 {
            ix.insert(fp(i), i, 1);
            if i % 3 == 0 {
                assert_eq!(ix.release_ppn(i), Some(0));
            }
        }
        ix.audit().unwrap();
        for i in 0..500u64 {
            let expect = if i % 3 == 0 { None } else { Some(1) };
            assert_eq!(ix.refs_of_ppn(i), expect, "ppn {i}");
        }
        // Removed fingerprints can be re-inserted at new ppns.
        for i in (0..500u64).step_by(3) {
            ix.insert(fp(i), 1000 + i, 2);
        }
        ix.audit().unwrap();
        assert_eq!(ix.len(), 500);
    }

    #[test]
    fn backward_shift_deletion_keeps_probes_reachable() {
        // Insert a cluster, delete from the middle of it, and verify every
        // survivor is still found (a tombstone-free table must backward-shift).
        let mut ix = FingerprintIndex::new();
        for i in 0..64u64 {
            ix.insert(fp(i), i, 1);
        }
        for i in (0..64u64).step_by(2) {
            ix.forget_ppn(i).unwrap();
        }
        for i in 0..64u64 {
            let found = ix.peek(&fp(i)).is_some();
            assert_eq!(found, i % 2 == 1, "fp({i})");
        }
        ix.audit().unwrap();
    }

    #[test]
    fn records_and_cells_are_flat() {
        use std::mem::size_of;
        assert!(size_of::<Slot>() <= 32, "slot: {} B", size_of::<Slot>());
        assert_eq!(size_of::<Cell>(), 8);
    }

    #[test]
    #[should_panic(expected = "limit of 2^32 pages")]
    fn insert_past_the_ppn_limit_panics() {
        FingerprintIndex::new().insert(fp(1), 1 << 32, 1);
    }

    #[test]
    #[should_panic(expected = "limit of 2^32 pages")]
    fn relocate_past_the_ppn_limit_panics() {
        let mut ix = FingerprintIndex::new();
        ix.insert(fp(1), 1, 1);
        ix.relocate(1, 1 << 32);
    }

    #[test]
    fn audit_rejects_a_stale_or_mistagged_cell() {
        let mut ix = FingerprintIndex::new();
        for i in 0..8 {
            ix.insert(fp(i), i, 1);
        }
        let freed = ix.by_ppn[3];
        ix.forget_ppn(3).unwrap();
        ix.audit().expect("consistent after a forget");

        // A cell left pointing at the freed slot, where a vacancy was.
        let mut stale = ix.clone();
        let vacancy = stale.cells.iter().position(|c| c.slot == NONE_SLOT).unwrap();
        stale.cells[vacancy] = Cell { tag: fp_tag(&fp(3)), slot: freed };
        let err = stale.audit().expect_err("a stale cell must not pass");
        assert!(err.contains("occupied cells"), "{err}");

        // Every count right, but one cell names the wrong slot: the
        // fingerprint that slot holds does not carry the cell's tag.
        let mut crossed = ix.clone();
        let (a, b) = (crossed.by_ppn[1], crossed.by_ppn[2]);
        for c in crossed.cells.iter_mut() {
            if c.slot == a {
                c.slot = b;
            } else if c.slot == b {
                c.slot = a;
            }
        }
        let err = crossed.audit().expect_err("a mistagged cell must not pass");
        assert!(err.contains("has tag"), "{err}");
    }
}
