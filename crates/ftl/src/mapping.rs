//! LPN → PPN mapping table (page-level FTL).
//!
//! A dense vector keyed by logical page number, `u32::MAX` for unmapped.
//! With deduplication the mapping is many-to-one: several LPNs may point
//! at the same PPN; the companion [`crate::rmap::ReverseMap`] maintains
//! the other direction.
//!
//! Entries are stored in 32 bits (4 B per logical page) behind the 64-bit
//! [`Ppn`] / [`Lpn`] API the rest of the workspace speaks: every page
//! number a table stores is below [`PAGE_LIMIT`], which
//! `SsdConfig::validate` enforces for a whole device and which a direct
//! caller past it meets as a panic naming the limit, never a wrap.

use cagc_flash::{Ppn, NO_PPN};

/// Logical page number (host-visible address space).
pub type Lpn = u64;

/// Exclusive bound on the page numbers, physical or logical, that the
/// 32-bit FTL tables store: the top two `u32` values are kept out of the
/// page space, and `u32::MAX` marks an empty entry.
pub const PAGE_LIMIT: u64 = (1 << 32) - 2;

/// `page` as a 32-bit table entry.
///
/// # Panics
/// Panics naming [`PAGE_LIMIT`] if `page` is at or past it.
#[inline]
pub(crate) fn narrow(page: u64, what: &str) -> u32 {
    assert!(
        page < PAGE_LIMIT,
        "{what} {page} is past the 32-bit table limit PAGE_LIMIT = {PAGE_LIMIT}"
    );
    page as u32
}

/// Unmapped entry.
const UNMAPPED: u32 = u32::MAX;

/// Dense page-level mapping table.
#[derive(Debug, Clone)]
pub struct MappingTable {
    map: Vec<u32>,
    mapped: u64,
}

impl MappingTable {
    /// A table for `logical_pages` LPNs, all unmapped.
    pub fn new(logical_pages: u64) -> Self {
        Self { map: vec![UNMAPPED; logical_pages as usize], mapped: 0 }
    }

    /// Number of LPNs addressable.
    pub fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// Number of LPNs currently mapped.
    pub fn mapped_count(&self) -> u64 {
        self.mapped
    }

    /// Current PPN of `lpn`, or `None` if unmapped.
    ///
    /// # Panics
    /// Panics if `lpn` is beyond the logical space (trace/config mismatch —
    /// better to fail loudly than silently wrap).
    #[inline]
    pub fn get(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map[lpn as usize];
        (p != UNMAPPED).then_some(Ppn::from(p))
    }

    /// Map `lpn → ppn`, returning the previous PPN if there was one.
    ///
    /// # Panics
    /// Panics if `ppn` is [`NO_PPN`] or at or past [`PAGE_LIMIT`], or if
    /// `lpn` is beyond the logical space.
    #[inline]
    pub fn set(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        assert_ne!(ppn, NO_PPN, "cannot map to the NO_PPN sentinel");
        let entry = narrow(ppn, "ppn");
        let slot = &mut self.map[lpn as usize];
        let prev = std::mem::replace(slot, entry);
        if prev == UNMAPPED {
            self.mapped += 1;
            None
        } else {
            Some(Ppn::from(prev))
        }
    }

    /// Unmap `lpn`, returning the previous PPN if there was one.
    #[inline]
    pub fn clear(&mut self, lpn: Lpn) -> Option<Ppn> {
        let prev = std::mem::replace(&mut self.map[lpn as usize], UNMAPPED);
        if prev == UNMAPPED {
            None
        } else {
            self.mapped -= 1;
            Some(Ppn::from(prev))
        }
    }

    /// Bytes the table holds on the heap: one 32-bit PPN per logical page.
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * std::mem::size_of::<u32>()
    }

    /// Iterate `(lpn, ppn)` over mapped entries (diagnostics; O(logical)).
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != UNMAPPED)
            .map(|(l, &p)| (l as Lpn, Ppn::from(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unmapped() {
        let t = MappingTable::new(100);
        assert_eq!(t.logical_pages(), 100);
        assert_eq!(t.mapped_count(), 0);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(99), None);
    }

    #[test]
    fn an_entry_is_4_bytes_a_logical_page() {
        assert_eq!(MappingTable::new(100).heap_bytes(), 100 * 4);
    }

    #[test]
    fn set_get_clear_round_trip() {
        let mut t = MappingTable::new(10);
        assert_eq!(t.set(3, 77), None);
        assert_eq!(t.get(3), Some(77));
        assert_eq!(t.mapped_count(), 1);
        assert_eq!(t.set(3, 88), Some(77)); // remap returns old
        assert_eq!(t.mapped_count(), 1);
        assert_eq!(t.clear(3), Some(88));
        assert_eq!(t.get(3), None);
        assert_eq!(t.mapped_count(), 0);
        assert_eq!(t.clear(3), None); // double clear is a no-op
    }

    #[test]
    fn many_to_one_mappings_allowed() {
        let mut t = MappingTable::new(10);
        t.set(1, 42);
        t.set(2, 42);
        t.set(3, 42);
        assert_eq!(t.mapped_count(), 3);
        let hits: Vec<_> = t.iter_mapped().filter(|&(_, p)| p == 42).collect();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_space_lpn_panics() {
        MappingTable::new(4).get(4);
    }

    #[test]
    #[should_panic(expected = "NO_PPN")]
    fn mapping_to_sentinel_panics() {
        MappingTable::new(4).set(0, cagc_flash::NO_PPN);
    }

    #[test]
    fn the_last_ppn_under_the_limit_round_trips() {
        let mut t = MappingTable::new(4);
        t.set(1, PAGE_LIMIT - 1);
        assert_eq!(t.get(1), Some(PAGE_LIMIT - 1));
        assert_eq!(t.heap_bytes(), 4 * 4, "one u32 per logical page");
    }

    #[test]
    #[should_panic(expected = "ppn 4294967294 is past the 32-bit table limit PAGE_LIMIT")]
    fn mapping_to_a_ppn_past_the_32_bit_limit_panics() {
        MappingTable::new(4).set(0, PAGE_LIMIT);
    }
}
