//! LPN → PPN mapping table (page-level FTL).
//!
//! A dense vector keyed by logical page number, `NO_PPN` for unmapped. With
//! deduplication the mapping is many-to-one: several LPNs may point at the
//! same PPN; the companion [`crate::rmap::ReverseMap`] maintains the other
//! direction.

use cagc_flash::{Ppn, NO_PPN};

/// Logical page number (host-visible address space).
pub type Lpn = u64;

/// Dense page-level mapping table.
#[derive(Debug, Clone)]
pub struct MappingTable {
    map: Vec<Ppn>,
    mapped: u64,
}

impl MappingTable {
    /// A table for `logical_pages` LPNs, all unmapped.
    pub fn new(logical_pages: u64) -> Self {
        Self { map: vec![NO_PPN; logical_pages as usize], mapped: 0 }
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
        (p != NO_PPN).then_some(p)
    }

    /// Map `lpn → ppn`, returning the previous PPN if there was one.
    #[inline]
    pub fn set(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        assert_ne!(ppn, NO_PPN, "cannot map to the NO_PPN sentinel");
        let slot = &mut self.map[lpn as usize];
        let prev = *slot;
        *slot = ppn;
        if prev == NO_PPN {
            self.mapped += 1;
            None
        } else {
            Some(prev)
        }
    }

    /// Unmap `lpn`, returning the previous PPN if there was one.
    #[inline]
    pub fn clear(&mut self, lpn: Lpn) -> Option<Ppn> {
        let slot = &mut self.map[lpn as usize];
        let prev = *slot;
        *slot = NO_PPN;
        if prev == NO_PPN {
            None
        } else {
            self.mapped -= 1;
            Some(prev)
        }
    }

    /// Bytes the table holds on the heap: one PPN per logical page.
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * std::mem::size_of::<Ppn>()
    }

    /// Iterate `(lpn, ppn)` over mapped entries (diagnostics; O(logical)).
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lpn, Ppn)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != NO_PPN)
            .map(|(l, &p)| (l as Lpn, p))
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
}
