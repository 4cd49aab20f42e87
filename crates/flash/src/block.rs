//! Per-block state machine.
//!
//! A [`Block`] is one `Copy` record: a one-word validity mask (hence at
//! most [`Block::MAX_PAGES`] pages), write pointer — a page is written iff
//! it lies below it — erase count, trim attribution, last-modified time
//! (for the cost-benefit victim policy) and the sealed / retired flags.
//! The state machine enforces the two hard NAND rules:
//!
//! 1. pages are programmed in strictly increasing page order within a block
//!    (the *write pointer*), and only onto never-written-since-erase pages;
//! 2. the only way to make a written page writable again is to erase the
//!    whole block.

use cagc_sim::time::Nanos;

/// Logical state of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and never programmed since: writable.
    Free,
    /// Programmed and still referenced by at least one logical page.
    Valid,
    /// Programmed but no longer referenced: reclaimable by erase.
    Invalid,
}

/// State of one flash block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Bit `p` set ⇔ page `p` is valid. Bits at or above `write_ptr` are
    /// always clear.
    valid: u64,
    last_modified_ns: Nanos,
    erase_count: u32,
    pages: u8,
    write_ptr: u8,
    /// Invalid pages whose invalidation came from a host trim (deallocate)
    /// rather than an overwrite. Reset on erase.
    trimmed: u8,
    sealed: bool,
    retired: bool,
}

impl Block {
    /// Most pages a block can hold: one validity bit per page in a `u64`.
    pub const MAX_PAGES: u32 = u64::BITS;

    /// A fresh (erased, never used) block with `pages` pages.
    ///
    /// # Panics
    /// Panics if `pages` exceeds [`Block::MAX_PAGES`].
    pub fn new(pages: u32) -> Self {
        assert!(pages <= Self::MAX_PAGES, "block of {pages} pages exceeds {}", Self::MAX_PAGES);
        Self {
            valid: 0,
            last_modified_ns: 0,
            erase_count: 0,
            pages: pages as u8,
            write_ptr: 0,
            trimmed: 0,
            sealed: false,
            retired: false,
        }
    }

    /// Number of pages in the block.
    #[inline]
    pub fn pages(&self) -> u32 {
        u32::from(self.pages)
    }

    /// State of page `page`.
    #[inline]
    pub fn page_state(&self, page: u32) -> PageState {
        debug_assert!(page < self.pages(), "page {page} out of range {}", self.pages);
        if page >= u32::from(self.write_ptr) {
            PageState::Free
        } else if self.valid >> page & 1 == 1 {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    /// Number of valid pages.
    #[inline]
    pub fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Number of invalid pages (written but no longer valid).
    #[inline]
    pub fn invalid_count(&self) -> u32 {
        u32::from(self.write_ptr) - self.valid_count()
    }

    /// Number of still-free pages.
    #[inline]
    pub fn free_count(&self) -> u32 {
        u32::from(self.pages - self.write_ptr)
    }

    /// The next page that a program must target, or `None` if the block is
    /// full or sealed.
    #[inline]
    pub fn next_program_page(&self) -> Option<u32> {
        (!self.is_full() && !self.sealed).then_some(u32::from(self.write_ptr))
    }

    /// Whether every page has been written.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages
    }

    /// Whether the block is entirely free (fresh or just erased).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.write_ptr == 0
    }

    /// Whether the block was closed short of full
    /// ([`crate::FlashDevice::seal`]): its free pages are stranded, and no
    /// program is accepted, until the next erase.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Whether an erase failure retired the block to the bad-block table.
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Times this block has been erased (wear).
    #[inline]
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Invalid pages in this block whose invalidation was a host trim
    /// (see [`Block::deallocate`]). Always ≤ [`Block::invalid_count`];
    /// resets to zero on erase. Victim policies use this to prefer blocks
    /// whose garbage is *stable* — trimmed pages never come back, while an
    /// overwrite-hot block keeps accumulating invalid pages if left alone.
    #[inline]
    pub fn trimmed_count(&self) -> u32 {
        u32::from(self.trimmed)
    }

    /// Timestamp of the last program/invalidate/erase that touched the block.
    #[inline]
    pub fn last_modified(&self) -> Nanos {
        self.last_modified_ns
    }

    /// Program the next page (must equal the write pointer). Returns the
    /// page offset that was programmed, or `None` if the block is full or
    /// sealed — the allocator must rotate to a new block first, and the
    /// device turns `None` into a structured [`crate::FlashError::BlockFull`]
    /// so the bug is distinguishable from an injected fault. The page
    /// becomes `Valid`.
    pub fn program_next(&mut self, now: Nanos) -> Option<u32> {
        let page = self.next_program_page()?;
        self.valid |= 1 << page;
        self.write_ptr += 1;
        self.last_modified_ns = now;
        Some(page)
    }

    /// Mark a valid page invalid (its last logical reference went away).
    ///
    /// # Panics
    /// Panics if the page is not currently `Valid`: double-invalidation or
    /// invalidating a free page means refcount accounting is broken, and we
    /// want to fail loudly at the source.
    pub fn invalidate(&mut self, page: u32, now: Nanos) {
        match self.page_state(page) {
            PageState::Valid => {
                self.valid &= !(1 << page);
                self.last_modified_ns = now;
            }
            s => panic!("invalidate page {page} in state {s:?}"),
        }
    }

    /// Mark a valid page invalid because the host trimmed (deallocated) its
    /// last logical reference. Identical to [`Block::invalidate`] at the
    /// state-machine level, but attributed: the block remembers how many of
    /// its invalid pages are trim garbage (see [`Block::trimmed_count`]).
    ///
    /// # Panics
    /// Panics if the page is not currently `Valid` (same contract as
    /// [`Block::invalidate`]).
    pub fn deallocate(&mut self, page: u32, now: Nanos) {
        self.invalidate(page, now);
        self.trimmed += 1;
    }

    /// Erase the block: all pages become `Free`, the seal lifts, wear
    /// increments.
    ///
    /// # Panics
    /// Panics if any page is still `Valid` — erasing live data is the worst
    /// FTL bug there is, so the model refuses.
    pub fn erase(&mut self, now: Nanos) {
        assert_eq!(self.valid, 0, "erase of block with {} valid pages", self.valid_count());
        self.write_ptr = 0;
        self.erase_count += 1;
        self.trimmed = 0;
        self.sealed = false;
        self.last_modified_ns = now;
    }

    /// Visit offsets of currently valid pages, ascending: one word, one
    /// branch per valid page.
    #[inline]
    pub fn for_each_valid(&self, mut f: impl FnMut(u32)) {
        let mut w = self.valid;
        while w != 0 {
            f(w.trailing_zeros());
            w &= w - 1;
        }
    }

    /// Mark the block closed short (see [`Block::is_sealed`]).
    pub(crate) fn seal(&mut self) {
        self.sealed = true;
    }

    /// Move the block to the bad-block table; the seal lifts with it.
    pub(crate) fn retire(&mut self) {
        self.sealed = false;
        self.retired = true;
    }

    /// Recovery-only: overwrite the validity of every *written* page from
    /// the durable truth `f(page)` (page is referenced by at least one
    /// recovered logical mapping). The write pointer and wear are physical
    /// facts and stay; trim attribution is volatile bookkeeping lost with
    /// the crash, so it resets.
    pub(crate) fn recover_validity(&mut self, mut f: impl FnMut(u32) -> bool) {
        self.valid = (0..u32::from(self.write_ptr))
            .filter(|&page| f(page))
            .fold(0, |mask, page| mask | 1 << page);
        self.trimmed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_a_small_plain_record() {
        assert!(std::mem::size_of::<Block>() <= 32);
        let mut b = Block::new(Block::MAX_PAGES);
        for _ in 0..Block::MAX_PAGES {
            b.program_next(0);
        }
        assert!(b.is_full());
        assert_eq!(b.valid_count(), 64);
        b.invalidate(63, 1);
        assert_eq!(b.page_state(63), PageState::Invalid);
        assert_eq!(b.valid_count(), 63);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn oversized_block_rejected() {
        Block::new(65);
    }

    #[test]
    fn fresh_block_is_all_free() {
        let b = Block::new(16);
        assert_eq!(b.free_count(), 16);
        assert_eq!(b.valid_count(), 0);
        assert_eq!(b.invalid_count(), 0);
        assert!(b.is_free());
        assert!(!b.is_full());
        assert_eq!(b.next_program_page(), Some(0));
    }

    #[test]
    fn programs_advance_sequentially() {
        let mut b = Block::new(4);
        assert_eq!(b.program_next(10), Some(0));
        assert_eq!(b.program_next(11), Some(1));
        assert_eq!(b.program_next(12), Some(2));
        assert_eq!(b.program_next(13), Some(3));
        assert!(b.is_full());
        assert_eq!(b.next_program_page(), None);
        assert_eq!(b.valid_count(), 4);
        assert_eq!(b.last_modified(), 13);
    }

    #[test]
    fn programming_a_full_block_is_rejected() {
        let mut b = Block::new(1);
        assert_eq!(b.program_next(0), Some(0));
        assert_eq!(b.program_next(1), None);
        // The rejected program changed nothing.
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.last_modified(), 0);
    }

    #[test]
    fn a_sealed_block_takes_no_program_until_erased() {
        let mut b = Block::new(4);
        b.program_next(0);
        b.seal();
        assert!(b.is_sealed());
        assert_eq!(b.program_next(1), None);
        assert_eq!(b.free_count(), 3, "the unwritten tail is stranded, not consumed");
        b.invalidate(0, 2);
        b.erase(3);
        assert!(!b.is_sealed());
        assert_eq!(b.program_next(4), Some(0));
    }

    #[test]
    fn invalidate_moves_valid_to_invalid() {
        let mut b = Block::new(4);
        b.program_next(0);
        b.program_next(0);
        b.invalidate(0, 5);
        assert_eq!(b.page_state(0), PageState::Invalid);
        assert_eq!(b.page_state(1), PageState::Valid);
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.invalid_count(), 1);
        assert_eq!(b.free_count(), 2);
    }

    #[test]
    #[should_panic(expected = "invalidate page")]
    fn double_invalidate_panics() {
        let mut b = Block::new(2);
        b.program_next(0);
        b.invalidate(0, 0);
        b.invalidate(0, 0);
    }

    #[test]
    #[should_panic(expected = "invalidate page")]
    fn invalidating_free_page_panics() {
        let mut b = Block::new(2);
        b.invalidate(1, 0);
    }

    #[test]
    fn erase_requires_no_valid_pages_and_resets() {
        let mut b = Block::new(3);
        for _ in 0..3 {
            b.program_next(0);
        }
        for p in 0..3 {
            b.invalidate(p, 0);
        }
        b.erase(99);
        assert!(b.is_free());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.free_count(), 3);
        assert_eq!(b.next_program_page(), Some(0));
        // Block is reusable after erase.
        assert_eq!(b.program_next(100), Some(0));
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_data_panics() {
        let mut b = Block::new(2);
        b.program_next(0);
        b.erase(0);
    }

    #[test]
    fn for_each_valid_visits_only_valid_pages_ascending() {
        let mut b = Block::new(5);
        for _ in 0..4 {
            b.program_next(0);
        }
        b.invalidate(1, 0);
        b.invalidate(3, 0);
        let mut v = Vec::new();
        b.for_each_valid(|p| v.push(p));
        assert_eq!(v, vec![0, 2]);
    }

    #[test]
    fn deallocate_is_an_attributed_invalidation() {
        let mut b = Block::new(4);
        for _ in 0..3 {
            b.program_next(0);
        }
        b.invalidate(0, 1); // overwrite garbage
        b.deallocate(1, 2); // trim garbage
        assert_eq!(b.page_state(1), PageState::Invalid);
        assert_eq!(b.invalid_count(), 2);
        assert_eq!(b.trimmed_count(), 1);
        assert!(b.trimmed_count() <= b.invalid_count());
    }

    #[test]
    #[should_panic(expected = "invalidate page")]
    fn deallocate_enforces_the_state_machine() {
        let mut b = Block::new(2);
        b.deallocate(0, 0); // free page: same panic as invalidate
    }

    #[test]
    fn erase_resets_the_trimmed_counter() {
        let mut b = Block::new(2);
        b.program_next(0);
        b.program_next(0);
        b.deallocate(0, 1);
        b.invalidate(1, 1);
        assert_eq!(b.trimmed_count(), 1);
        b.erase(2);
        assert_eq!(b.trimmed_count(), 0);
    }

    #[test]
    fn recover_validity_rewrites_only_written_pages() {
        let mut b = Block::new(4);
        b.program_next(0);
        b.program_next(0);
        b.program_next(0);
        b.deallocate(0, 1);
        assert_eq!(b.trimmed_count(), 1);
        // Durable truth: only page 1 is referenced.
        b.recover_validity(|p| p == 1);
        assert_eq!(b.page_state(0), PageState::Invalid);
        assert_eq!(b.page_state(1), PageState::Valid);
        assert_eq!(b.page_state(2), PageState::Invalid);
        assert_eq!(b.page_state(3), PageState::Free, "unwritten pages stay free");
        assert_eq!(b.trimmed_count(), 0, "trim attribution is volatile");
    }

    #[test]
    fn wear_accumulates_across_erase_cycles() {
        let mut b = Block::new(1);
        for i in 0..5 {
            b.program_next(i);
            b.invalidate(0, i);
            b.erase(i);
        }
        assert_eq!(b.erase_count(), 5);
    }
}
