//! Region-aware free-block allocation.
//!
//! The allocator owns the free-block pool and one open *write frontier*
//! per region: [`Region::Host`] for foreground writes (kept separate so
//! user programs never queue behind migration bursts), [`Region::Hot`]
//! for GC-migrated pages with refcount ≤ threshold, and [`Region::Cold`]
//! for high-refcount pages (CAGC's Sec. III-C placement). Baseline and
//! the inline schemes simply never open the GC-cold frontier.
//!
//! A small **GC reserve** of free blocks is withheld from foreground
//! allocation so that garbage collection always has somewhere to migrate
//! valid pages to — the classic FTL deadlock guard.

use cagc_flash::BlockId;
use std::collections::VecDeque;

/// Placement region for a write frontier.
///
/// Real FTLs keep the host active block separate from the GC active block
/// so migrations don't serialize behind foreground programs; CAGC splits
/// the GC side further into hot and cold by reference count (Sec. III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Foreground (host) writes.
    Host,
    /// GC-migrated pages with refcount ≤ threshold (frequently updated).
    Hot,
    /// GC-migrated pages with refcount > threshold (rarely invalidated).
    Cold,
}

impl Region {
    const COUNT: usize = 3;

    #[inline]
    fn idx(self) -> usize {
        match self {
            Region::Host => 0,
            Region::Hot => 1,
            Region::Cold => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    block: BlockId,
    used: u32,
}

/// Free-block pool plus per-region write frontiers.
#[derive(Debug, Clone)]
pub struct Allocator {
    free: VecDeque<BlockId>,
    open: [Option<OpenBlock>; Region::COUNT],
    region_of: Vec<Option<Region>>,
    pages_per_block: u32,
    gc_reserve: u32,
}

impl Allocator {
    /// All `total_blocks` blocks start free; `gc_reserve` of them are
    /// withheld from foreground allocation.
    ///
    /// # Panics
    /// Panics if the reserve eats the whole device.
    pub fn new(total_blocks: u32, pages_per_block: u32, gc_reserve: u32) -> Self {
        Self::with_block_order((0..total_blocks).collect(), pages_per_block, gc_reserve)
    }

    /// Like [`Allocator::new`], but the free pool is initialized in the
    /// given order. FTLs interleave blocks across dies here so consecutive
    /// frontier blocks (and therefore writes, migrations and erases) spread
    /// over the device's parallel units instead of hammering one die.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..len`, or if the
    /// reserve eats the whole device.
    pub fn with_block_order(order: Vec<BlockId>, pages_per_block: u32, gc_reserve: u32) -> Self {
        let total_blocks = order.len() as u32;
        assert!(
            gc_reserve + 2 < total_blocks,
            "gc_reserve {gc_reserve} leaves no usable blocks out of {total_blocks}"
        );
        let mut seen = vec![false; order.len()];
        for &b in &order {
            assert!(
                (b as usize) < order.len() && !std::mem::replace(&mut seen[b as usize], true),
                "block order is not a permutation (block {b})"
            );
        }
        Self {
            free: order.into(),
            open: [None; Region::COUNT],
            region_of: vec![None; total_blocks as usize],
            pages_per_block,
            gc_reserve,
        }
    }

    /// Rebuild an allocator from post-crash durable facts: the free pool
    /// is exactly `free_order` (already die-interleaved and filtered to
    /// erased, non-retired blocks by the recovery pass — the device owns
    /// the bad-block table), and every write frontier starts closed —
    /// partially written blocks simply wait for GC.
    ///
    /// # Panics
    /// Panics if a free block id is out of range.
    pub fn recovered(
        total_blocks: u32,
        pages_per_block: u32,
        gc_reserve: u32,
        free_order: Vec<BlockId>,
    ) -> Self {
        for &b in &free_order {
            assert!(b < total_blocks, "free block {b} out of range");
        }
        Self {
            free: free_order.into(),
            open: [None; Region::COUNT],
            region_of: vec![None; total_blocks as usize],
            pages_per_block,
            gc_reserve,
        }
    }

    /// Bytes the allocator holds on the heap: the free pool and the
    /// per-block region tags.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.free.capacity() * size_of::<BlockId>()
            + self.region_of.capacity() * size_of::<Option<Region>>()
    }

    /// The canonical die-interleaved order: block `i` of die 0, block `i`
    /// of die 1, …, for `i = 0, 1, …`.
    pub fn die_interleaved_order(total_blocks: u32, blocks_per_die: u32) -> Vec<BlockId> {
        assert!(blocks_per_die > 0 && total_blocks.is_multiple_of(blocks_per_die));
        let dies = total_blocks / blocks_per_die;
        let mut order = Vec::with_capacity(total_blocks as usize);
        for i in 0..blocks_per_die {
            for d in 0..dies {
                order.push(d * blocks_per_die + i);
            }
        }
        order
    }

    /// Number of blocks currently in the free pool (open frontiers are not
    /// free).
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Programmable pages still available right now: every page of the
    /// free pool plus the unwritten tail of each open frontier. This is
    /// the "free pages" gauge the telemetry layer samples — unlike the
    /// free-block count it moves on every single program, so a trace shows
    /// GC rounds as sawtooth refills.
    pub fn free_pages(&self) -> u64 {
        let frontier_tail: u64 = self
            .open
            .iter()
            .flatten()
            .map(|o| u64::from(self.pages_per_block - o.used))
            .sum();
        self.free.len() as u64 * u64::from(self.pages_per_block) + frontier_tail
    }

    /// The region a block was opened under, if any. Blocks keep their tag
    /// until erased (released).
    pub fn region_of(&self, block: BlockId) -> Option<Region> {
        self.region_of[block as usize]
    }

    /// Whether `block` is one of the open write frontiers (never a GC
    /// victim: it still has free pages being filled). A frontier that has
    /// been completely filled counts as closed — it will be rotated out on
    /// the next allocation and is already a legitimate GC victim.
    pub fn is_open(&self, block: BlockId) -> bool {
        self.open
            .iter()
            .flatten()
            .any(|o| o.block == block && o.used < self.pages_per_block)
    }

    /// Pick the block the next page write in `region` must go to, advancing
    /// the frontier. `for_gc` allocations may dig into the GC reserve;
    /// foreground allocations may not (the caller must trigger GC instead).
    ///
    /// Returns `None` when the appropriate pool is exhausted.
    pub fn alloc_page(&mut self, region: Region, for_gc: bool) -> Option<BlockId> {
        let slot = region.idx();
        // Rotate the frontier if missing or full.
        let need_new = match self.open[slot] {
            None => true,
            Some(o) => o.used == self.pages_per_block,
        };
        if need_new {
            let floor = if for_gc { 0 } else { self.gc_reserve as usize };
            if self.free.len() <= floor {
                return None;
            }
            let block = self.free.pop_front().expect("checked non-empty");
            self.region_of[block as usize] = Some(region);
            self.open[slot] = Some(OpenBlock { block, used: 0 });
        }
        let o = self.open[slot].as_mut().expect("frontier just ensured");
        o.used += 1;
        Some(o.block)
    }

    /// Return an erased block to the free pool and clear its region tag.
    ///
    /// # Panics
    /// Panics if the block is an open frontier (erasing the frontier is an
    /// FTL logic bug); double-release (already in the free pool) is checked
    /// in debug builds only — the containment scan of the free queue is
    /// measurable on the GC hot path and the invariant is exercised by the
    /// test suite.
    pub fn release(&mut self, block: BlockId) {
        assert!(!self.is_open(block), "releasing open frontier block {block}");
        debug_assert!(
            !self.free.contains(&block),
            "double release of block {block}"
        );
        self.region_of[block as usize] = None;
        self.free.push_back(block);
    }

    /// The configured GC reserve.
    pub fn gc_reserve(&self) -> u32 {
        self.gc_reserve
    }

    /// Let go of a block the device retired to its bad-block table after
    /// an erase failure: its region tag clears and, unlike
    /// [`Allocator::release`], it never returns to the free pool. The
    /// device refuses every operation on a retired block, so a second
    /// retirement cannot reach here.
    ///
    /// # Panics
    /// Panics if the block is an open frontier or still in the free pool
    /// (retirement only happens to erase victims).
    pub fn retire(&mut self, block: BlockId) {
        assert!(!self.is_open(block), "retiring open frontier block {block}");
        assert!(!self.free.contains(&block), "retiring free block {block}");
        self.region_of[block as usize] = None;
    }

    /// Close the open frontier of `region` (if any) without filling it:
    /// the next allocation in that region rotates to a fresh block. The
    /// program-failure retry policy calls this so the retry lands on a
    /// different block — re-programming the next page of a block that
    /// just failed a program is exactly what real FTLs avoid. Returns the
    /// block that was closed: whatever it had left unwritten is stranded
    /// until GC erases it. The allocator is the one owner of "closed":
    /// the FTL seals on the device every block [`Allocator::is_open`]
    /// stops naming (`FlashDevice::seal`).
    pub fn close_frontier(&mut self, region: Region) -> Option<BlockId> {
        let o = self.open[region.idx()].as_mut()?;
        o.used = self.pages_per_block;
        Some(o.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> Allocator {
        Allocator::new(16, 4, 2)
    }

    #[test]
    fn frontier_fills_then_rotates() {
        let mut a = alloc();
        let b0 = a.alloc_page(Region::Hot, false).unwrap();
        for _ in 0..3 {
            assert_eq!(a.alloc_page(Region::Hot, false), Some(b0));
        }
        // Block full: next alloc opens a new one.
        let b1 = a.alloc_page(Region::Hot, false).unwrap();
        assert_ne!(b0, b1);
        assert!(a.is_open(b1));
        assert!(!a.is_open(b0));
        assert_eq!(a.region_of(b0), Some(Region::Hot));
    }

    #[test]
    fn free_pages_counts_pool_and_frontier_tails() {
        let mut a = alloc();
        assert_eq!(a.free_pages(), 16 * 4);
        // Opening a frontier moves its block out of the pool but its
        // unwritten pages still count.
        a.alloc_page(Region::Hot, false).unwrap();
        assert_eq!(a.free_pages(), 16 * 4 - 1);
        a.alloc_page(Region::Hot, false).unwrap();
        assert_eq!(a.free_pages(), 16 * 4 - 2);
    }

    #[test]
    fn regions_have_independent_frontiers() {
        let mut a = alloc();
        let h = a.alloc_page(Region::Hot, false).unwrap();
        let c = a.alloc_page(Region::Cold, true).unwrap();
        assert_ne!(h, c);
        assert_eq!(a.region_of(h), Some(Region::Hot));
        assert_eq!(a.region_of(c), Some(Region::Cold));
        assert!(a.is_open(h) && a.is_open(c));
    }

    #[test]
    fn foreground_respects_gc_reserve() {
        let mut a = alloc(); // 16 blocks, reserve 2
        let mut opened = std::collections::HashSet::new();
        // Fill frontier blocks until foreground refuses.
        while let Some(b) = a.alloc_page(Region::Hot, false) {
            opened.insert(b);
        }
        // 14 blocks usable by foreground (16 - 2 reserve).
        assert_eq!(opened.len(), 14);
        assert_eq!(a.free_blocks(), 2);
        // GC can still allocate from the reserve.
        assert!(a.alloc_page(Region::Cold, true).is_some());
        assert_eq!(a.free_blocks(), 1);
    }

    #[test]
    fn release_recycles_blocks() {
        let mut a = alloc();
        let b0 = a.alloc_page(Region::Hot, false).unwrap();
        for _ in 0..3 {
            a.alloc_page(Region::Hot, false);
        }
        let before = a.free_blocks();
        a.release(b0);
        assert_eq!(a.free_blocks(), before + 1);
        assert_eq!(a.region_of(b0), None);
    }

    #[test]
    #[should_panic(expected = "open frontier")]
    fn releasing_open_frontier_panics() {
        let mut a = alloc();
        let b = a.alloc_page(Region::Hot, false).unwrap();
        a.release(b);
    }

    /// The double-release check is a `debug_assert!` (see
    /// [`Allocator::release`]: the containment scan is too slow for the GC
    /// hot path), so under `cargo test --release` nothing panics and this
    /// test only exists in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut a = alloc();
        let b0 = a.alloc_page(Region::Hot, false).unwrap();
        for _ in 0..3 {
            a.alloc_page(Region::Hot, false);
        }
        a.alloc_page(Region::Hot, false); // rotate so b0 is closed
        a.release(b0);
        a.release(b0);
    }

    #[test]
    #[should_panic(expected = "no usable blocks")]
    fn absurd_reserve_rejected() {
        Allocator::new(4, 4, 3);
    }

    #[test]
    fn a_retired_block_never_returns_to_the_pool() {
        let mut a = alloc(); // 16 blocks, reserve 2
        let b0 = a.alloc_page(Region::Hot, false).unwrap();
        for _ in 0..3 {
            a.alloc_page(Region::Hot, false);
        }
        a.alloc_page(Region::Hot, false); // rotate so b0 is closed
        let free = a.free_blocks();
        a.retire(b0);
        assert_eq!(a.region_of(b0), None);
        assert_eq!(a.free_blocks(), free);
    }

    #[test]
    #[should_panic(expected = "retiring free block")]
    fn retiring_a_free_block_panics() {
        let mut a = alloc();
        a.retire(15);
    }

    #[test]
    fn close_frontier_forces_rotation() {
        let mut a = alloc();
        let b0 = a.alloc_page(Region::Host, false).unwrap();
        assert!(a.is_open(b0));
        assert_eq!(a.close_frontier(Region::Host), Some(b0), "reports the block it closed");
        assert!(!a.is_open(b0), "closed frontier is no longer open");
        let b1 = a.alloc_page(Region::Host, false).unwrap();
        assert_ne!(b0, b1, "retry must land on a fresh block");
        // Closing a region with no frontier is a no-op.
        assert_eq!(a.close_frontier(Region::Cold), None);
    }

    #[test]
    fn recovered_allocator_starts_from_durable_facts() {
        let mut a = Allocator::recovered(16, 4, 2, vec![5, 9, 1]);
        assert_eq!(a.free_blocks(), 3);
        assert_eq!(a.region_of(5), None);
        assert!(!a.is_open(5));
        // First allocation pops the recovered order.
        assert_eq!(a.alloc_page(Region::Host, true), Some(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recovered_rejects_out_of_range_free_blocks() {
        Allocator::recovered(16, 4, 2, vec![16]);
    }
}
