//! Device geometry and address arithmetic.

use crate::addr::{BlockId, PageOffset, PhysAddr, Ppn};
use crate::block::Block;

/// NAND geometry: channels × dies/channel × planes/die × blocks/plane ×
/// pages/block, with `page_size` bytes per page.
///
/// All address math lives here. Physical page numbers are laid out
/// block-major (`ppn = block_id * pages_per_block + page`), and block ids are
/// laid out so that consecutive blocks in the same plane are contiguous:
/// `block_id = ((channel * dies + die) * planes + plane) * blocks_per_plane
/// + block`. A block's die is therefore a cheap division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of channels.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_size: u32,
}

impl Geometry {
    /// Validate and construct a geometry.
    ///
    /// # Panics
    /// Panics if any dimension is zero — a zero-sized device is always a
    /// configuration bug — or if `pages_per_block` exceeds
    /// [`Block::MAX_PAGES`] (64; Table I's block is 64 pages). The panic
    /// message names the offending field.
    pub fn new(
        channels: u32,
        dies_per_channel: u32,
        planes_per_die: u32,
        blocks_per_plane: u32,
        pages_per_block: u32,
        page_size: u32,
    ) -> Self {
        assert!(channels > 0, "geometry: channels must be > 0");
        assert!(dies_per_channel > 0, "geometry: dies_per_channel must be > 0");
        assert!(planes_per_die > 0, "geometry: planes_per_die must be > 0");
        assert!(blocks_per_plane > 0, "geometry: blocks_per_plane must be > 0");
        assert!(pages_per_block > 0, "geometry: pages_per_block must be > 0");
        assert!(
            pages_per_block <= Block::MAX_PAGES,
            "geometry: pages_per_block must be <= {}, got {pages_per_block}",
            Block::MAX_PAGES
        );
        assert!(page_size > 0, "geometry: page_size must be > 0");
        Self {
            channels,
            dies_per_channel,
            planes_per_die,
            blocks_per_plane,
            pages_per_block,
            page_size,
        }
    }

    /// Total number of dies.
    #[inline]
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel
    }

    /// Total number of blocks.
    #[inline]
    pub fn total_blocks(&self) -> u32 {
        self.total_dies() * self.planes_per_die * self.blocks_per_plane
    }

    /// Total number of physical pages.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() as u64 * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Blocks per die (planes × blocks/plane).
    #[inline]
    pub fn blocks_per_die(&self) -> u32 {
        self.planes_per_die * self.blocks_per_plane
    }

    /// Compose a PPN from block id and page offset.
    ///
    /// # Panics
    /// Panics (debug) if the block id or page offset is out of range.
    #[inline]
    pub fn ppn(&self, block: BlockId, page: PageOffset) -> Ppn {
        debug_assert!(block < self.total_blocks(), "block {block} out of range");
        debug_assert!(page < self.pages_per_block, "page {page} out of range");
        block as u64 * self.pages_per_block as u64 + page as u64
    }

    /// Block id containing `ppn`.
    #[inline]
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        debug_assert!(ppn < self.total_pages(), "ppn {ppn} out of range");
        (ppn / self.pages_per_block as u64) as BlockId
    }

    /// Page offset of `ppn` within its block.
    #[inline]
    pub fn page_of(&self, ppn: Ppn) -> PageOffset {
        (ppn % self.pages_per_block as u64) as PageOffset
    }

    /// Die index (0-based, device-wide) that owns block `block`.
    #[inline]
    pub fn die_of_block(&self, block: BlockId) -> u32 {
        debug_assert!(block < self.total_blocks(), "block {block} out of range");
        block / self.blocks_per_die()
    }

    /// Die index that owns `ppn`.
    #[inline]
    pub fn die_of(&self, ppn: Ppn) -> u32 {
        self.die_of_block(self.block_of(ppn))
    }

    /// Channel index that owns `ppn`.
    #[inline]
    pub fn channel_of(&self, ppn: Ppn) -> u32 {
        self.die_of(ppn) / self.dies_per_channel
    }

    /// Fully decompose a PPN (diagnostics).
    pub fn decompose(&self, ppn: Ppn) -> PhysAddr {
        let block = self.block_of(ppn);
        let page = self.page_of(ppn);
        let die_global = self.die_of_block(block);
        let within_die = block % self.blocks_per_die();
        PhysAddr {
            channel: die_global / self.dies_per_channel,
            die: die_global % self.dies_per_channel,
            plane: within_die / self.blocks_per_plane,
            block: within_die % self.blocks_per_plane,
            page,
        }
    }

    /// Iterate every PPN of a block, in program order.
    pub fn pages_of_block(&self, block: BlockId) -> impl Iterator<Item = Ppn> {
        let base = block as u64 * self.pages_per_block as u64;
        (0..self.pages_per_block as u64).map(move |p| base + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Geometry {
        // 2 channels × 2 dies × 2 planes × 8 blocks × 16 pages × 4KiB
        Geometry::new(2, 2, 2, 8, 16, 4096)
    }

    #[test]
    fn totals_multiply_out() {
        let g = g();
        assert_eq!(g.total_dies(), 4);
        assert_eq!(g.blocks_per_die(), 16);
        assert_eq!(g.total_blocks(), 64);
        assert_eq!(g.total_pages(), 1024);
        assert_eq!(g.capacity_bytes(), 1024 * 4096);
    }

    #[test]
    fn ppn_round_trips_through_block_and_page() {
        let g = g();
        for block in 0..g.total_blocks() {
            for page in (0..g.pages_per_block).step_by(5) {
                let ppn = g.ppn(block, page);
                assert_eq!(g.block_of(ppn), block);
                assert_eq!(g.page_of(ppn), page);
            }
        }
    }

    #[test]
    fn die_mapping_partitions_blocks_evenly() {
        let g = g();
        let mut counts = vec![0u32; g.total_dies() as usize];
        for b in 0..g.total_blocks() {
            counts[g.die_of_block(b) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == g.blocks_per_die()));
    }

    #[test]
    fn decompose_is_consistent_with_accessors() {
        let g = g();
        let ppn = g.ppn(37, 11);
        let a = g.decompose(ppn);
        assert_eq!(a.page, 11);
        assert_eq!(a.channel, g.channel_of(ppn));
        let die_global = a.channel * g.dies_per_channel + a.die;
        assert_eq!(die_global, g.die_of(ppn));
        // Recompose the block id and check it matches.
        let block = ((a.channel * g.dies_per_channel + a.die) * g.planes_per_die + a.plane)
            * g.blocks_per_plane
            + a.block;
        assert_eq!(block, g.block_of(ppn));
    }

    #[test]
    fn pages_of_block_covers_exactly_the_block() {
        let g = g();
        let pages: Vec<Ppn> = g.pages_of_block(3).collect();
        assert_eq!(pages.len(), 16);
        assert_eq!(pages[0], g.ppn(3, 0));
        assert_eq!(*pages.last().unwrap(), g.ppn(3, 15));
        assert!(pages.iter().all(|&p| g.block_of(p) == 3));
    }

    #[test]
    #[should_panic(expected = "pages_per_block")]
    fn zero_dimension_rejected() {
        Geometry::new(1, 1, 1, 1, 0, 4096);
    }

    #[test]
    #[should_panic(expected = "pages_per_block must be <= 64")]
    fn blocks_beyond_one_validity_word_rejected() {
        Geometry::new(1, 1, 1, 8, 65, 4096);
    }

    #[test]
    fn table1_block_shape() {
        // Table I: 4KB pages, 256KB blocks => 64 pages/block.
        let g = Geometry::new(8, 4, 1, 100, 64, 4096);
        assert_eq!(g.pages_per_block * g.page_size, 256 * 1024);
    }
}
