//! The Greedy victim index: collectible blocks bucketed by valid-page count.
//!
//! A greedy device is the population of blocks *per valid-page count*
//! (Li/Lee/Lui's mean-field state); this index maintains exactly that
//! partition so the victim — a member of the lowest non-empty bucket —
//! is found without looking at any other block. All storage is flat and
//! sized at construction: every bucket is a circular doubly-linked list
//! threaded through one `links` array, with the buckets' sentinel nodes
//! stored after the block nodes. Moving a block between buckets is five
//! stores, nothing allocates afterwards, and finding the lowest occupied
//! bucket reads at most `pages_per_block` adjacent sentinels — work that
//! depends on the block size, never on the number of blocks. What the
//! caller then does per member of that bucket (the policy's tie-break) is
//! the one cost left that follows the population.

use crate::addr::BlockId;

/// `links` entry of a block that is in no bucket.
const UNFILED: [u32; 2] = [u32::MAX; 2];

#[derive(Debug, Clone)]
pub(crate) struct VictimIndex {
    /// `[prev, next]` per node. Nodes `0..blocks` are the blocks; node
    /// `blocks + v` is the sentinel of bucket `v` (blocks with `v` valid
    /// pages). An empty bucket's sentinel points at itself.
    links: Vec<[u32; 2]>,
    blocks: u32,
    /// Blocks filed, over all buckets.
    filed: u32,
    /// Σ free pages over sealed blocks (each sealed block's own count is
    /// its `Block::free_count`, frozen until the erase lifts the seal).
    stranded_total: u64,
}

impl VictimIndex {
    /// An empty index over `blocks` blocks with buckets `0..pages_per_block`
    /// (a fully valid block reclaims nothing and is never filed).
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        let mut links = vec![UNFILED; (blocks + pages_per_block) as usize];
        for s in blocks..blocks + pages_per_block {
            links[s as usize] = [s, s];
        }
        Self { links, blocks, filed: 0, stranded_total: 0 }
    }

    /// File `b` under `valid` pages, or take it out of the index (`None`).
    #[inline]
    pub fn file(&mut self, b: BlockId, valid: Option<u32>) {
        let [prev, next] = self.links[b as usize];
        if prev != UNFILED[0] {
            self.unlink(prev, next);
            self.filed -= 1;
        }
        match valid {
            Some(v) => {
                self.link(b, v);
                self.filed += 1;
            }
            None => self.links[b as usize] = UNFILED,
        }
    }

    /// Take the node between `prev` and `next` out of its list.
    #[inline]
    fn unlink(&mut self, prev: u32, next: u32) {
        self.links[prev as usize][1] = next;
        self.links[next as usize][0] = prev;
    }

    /// Put `b` at the head of bucket `v`'s list.
    #[inline]
    fn link(&mut self, b: BlockId, v: u32) {
        let sentinel = self.blocks + v;
        let first = std::mem::replace(&mut self.links[sentinel as usize][1], b);
        self.links[first as usize][0] = b;
        self.links[b as usize] = [sentinel, first];
    }

    /// Number of blocks filed.
    #[inline]
    pub fn filed(&self) -> u32 {
        self.filed
    }

    /// Members of the lowest non-empty bucket, in no particular order.
    pub fn lowest_bucket(&self) -> impl Iterator<Item = BlockId> + '_ {
        // An empty bucket's sentinel points at itself; with every bucket
        // empty the walk starts at bucket 0's sentinel and ends at once.
        let sentinels = self.blocks..self.links.len() as u32;
        let sentinel = sentinels
            .clone()
            .find(|&s| self.links[s as usize][1] != s)
            .unwrap_or(sentinels.start);
        std::iter::successors(Some(self.links[sentinel as usize][1]), move |&b| {
            Some(self.links[b as usize][1])
        })
        .take_while(move |&b| b != sentinel)
    }

    /// A block was sealed with `free` never-written pages behind its write
    /// pointer.
    #[inline]
    pub fn strand(&mut self, free: u32) {
        self.stranded_total += u64::from(free);
    }

    /// The erase or retirement of a sealed block took its `free` stranded
    /// pages out of the total.
    #[inline]
    pub fn unstrand(&mut self, free: u32) {
        self.stranded_total -= u64::from(free);
    }

    /// Σ stranded free pages over sealed blocks.
    #[inline]
    pub fn stranded_total(&self) -> u64 {
        self.stranded_total
    }

    /// Bytes the index holds on the heap: its links.
    pub fn heap_bytes(&self) -> usize {
        self.links.capacity() * std::mem::size_of::<[u32; 2]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowest(ix: &VictimIndex) -> Vec<BlockId> {
        let mut v: Vec<_> = ix.lowest_bucket().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn blocks_move_between_buckets_and_the_lowest_is_found() {
        let mut ix = VictimIndex::new(6, 70);
        assert_eq!(lowest(&ix), [], "empty index");
        ix.file(0, Some(69));
        ix.file(1, Some(65));
        ix.file(2, Some(65));
        assert_eq!(lowest(&ix), [1, 2]);
        ix.file(3, Some(7));
        ix.file(1, Some(7));
        assert_eq!(lowest(&ix), [1, 3]);
        ix.file(4, None);
        assert_eq!(ix.filed(), 4, "taking out an unfiled block changes nothing");
        // Re-filing under the same count is harmless.
        ix.file(3, Some(7));
        assert_eq!(lowest(&ix), [1, 3]);
        ix.file(1, None);
        ix.file(3, None);
        assert_eq!(lowest(&ix), [2], "bucket 7 emptied, bucket 65 is lowest again");
        ix.file(2, None);
        ix.file(0, None);
        assert_eq!(lowest(&ix), []);
        assert_eq!(ix.filed(), 0);
        ix.file(5, Some(0));
        assert_eq!(lowest(&ix), [5]);
    }
}
