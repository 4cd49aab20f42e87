//! The flash device: blocks + per-die timelines + operation issue.

use crate::addr::{BlockId, Ppn};
use crate::block::{Block, PageState};
use crate::fault::{FaultConfig, FaultPlan, FlashError, JournalEntry, JournalOp, PageOob};
use crate::geometry::Geometry;
use crate::stats::DeviceStats;
use crate::timing::Timing;
use crate::victim_index::VictimIndex;
use cagc_sim::time::Nanos;
use cagc_sim::timeline::{Reservation, Timeline, TimelineGroup};

/// The class of a flash operation (used in timing breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// A simulated NAND device.
///
/// Owns every block's state plus one [`cagc_sim::Timeline`] per die: an
/// operation on a die queues behind earlier operations on the same die and
/// proceeds in parallel with other dies. Channel timelines are maintained
/// too when `Timing::bus_xfer_ns > 0` (page transfers serialize per
/// channel), matching FlashSim's resource model.
///
/// The device enforces the NAND state machine (sequential program within a
/// block, no erase of valid data). Violations surface as the caller-bug
/// variants of [`FlashError`] — FTL bugs should explode at the point of
/// damage, not corrupt statistics silently — while a configured
/// [`FaultPlan`] injects the *device's own* misbehaviour: program/erase
/// failures, read ECC errors, power loss.
///
/// Alongside the cells, the device persists what a real controller keeps
/// for recovery: per-page OOB metadata ([`PageOob`], stamped at program
/// time), an append-only mapping-delta journal ([`JournalEntry`]) and a
/// bad-block table. After a simulated power loss, everything volatile in
/// the FTL is rebuilt from exactly these three (see `cagc-core`'s
/// recovery pass). The OOB and the journal are kept only while a fault
/// plan is armed ([`FlashDevice::faults_active`], the one predicate that
/// decides it): a device that cannot crash is never recovered, so it
/// allocates, stamps and clears no OOB and appends no journal record.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    geometry: Geometry,
    timing: Timing,
    blocks: Vec<Block>,
    dies: TimelineGroup,
    channels: TimelineGroup,
    stats: DeviceStats,
    plan: FaultPlan,
    /// Per-page OOB, indexed by PPN; empty unless the fault plan is
    /// active. An erase clears its block's entries.
    oob: Vec<PageOob>,
    /// Append-only mapping-delta journal (see [`FlashDevice::journal_append`]).
    journal: Vec<JournalEntry>,
    /// Shared durable sequence counter for OOB stamps and journal records.
    seq: u64,
    /// The Greedy victim index: every *collectible* block — written, not
    /// retired, and either full or sealed ([`FlashDevice::seal`]) — that an
    /// erase would gain from, filed under its valid-page count. A block
    /// still being programmed is neither full nor sealed, so an open write
    /// frontier is never in the index. Kept exact by
    /// `sync_victim_index` on every fill / invalidate / seal / erase /
    /// retire / recovery transition.
    victims: VictimIndex,
    /// `wear_hist[c]` = blocks erased exactly `c` times, maintained by
    /// [`FlashDevice::erase`] so wear percentiles need no per-call sort.
    /// Erase counts only grow, so the last bucket is never empty.
    wear_hist: Vec<u32>,
}

impl FlashDevice {
    /// A fresh device with no fault injection: all blocks erased, all dies
    /// idle. Behaves bit-identically to the pre-fault-subsystem device.
    pub fn new(geometry: Geometry, timing: Timing) -> Self {
        Self::with_faults(geometry, timing, FaultConfig::none())
    }

    /// A fresh device with the given fault-injection configuration.
    pub fn with_faults(geometry: Geometry, timing: Timing, faults: FaultConfig) -> Self {
        let blocks: Vec<Block> =
            (0..geometry.total_blocks()).map(|_| Block::new(geometry.pages_per_block)).collect();
        let plan = FaultPlan::new(faults);
        let oob = if plan.is_active() {
            vec![PageOob::default(); geometry.total_pages() as usize]
        } else {
            Vec::new()
        };
        Self {
            geometry,
            timing,
            blocks,
            dies: TimelineGroup::new(geometry.total_dies() as usize),
            channels: TimelineGroup::new(geometry.channels as usize),
            stats: DeviceStats::default(),
            plan,
            oob,
            journal: Vec::new(),
            seq: 0,
            victims: VictimIndex::new(geometry.total_blocks(), geometry.pages_per_block),
            wear_hist: vec![geometry.total_blocks()],
        }
    }

    /// Re-file block `b` in the victim index from its authoritative state
    /// (see the `victims` field docs): O(1), whatever changed.
    #[inline]
    fn sync_victim_index(&mut self, b: BlockId) {
        let blk = &self.blocks[b as usize];
        let valid = blk.valid_count();
        let collectible =
            (blk.is_full() || blk.is_sealed()) && !blk.is_retired() && valid < blk.pages();
        self.victims.file(b, collectible.then_some(valid));
    }

    /// Declare that no more pages will be programmed into `b` before its
    /// next erase: the FTL closed this write frontier early (program-failure
    /// retry) or lost it (power loss). The never-written tail is *stranded*
    /// — only an erase brings it back — so the block becomes collectible
    /// with those pages counted in its reclaim gain (pages − valid, exactly
    /// as for a full block). A block with nothing written has nothing to
    /// collect, a full one strands nothing, and a retired one is gone; all
    /// three are left unsealed. Sealing twice is sealing once.
    pub fn seal(&mut self, b: BlockId) {
        let blk = &mut self.blocks[b as usize];
        if !blk.is_free() && !blk.is_full() && !blk.is_retired() && !blk.is_sealed() {
            blk.seal();
            self.victims.strand(blk.free_count());
        }
        self.sync_victim_index(b);
    }

    /// The Greedy GC victim, answered from the victim index without looking
    /// at any block outside the lowest occupied valid-count bucket: the
    /// collectible block with the fewest valid pages (= the largest reclaim
    /// gain, invalid + stranded), ties broken exactly like the `Greedy`
    /// policy key — most trimmed pages, then fewest erases, then lowest
    /// block id. `None` when no collectible block would reclaim anything.
    /// Exact in every configuration: sealed blocks are index members, so
    /// armed faults and power-loss recovery need no fallback.
    pub fn greedy_full_victim(&self) -> Option<BlockId> {
        self.victims.lowest_bucket().min_by_key(|&b| {
            let blk = &self.blocks[b as usize];
            (u32::MAX - blk.trimmed_count(), blk.erase_count(), b)
        })
    }

    /// Number of blocks a victim policy may choose from right now (the
    /// collectible blocks whose erase would reclaim at least one page).
    #[inline]
    pub fn victim_candidates(&self) -> u32 {
        self.victims.filed()
    }

    /// Free pages stranded behind sealed write pointers, over all victim
    /// candidates — capacity only GC can return.
    #[inline]
    pub fn stranded_pages(&self) -> u64 {
        self.victims.stranded_total()
    }

    /// The device geometry.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing parameters.
    #[inline]
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Operation counters.
    #[inline]
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Immutable view of block `b`.
    #[inline]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b as usize]
    }

    /// Number of blocks (= `geometry().total_blocks()`).
    #[inline]
    pub fn block_count(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// State of the page at `ppn`.
    #[inline]
    pub fn page_state(&self, ppn: Ppn) -> PageState {
        self.blocks[self.geometry.block_of(ppn) as usize].page_state(self.geometry.page_of(ppn))
    }

    /// Cumulative busy time per die, in die order (parallelism report).
    pub fn die_busy_totals(&self) -> Vec<Nanos> {
        (0..self.dies.len()).map(|d| self.dies.get(d).busy_total()).collect()
    }

    /// Whether the simulated power-loss point has been reached. While
    /// crashed, every device operation fails with
    /// [`FlashError::PowerLoss`] until [`FlashDevice::power_cycle`].
    #[inline]
    pub fn is_crashed(&self) -> bool {
        self.plan.crashed()
    }

    /// Whether any fault source is configured — and so whether the device
    /// keeps durable recovery metadata: per-page OOB and the mapping-delta
    /// journal exist only while this holds. A device with no fault plan
    /// never crashes, so nothing would ever read them.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Roll whether a *last-resort* recovery action (heroic ECC decode,
    /// forced program) fails unrecoverably. The FTL calls this on the host
    /// path only; GC migrations never surface host-visible errors. Draws
    /// from the plan's dedicated `"unrecoverable"` stream (see
    /// [`FaultConfig::unrecoverable_prob`](crate::FaultConfig::unrecoverable_prob)).
    pub fn roll_unrecoverable(&mut self) -> bool {
        self.plan.roll_unrecoverable()
    }

    /// Power the device back on after a crash: cells, OOB, journal and
    /// bad-block table are intact (they are the durable state); the latch
    /// clears and the consumed crash point will not fire again. The FTL
    /// must now run its recovery pass before trusting any volatile state.
    pub fn power_cycle(&mut self) {
        self.plan.power_cycle();
    }

    /// Whether block `b` has been retired to the bad-block table.
    #[inline]
    pub fn is_retired(&self, b: BlockId) -> bool {
        self.blocks[b as usize].is_retired()
    }

    /// Blocks not in the bad-block table.
    #[inline]
    pub fn usable_blocks(&self) -> u32 {
        self.block_count() - self.stats.blocks_retired as u32
    }

    /// OOB metadata of the page at `ppn` (zeroed if never programmed since
    /// the last erase).
    ///
    /// # Panics
    /// Panics if no fault plan is armed: such a device keeps no OOB, and
    /// reading it is a caller bug, not a page that was never programmed.
    #[inline]
    pub fn oob(&self, ppn: Ppn) -> PageOob {
        assert!(
            self.faults_active(),
            "FlashDevice::oob: no fault plan is armed, so the device keeps no per-page OOB"
        );
        self.oob[ppn as usize]
    }

    /// The mapping-delta journal, in append (= durable) order.
    #[inline]
    pub fn journal(&self) -> &[JournalEntry] {
        &self.journal
    }

    /// Durable operations performed so far (programs, erases, journal
    /// appends) — the clock `FaultConfig::crash_at_op` counts in.
    #[inline]
    pub fn durable_ops(&self) -> u64 {
        self.plan.durable_ops()
    }

    /// Append a mapping mutation to the metadata journal. This is a
    /// durable operation: it advances the shared sequence counter and
    /// counts toward the crash point. Metadata writes ride the controller's
    /// capacitor-backed buffer, so no die time is charged.
    ///
    /// With no fault plan armed this is a no-op — no record, no durable
    /// operation, no `journal_appends` count — so callers append
    /// unconditionally and the device decides.
    #[inline]
    pub fn journal_append(&mut self, op: JournalOp) -> Result<(), FlashError> {
        if !self.plan.is_active() {
            return Ok(());
        }
        self.plan.note_durable_op()?;
        let seq = self.bump_seq();
        self.journal.push(JournalEntry { seq, op });
        self.stats.journal_appends += 1;
        Ok(())
    }

    /// Issue a page read at `ppn`, ready no earlier than `ready_at`.
    ///
    /// Reads of `Free` pages are rejected ([`FlashError::ReadFree`]): the
    /// FTL must never read an unwritten physical page. Invalid pages may
    /// still be read — GC migration reads a page before its mapping
    /// metadata is finalized. An injected ECC error still occupies the die
    /// for the full read and returns [`FlashError::ReadEcc`] with the
    /// attempt's completion time; the caller decides whether to re-read.
    pub fn read(&mut self, ppn: Ppn, ready_at: Nanos) -> Result<Reservation, FlashError> {
        if self.plan.crashed() {
            return Err(FlashError::PowerLoss);
        }
        if ppn >= self.geometry.total_pages() {
            return Err(FlashError::BadPpn { ppn });
        }
        if self.page_state(ppn) == PageState::Free {
            return Err(FlashError::ReadFree { ppn });
        }
        let r = self.reserve_page_op(ppn, ready_at, self.timing.read_service());
        self.stats.reads += 1;
        self.stats.read_busy_ns += self.timing.read_service();
        if self.plan.roll_read() {
            self.stats.read_ecc_errors += 1;
            return Err(FlashError::ReadEcc { ppn, at: r.end });
        }
        Ok(r)
    }

    /// Program the **next free page** of block `block` (NAND requires
    /// sequential program order), stamping `oob` when a fault plan is armed
    /// (the device fills in [`PageOob::seq`]). Returns the reservation and
    /// the programmed PPN.
    ///
    /// Programs are durable operations: they count toward the crash point.
    /// An injected program failure consumes the page (it is left `Invalid`
    /// with a torn OOB), occupies the die for the full program, and
    /// returns [`FlashError::ProgramFailed`]; the FTL retries on another
    /// block. Caller bugs return [`FlashError::BlockFull`] (also for a
    /// sealed block) / [`FlashError::BadBlock`] / [`FlashError::Retired`].
    pub fn program_next(
        &mut self,
        block: BlockId,
        ready_at: Nanos,
        oob: PageOob,
    ) -> Result<(Reservation, Ppn), FlashError> {
        self.program_inner(block, ready_at, oob, true)
    }

    /// [`FlashDevice::program_next`] with fault injection bypassed (power
    /// loss and caller bugs still apply). The FTL's last-resort path after
    /// exhausting bounded retries: real controllers shift to a stronger
    /// program algorithm rather than fail the host write.
    pub fn program_next_forced(
        &mut self,
        block: BlockId,
        ready_at: Nanos,
        oob: PageOob,
    ) -> Result<(Reservation, Ppn), FlashError> {
        self.program_inner(block, ready_at, oob, false)
    }

    fn program_inner(
        &mut self,
        block: BlockId,
        ready_at: Nanos,
        oob: PageOob,
        faultable: bool,
    ) -> Result<(Reservation, Ppn), FlashError> {
        if self.plan.crashed() {
            return Err(FlashError::PowerLoss);
        }
        if block >= self.block_count() {
            return Err(FlashError::BadBlock { block });
        }
        let blk = &self.blocks[block as usize];
        if blk.is_retired() {
            return Err(FlashError::Retired { block });
        }
        if blk.next_program_page().is_none() {
            return Err(FlashError::BlockFull { block });
        }
        self.plan.note_durable_op()?;
        let svc = self.timing.program_service();
        let r = self.reserve_block_op(block, ready_at, svc);
        let page = self.blocks[block as usize]
            .program_next(r.end)
            .expect("checked programmable above");
        let ppn = self.geometry.ppn(block, page);
        let seq = self.bump_seq();
        self.stats.programs += 1;
        self.stats.program_busy_ns += svc;
        if faultable && self.plan.roll_program() {
            // The attempt spoiled the page: consumed, unreadable, torn OOB
            // (a roll only fires on an armed plan, so the OOB exists).
            self.blocks[block as usize].invalidate(page, r.end);
            self.oob[ppn as usize] = PageOob { lpn: None, fp: None, seq };
            self.stats.program_failures += 1;
            self.sync_victim_index(block);
            return Err(FlashError::ProgramFailed { ppn, at: r.end });
        }
        if self.plan.is_active() {
            self.oob[ppn as usize] = PageOob { seq, ..oob };
        }
        if self.blocks[block as usize].is_full() {
            self.sync_victim_index(block);
        }
        Ok((r, ppn))
    }

    /// Mark `ppn` invalid (no flash operation — metadata only, free).
    pub fn invalidate(&mut self, ppn: Ppn, now: Nanos) {
        let b = self.geometry.block_of(ppn);
        self.blocks[b as usize].invalidate(self.geometry.page_of(ppn), now);
        self.sync_victim_index(b);
    }

    /// Mark `ppn` invalid because the host trimmed its last logical
    /// reference. Same metadata-only state change as
    /// [`FlashDevice::invalidate`], but the invalidation is *attributed*:
    /// the block's [`Block::trimmed_count`] and the device-wide
    /// [`DeviceStats::trimmed_pages`] counter both advance, so victim
    /// scoring and reports can tell trim garbage from overwrite garbage.
    pub fn deallocate(&mut self, ppn: Ppn, now: Nanos) {
        let b = self.geometry.block_of(ppn);
        self.blocks[b as usize].deallocate(self.geometry.page_of(ppn), now);
        self.stats.trimmed_pages += 1;
        self.sync_victim_index(b);
    }

    /// Erase block `block`, ready no earlier than `ready_at`.
    ///
    /// Erases are durable operations: they count toward the crash point.
    /// An injected erase failure retires the block to the bad-block table — its
    /// pages leave the usable pool forever — and returns
    /// [`FlashError::EraseFailed`]; the FTL accounts the capacity loss.
    /// Erasing a block that still holds valid pages is a caller bug
    /// ([`FlashError::EraseValid`]).
    pub fn erase(&mut self, block: BlockId, ready_at: Nanos) -> Result<Reservation, FlashError> {
        if self.plan.crashed() {
            return Err(FlashError::PowerLoss);
        }
        if block >= self.block_count() {
            return Err(FlashError::BadBlock { block });
        }
        if self.is_retired(block) {
            return Err(FlashError::Retired { block });
        }
        let valid = self.blocks[block as usize].valid_count();
        if valid > 0 {
            return Err(FlashError::EraseValid { block, valid });
        }
        self.plan.note_durable_op()?;
        let die = self.geometry.die_of_block(block) as usize;
        let r = self.dies.reserve(die, ready_at, self.timing.erase_ns);
        let blk = &self.blocks[block as usize];
        let wear = blk.erase_count();
        // Erased or retired, a sealed block's stranded pages leave the total.
        if blk.is_sealed() {
            self.victims.unstrand(blk.free_count());
        }
        if self.plan.roll_erase() {
            self.blocks[block as usize].retire();
            self.stats.erase_failures += 1;
            self.stats.blocks_retired += 1;
            self.stats.erase_busy_ns += self.timing.erase_ns;
            self.sync_victim_index(block);
            return Err(FlashError::EraseFailed { block, at: r.end });
        }
        self.blocks[block as usize].erase(r.end);
        self.wear_hist[wear as usize] -= 1;
        if wear as usize + 1 == self.wear_hist.len() {
            self.wear_hist.push(0);
        }
        self.wear_hist[wear as usize + 1] += 1;
        self.sync_victim_index(block);
        if self.plan.is_active() {
            for ppn in self.geometry.pages_of_block(block) {
                self.oob[ppn as usize] = PageOob::default();
            }
        }
        self.stats.erases += 1;
        self.stats.erase_busy_ns += self.timing.erase_ns;
        Ok(r)
    }

    /// Recovery-only: rewrite every written page's validity from the
    /// durable truth `f(ppn)` (the page is referenced by at least one
    /// recovered logical mapping). Wear, write pointers and cell contents
    /// are physical facts and stay; per-block trim attribution is volatile
    /// and resets (see `Block::recover_validity`). The FTL's write
    /// frontiers were volatile too, so every written block comes back
    /// sealed ([`FlashDevice::seal`]).
    pub fn recover_validity(&mut self, mut f: impl FnMut(Ppn) -> bool) {
        for b in 0..self.blocks.len() {
            let base = self.geometry.ppn(b as BlockId, 0);
            self.blocks[b].recover_validity(|page| f(base + page as u64));
            self.seal(b as BlockId);
        }
    }

    /// Min/max/mean erase count across blocks (wear-leveling report).
    pub fn wear_summary(&self) -> (u32, u32, f64) {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        for b in &self.blocks {
            min = min.min(b.erase_count());
            max = max.max(b.erase_count());
            sum += b.erase_count() as u64;
        }
        (min, max, sum as f64 / self.blocks.len() as f64)
    }

    /// Erase count of the block at 0-based `rank` when all blocks (retired
    /// ones included) are ordered by erase count, clamped to the most-worn
    /// block: `sorted_erase_counts[rank]` without the sort.
    pub fn wear_at_rank(&self, rank: usize) -> u32 {
        let mut below = 0usize;
        for (count, &blocks) in self.wear_hist.iter().enumerate() {
            below += blocks as usize;
            if rank < below {
                return count as u32;
            }
        }
        (self.wear_hist.len() - 1) as u32
    }

    /// Population standard deviation of per-block erase counts — the
    /// scalar wear-evenness metric (0 = perfectly level).
    pub fn wear_stddev(&self) -> f64 {
        let (_, _, mean) = self.wear_summary();
        let var = self
            .blocks
            .iter()
            .map(|b| (b.erase_count() as f64 - mean).powi(2))
            .sum::<f64>()
            / self.blocks.len() as f64;
        var.sqrt()
    }

    /// Bytes the device holds on the heap: block records, per-page OOB and
    /// journal (both empty unless a fault plan is armed), victim-index
    /// links, wear histogram and die/channel timelines. Over
    /// `geometry().total_pages()` this is what one physical page costs the
    /// host.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks.capacity() * size_of::<Block>()
            + self.oob.capacity() * size_of::<PageOob>()
            + self.journal.capacity() * size_of::<JournalEntry>()
            + self.victims.heap_bytes()
            + self.wear_hist.capacity() * size_of::<u32>()
            + (self.dies.len() + self.channels.len()) * size_of::<Timeline>()
    }

    #[inline]
    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn reserve_page_op(&mut self, ppn: Ppn, ready_at: Nanos, svc: Nanos) -> Reservation {
        let block = self.geometry.block_of(ppn);
        self.reserve_block_op(block, ready_at, svc)
    }

    /// Reserve die time (and channel time when bus transfer is modelled)
    /// for an operation on `block`.
    fn reserve_block_op(&mut self, block: BlockId, ready_at: Nanos, svc: Nanos) -> Reservation {
        let die = self.geometry.die_of_block(block) as usize;
        if self.timing.bus_xfer_ns > 0 {
            // The channel must be free for the transfer portion; serialize
            // the transfer on the channel, then the cell op on the die.
            let chan = (die as u32 / self.geometry.dies_per_channel) as usize;
            let xfer = self.channels.reserve(chan, ready_at, self.timing.bus_xfer_ns);
            let cell = self.dies.reserve(die, xfer.end, svc - self.timing.bus_xfer_ns);
            Reservation { start: xfer.start, end: cell.end, queued: xfer.start - ready_at }
        } else {
            self.dies.reserve(die, ready_at, svc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagc_sim::time::us;

    fn dev() -> FlashDevice {
        // 1 channel × 2 dies × 1 plane × 4 blocks/plane × 8 pages.
        FlashDevice::new(Geometry::new(1, 2, 1, 4, 8, 4096), Timing::ull())
    }

    fn faulty(faults: FaultConfig) -> FlashDevice {
        FlashDevice::with_faults(Geometry::new(1, 2, 1, 4, 8, 4096), Timing::ull(), faults)
    }

    /// A plan that is armed but never fires: a power-loss point no run
    /// reaches. Armed is what makes the device keep OOB and journal.
    fn never_fires() -> FaultConfig {
        FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() }
    }

    fn host(lpn: u64) -> PageOob {
        PageOob::host(lpn, None)
    }

    #[test]
    fn wear_at_rank_matches_the_sorted_erase_counts() {
        let mut d = dev();
        // Uneven wear: block b is erased b times (b = 0 stays pristine).
        for b in 0..d.block_count() {
            for _ in 0..b {
                d.erase(b, 0).unwrap();
            }
        }
        let mut sorted: Vec<u32> = (0..d.block_count()).map(|b| d.block(b).erase_count()).collect();
        sorted.sort_unstable();
        for (rank, &wear) in sorted.iter().enumerate() {
            assert_eq!(d.wear_at_rank(rank), wear, "rank {rank}");
        }
        assert_eq!(d.wear_at_rank(sorted.len() + 5), *sorted.last().unwrap(), "clamped");
    }

    #[test]
    fn program_then_read_round_trip_times() {
        let mut d = dev();
        let (w, ppn) = d.program_next(0, 0, host(0)).unwrap();
        assert_eq!(w.start, 0);
        assert_eq!(w.end, us(16));
        assert_eq!(ppn, d.geometry().ppn(0, 0));
        let r = d.read(ppn, w.end).unwrap();
        assert_eq!(r.end, us(28)); // 16 + 12
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().programs, 1);
    }

    #[test]
    fn same_die_ops_serialize_different_dies_overlap() {
        let mut d = dev();
        // Blocks 0..4 are die 0; blocks 4..8 are die 1.
        let (a, _) = d.program_next(0, 0, host(0)).unwrap();
        let (b, _) = d.program_next(1, 0, host(1)).unwrap(); // same die: queues
        let (c, _) = d.program_next(4, 0, host(2)).unwrap(); // other die: parallel
        assert_eq!(a.end, us(16));
        assert_eq!(b.start, us(16));
        assert_eq!(b.end, us(32));
        assert_eq!(c.start, 0);
        assert_eq!(c.end, us(16));
    }

    #[test]
    fn erase_blocks_the_die_for_1_5_ms() {
        let mut d = dev();
        let (w, ppn) = d.program_next(0, 0, host(0)).unwrap();
        d.invalidate(ppn, w.end);
        let e = d.erase(0, w.end).unwrap();
        assert_eq!(e.end - e.start, us(1500));
        // A subsequent read on the same die waits out the erase.
        let (w2, ppn2) = d.program_next(1, 0, host(1)).unwrap();
        assert!(w2.start >= e.end);
        let r = d.read(ppn2, w2.end).unwrap();
        assert_eq!(r.start, w2.end);
    }

    #[test]
    fn reading_unwritten_page_is_a_structured_error() {
        let mut d = dev();
        assert_eq!(d.read(3, 0), Err(FlashError::ReadFree { ppn: 3 }));
        let bad = d.geometry().total_pages() + 7;
        assert_eq!(d.read(bad, 0), Err(FlashError::BadPpn { ppn: bad }));
        assert_eq!(d.stats().reads, 0, "rejected reads consume no die time");
    }

    #[test]
    fn caller_bugs_are_structured_errors() {
        let mut d = dev();
        for i in 0..8 {
            d.program_next(2, 0, host(i)).unwrap();
        }
        assert_eq!(
            d.program_next(2, 0, host(9)),
            Err(FlashError::BlockFull { block: 2 })
        );
        assert_eq!(d.program_next(99, 0, host(9)), Err(FlashError::BadBlock { block: 99 }));
        assert_eq!(d.erase(99, 0), Err(FlashError::BadBlock { block: 99 }));
        assert_eq!(
            d.erase(2, 0),
            Err(FlashError::EraseValid { block: 2, valid: 8 })
        );
        assert_eq!(d.stats().programs, 8, "rejected ops leave no trace in stats");
        assert_eq!(d.stats().erases, 0);
    }

    #[test]
    fn invalid_pages_remain_readable_for_migration() {
        let mut d = dev();
        let (w, ppn) = d.program_next(0, 0, host(0)).unwrap();
        d.invalidate(ppn, w.end);
        let r = d.read(ppn, w.end).unwrap(); // GC may still need the cells
        assert!(r.end > w.end);
    }

    #[test]
    fn deallocate_attributes_trim_garbage() {
        let mut d = dev();
        let (w, p0) = d.program_next(0, 0, host(0)).unwrap();
        let (_, p1) = d.program_next(0, 0, host(1)).unwrap();
        d.deallocate(p0, w.end);
        d.invalidate(p1, w.end);
        assert_eq!(d.page_state(p0), PageState::Invalid);
        assert_eq!(d.block(0).invalid_count(), 2);
        assert_eq!(d.block(0).trimmed_count(), 1);
        assert_eq!(d.stats().trimmed_pages, 1);
        // Erase clears the per-block attribution; the device total persists.
        let e = d.erase(0, w.end).unwrap();
        assert!(e.end > e.start);
        assert_eq!(d.block(0).trimmed_count(), 0);
        assert_eq!(d.stats().trimmed_pages, 1);
    }

    #[test]
    fn erase_resets_block_for_reuse() {
        let mut d = dev();
        for i in 0..8 {
            let (w, ppn) = d.program_next(2, 0, host(i)).unwrap();
            d.invalidate(ppn, w.end);
        }
        assert!(d.block(2).is_full());
        d.erase(2, us(1000)).unwrap();
        assert!(d.block(2).is_free());
        let (_, ppn) = d.program_next(2, us(3000), host(0)).unwrap();
        assert_eq!(d.geometry().page_of(ppn), 0);
        assert_eq!(d.block(2).erase_count(), 1);
    }

    #[test]
    fn stats_accumulate_busy_time() {
        let mut d = dev();
        let (_, p0) = d.program_next(0, 0, host(0)).unwrap();
        let (_, _p1) = d.program_next(0, 0, host(1)).unwrap();
        d.read(p0, 0).unwrap();
        d.invalidate(p0, 0);
        assert_eq!(d.stats().program_busy_ns, us(32));
        assert_eq!(d.stats().read_busy_ns, us(12));
        assert_eq!(d.stats().total_ops(), 3);
    }

    #[test]
    fn bus_transfer_serializes_on_channel() {
        let timing = Timing { bus_xfer_ns: us(2), ..Timing::ull() };
        // 1 channel, 2 dies: transfers contend even across dies.
        let mut d = FlashDevice::new(Geometry::new(1, 2, 1, 4, 8, 4096), timing);
        let (a, _) = d.program_next(0, 0, host(0)).unwrap(); // die 0
        let (b, _) = d.program_next(4, 0, host(1)).unwrap(); // die 1, same channel
        assert_eq!(a.end, us(18)); // 2 xfer + 16 program
        assert_eq!(b.start, us(2)); // waits for channel only
        assert_eq!(b.end, us(20));
    }

    #[test]
    fn wear_summary_tracks_spread() {
        let mut d = dev();
        for _ in 0..3 {
            let (w, ppn) = d.program_next(0, 0, host(0)).unwrap();
            d.invalidate(ppn, w.end);
            d.erase(0, w.end).unwrap();
        }
        let (min, max, mean) = d.wear_summary();
        assert_eq!(min, 0);
        assert_eq!(max, 3);
        assert!((mean - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn oob_is_stamped_at_program_time_and_cleared_by_erase() {
        let mut d = faulty(never_fires());
        let (_, p0) = d.program_next(0, 0, PageOob::host(42, Some(0xfeed))).unwrap();
        let (_, p1) = d.program_next(0, 0, PageOob::gc(Some(0xbeef))).unwrap();
        assert_eq!(d.oob(p0), PageOob { lpn: Some(42), fp: Some(0xfeed), seq: 0 });
        assert_eq!(d.oob(p1), PageOob { lpn: None, fp: Some(0xbeef), seq: 1 });
        d.invalidate(p0, 0);
        d.invalidate(p1, 0);
        d.erase(0, 0).unwrap();
        assert_eq!(d.oob(p0), PageOob::default());
        assert_eq!(d.oob(p1), PageOob::default());
    }

    #[test]
    fn journal_shares_the_sequence_counter_with_oob() {
        let mut d = faulty(never_fires());
        let (_, p0) = d.program_next(0, 0, host(1)).unwrap();
        d.journal_append(JournalOp::Remap { lpn: 2, ppn: p0 }).unwrap();
        let (_, p1) = d.program_next(0, 0, host(3)).unwrap();
        d.journal_append(JournalOp::Unmap { lpn: 2 }).unwrap();
        assert_eq!(d.oob(p0).seq, 0);
        assert_eq!(d.journal()[0].seq, 1);
        assert_eq!(d.oob(p1).seq, 2);
        assert_eq!(d.journal().len(), 2);
        assert_eq!(d.journal()[1].seq, 3);
        assert_eq!(d.journal()[1].op, JournalOp::Unmap { lpn: 2 });
        assert_eq!(d.stats().journal_appends, 2);
        assert_eq!(d.durable_ops(), 4);
    }

    #[test]
    fn a_fault_free_device_keeps_no_journal() {
        let mut d = dev();
        let (_, p0) = d.program_next(0, 0, host(1)).unwrap();
        d.journal_append(JournalOp::Remap { lpn: 2, ppn: p0 }).unwrap();
        d.journal_append(JournalOp::Unmap { lpn: 2 }).unwrap();
        assert!(d.journal().is_empty());
        assert_eq!(d.stats().journal_appends, 0);
        assert_eq!(d.durable_ops(), 1, "only the program was a durable op");
    }

    #[test]
    #[should_panic(expected = "no fault plan is armed")]
    fn reading_oob_of_a_fault_free_device_is_a_caller_bug() {
        let mut d = dev();
        let (_, ppn) = d.program_next(0, 0, host(1)).unwrap();
        d.oob(ppn);
    }

    #[test]
    fn scheduled_program_failure_spoils_the_page() {
        let mut d = faulty(FaultConfig {
            fail_program_ops: vec![1],
            ..FaultConfig::none()
        });
        let (_, p0) = d.program_next(0, 0, host(7)).unwrap();
        let err = d.program_next(0, 0, host(8)).unwrap_err();
        let FlashError::ProgramFailed { ppn, at } = err else {
            panic!("expected ProgramFailed, got {err:?}")
        };
        assert_eq!(ppn, p0 + 1);
        assert_eq!(at, us(32), "the failed attempt still occupied the die");
        assert_eq!(d.page_state(ppn), PageState::Invalid, "the page is consumed");
        assert_eq!(d.oob(ppn), PageOob { lpn: None, fp: None, seq: 1 }, "torn OOB");
        assert_eq!(d.stats().program_failures, 1);
        // The next program lands on the following page of the same block.
        let (_, p2) = d.program_next(0, 0, host(8)).unwrap();
        assert_eq!(p2, ppn + 1);
    }

    #[test]
    fn forced_program_bypasses_injection() {
        let mut d = faulty(FaultConfig { program_fail_prob: 1.0, ..FaultConfig::none() });
        assert!(d.program_next(0, 0, host(0)).is_err());
        let (_, ppn) = d.program_next_forced(0, 0, host(0)).unwrap();
        assert_eq!(d.page_state(ppn), PageState::Valid);
        assert_eq!(d.oob(ppn).lpn, Some(0));
    }

    #[test]
    fn erase_failure_retires_the_block() {
        let mut d = faulty(FaultConfig { fail_erase_ops: vec![0], ..FaultConfig::none() });
        let (w, ppn) = d.program_next(3, 0, host(0)).unwrap();
        d.invalidate(ppn, w.end);
        let err = d.erase(3, w.end).unwrap_err();
        assert_eq!(err, FlashError::EraseFailed { block: 3, at: w.end + us(1500) });
        assert_eq!((0..d.block_count()).filter(|&b| d.is_retired(b)).collect::<Vec<_>>(), [3]);
        assert_eq!(d.stats().erase_failures, 1);
        assert_eq!(d.stats().blocks_retired, 1);
        assert_eq!(d.stats().erases, 0, "a failed erase is not an erase");
        // The retired block accepts no further work.
        assert_eq!(d.program_next(3, 0, host(1)), Err(FlashError::Retired { block: 3 }));
        assert_eq!(d.erase(3, 0), Err(FlashError::Retired { block: 3 }));
    }

    #[test]
    fn crash_latches_until_power_cycle() {
        let mut d = faulty(FaultConfig { crash_at_op: Some(2), ..FaultConfig::none() });
        let (_, p0) = d.program_next(0, 0, host(0)).unwrap();
        d.program_next(0, 0, host(1)).unwrap();
        // The third durable op trips the crash; nothing after it succeeds.
        assert_eq!(d.program_next(0, 0, host(2)), Err(FlashError::PowerLoss));
        assert!(d.is_crashed());
        assert_eq!(d.read(p0, 0), Err(FlashError::PowerLoss));
        assert_eq!(d.erase(1, 0), Err(FlashError::PowerLoss));
        assert_eq!(
            d.journal_append(JournalOp::Unmap { lpn: 0 }),
            Err(FlashError::PowerLoss)
        );
        assert_eq!(d.stats().programs, 2, "the crashed op never happened");
        // Power back on: durable state intact, crash point consumed.
        d.power_cycle();
        assert!(!d.is_crashed());
        assert_eq!(d.oob(p0).lpn, Some(0));
        d.read(p0, 0).unwrap();
        d.program_next(0, 0, host(2)).unwrap();
    }

    /// The closed-block walk the victim index replaces, kept as its
    /// oracle: every written, unretired block that is full or that the
    /// caller closed early (`closed`) and whose erase would gain a page is
    /// a candidate. Returns (Greedy victim, Σ stranded free pages,
    /// candidate count) — the three answers the index must reproduce.
    fn walk_victims(d: &FlashDevice, closed: &[bool]) -> (Option<BlockId>, u64, u32) {
        let candidates: Vec<BlockId> = (0..d.block_count())
            .filter(|&b| {
                let blk = d.block(b);
                !blk.is_free()
                    && !d.is_retired(b)
                    && (blk.is_full() || closed[b as usize])
                    && blk.valid_count() < blk.pages()
            })
            .collect();
        let victim = candidates.iter().copied().min_by_key(|&b| {
            let blk = d.block(b);
            (blk.valid_count(), u32::MAX - blk.trimmed_count(), blk.erase_count(), b)
        });
        let stranded = candidates.iter().map(|&b| u64::from(d.block(b).free_count())).sum();
        (victim, stranded, candidates.len() as u32)
    }

    #[test]
    fn greedy_victim_index_matches_full_scan_under_random_churn() {
        use cagc_sim::SimRng;
        // 32 blocks × 8 pages, with program and erase failures armed.
        let mut d = FlashDevice::with_faults(
            Geometry::new(1, 2, 1, 16, 8, 4096),
            Timing::ull(),
            FaultConfig {
                program_fail_prob: 0.05,
                erase_fail_prob: 0.02,
                seed: 3,
                ..FaultConfig::none()
            },
        );
        let blocks = d.block_count();
        let mut rng = SimRng::seed_from_u64(0xB10C5);
        let mut live: Vec<Ppn> = Vec::new();
        // The test's own record of partially written blocks it closed.
        let mut closed = vec![false; blocks as usize];
        let (mut sealed, mut failed_programs, mut recoveries) = (0, 0, 0);
        assert_eq!(d.greedy_full_victim(), None, "fresh device has no victim");
        for step in 0..12_000 {
            let b = rng.gen_range_u64(0..u64::from(blocks)) as BlockId;
            match rng.gen_range_u64(0..20) {
                // Program the next page of a random open block; a failed
                // program leaves a consumed, invalid page behind.
                0..=9 => {
                    if !d.block(b).is_full() && !closed[b as usize] && !d.is_retired(b) {
                        match d.program_next(b, 0, host(step)) {
                            Ok((_, ppn)) => live.push(ppn),
                            Err(FlashError::ProgramFailed { .. }) => failed_programs += 1,
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                }
                // Invalidate or trim a random live page.
                10..=16 if !live.is_empty() => {
                    let i = rng.gen_range_usize(0..live.len());
                    let ppn = live.swap_remove(i);
                    if rng.gen_range_u64(0..4) == 0 {
                        d.deallocate(ppn, 0);
                    } else {
                        d.invalidate(ppn, 0);
                    }
                }
                // Erase a random fully-drained block; a failed erase
                // retires it, stranded pages and all.
                17..=18 => {
                    if d.block(b).valid_count() == 0 && !d.block(b).is_free() && !d.is_retired(b) {
                        match d.erase(b, 0) {
                            Ok(_) => closed[b as usize] = false,
                            Err(FlashError::EraseFailed { .. }) => assert!(d.is_retired(b)),
                            Err(e) => panic!("unexpected {e}"),
                        }
                    }
                }
                // Close a partially written block early, or (rarely) lose
                // power: validity is rewritten wholesale, every written
                // block comes back closed, trim attribution resets.
                _ => {
                    if rng.gen_range_u64(0..16) > 0 {
                        if !d.block(b).is_free() && !d.is_retired(b) {
                            d.seal(b);
                            closed[b as usize] = true;
                            sealed += u32::from(!d.block(b).is_full());
                        }
                    } else {
                        d.recover_validity(|_| rng.gen_range_u64(0..2) == 0);
                        live = (0..d.geometry().total_pages())
                            .filter(|&p| d.page_state(p) == PageState::Valid)
                            .collect();
                        for c in 0..blocks {
                            closed[c as usize] = !d.block(c).is_free();
                            assert_eq!(d.block(c).trimmed_count(), 0);
                        }
                        recoveries += 1;
                    }
                }
            }
            assert_eq!(
                (d.greedy_full_victim(), d.stranded_pages(), d.victim_candidates()),
                walk_victims(&d, &closed),
                "index diverged from the walk at step {step}"
            );
        }
        // The churn reached every transition the index has to follow.
        assert!(
            sealed > 50 && failed_programs > 50 && recoveries > 5,
            "{sealed} sealed, {failed_programs} failed programs, {recoveries} recoveries"
        );
        assert!(d.stats().blocks_retired > 0 && d.stats().blocks_retired < u64::from(blocks));
        assert!(d.stats().erases > 100 && d.stats().trimmed_pages > 100);
    }

    fn bytes_per_page(d: &FlashDevice) -> f64 {
        d.heap_bytes() as f64 / d.geometry().total_pages() as f64
    }

    #[test]
    fn a_fault_free_1gb_device_costs_at_most_1_byte_per_physical_page() {
        // No OOB: everything kept per block (record, index links, wear)
        // must fit in one byte per page, fresh and after churn.
        let cfg = crate::UllConfig::scaled_gb(1);
        let mut d = FlashDevice::new(cfg.geometry(), cfg.timing());
        let per_page = bytes_per_page(&d);
        assert!(per_page <= 1.0, "{per_page:.3} B per physical page");
        // Programs and erases allocate nothing. The wear histogram gains a
        // slot per new maximum erase count — the one table that grows with
        // wear, not with the page count — so it is left out of the sum.
        let rest = |d: &FlashDevice| d.heap_bytes() - d.wear_hist.capacity() * std::mem::size_of::<u32>();
        let fresh = rest(&d);
        let pages = d.geometry().pages_per_block;
        for _round in 0..2 {
            for b in 0..256 {
                for lpn in 0..u64::from(pages) {
                    let (w, ppn) = d.program_next(b, 0, host(lpn)).unwrap();
                    d.invalidate(ppn, w.end);
                }
                d.erase(b, 0).unwrap();
            }
        }
        assert_eq!(d.stats().erases, 512);
        assert_eq!(rest(&d), fresh, "a program or an erase allocated");
    }

    #[test]
    fn a_fresh_armed_1gb_device_costs_at_most_41_bytes_per_physical_page() {
        // OOB is 40 B per page, kept because a fault plan is armed; the
        // per-block state keeps the last byte.
        let cfg = crate::UllConfig::scaled_gb(1);
        let d = FlashDevice::with_faults(cfg.geometry(), cfg.timing(), never_fires());
        let per_page = bytes_per_page(&d);
        assert_eq!(std::mem::size_of::<PageOob>(), 40);
        assert!((40.0..=41.0).contains(&per_page), "{per_page:.3} B per physical page");
    }

    #[test]
    fn recover_validity_applies_durable_truth() {
        let mut d = dev();
        let (_, p0) = d.program_next(0, 0, host(0)).unwrap();
        let (_, p1) = d.program_next(0, 0, host(1)).unwrap();
        d.invalidate(p0, 0);
        // Durable truth says p0 is referenced and p1 is not (the
        // invalidation above was volatile and lost).
        d.recover_validity(|ppn| ppn == p0);
        assert_eq!(d.page_state(p0), PageState::Valid);
        assert_eq!(d.page_state(p1), PageState::Invalid);
        assert_eq!(d.block(0).valid_count(), 1);
    }
}
