//! Garbage collection engines: the blind migrator and the content-aware one.
//!
//! This module implements the workflow of Fig. 5:
//!
//! 1. the watermark trigger fires (`Ssd::maybe_gc`);
//! 2. a victim is selected by the configured policy;
//! 3. valid pages are read out; under **CAGC** each page is fingerprinted
//!    on the hash engine *in parallel* with die work (reads of later pages,
//!    programs, the previous victim's erase) and probed in the fingerprint
//!    index: a hit absorbs the page into the existing stored copy
//!    (metadata-only — the redundant write is eliminated), a miss programs
//!    it into a region chosen by its reference count (Sec. III-C);
//! 4. the victim is erased once its last valid page is safely elsewhere,
//!    and the next victim's migration overlaps the erase.
//!
//! Baseline and Inline-Dedupe use the blind migrator: every valid page is
//! copied, no content processing (Inline-Dedupe already deduplicated on the
//! write path, so its GC never sees redundant pages).
//!
//! There is one collector. Every entry point — the watermark trigger,
//! [`Ssd::force_gc`], idle-window GC, the allocator's emergency round,
//! a preemptible slice, [`Ssd::gc_pump`], the urgent catch-up leg — drains
//! a victim through the same `GcJob` lifecycle, `begin_job` →
//! `step_job(budget)` → `erase_victim`, inside the same accounting scope
//! (`as_gc`); they differ in the budget and in the span they emit.

use cagc_dedup::Fingerprint;
use cagc_flash::{BlockId, FlashError, JournalOp, PageOob, PageState, Ppn};
use cagc_ftl::{Region, VictimCandidate, VictimKind};
use cagc_sim::time::Nanos;
use cagc_trace::Track;

use crate::config::{Scheme, SsdConfig};
use crate::ssd::{fp_stamp, Ssd, TraceCtx};

/// One victim being drained: the block, a snapshot of its valid pages
/// taken when the job began, and a cursor. Every GC entry point drains
/// victims through a job; run-to-completion GC steps it once with an
/// unbounded budget, preemptible GC ([`crate::SsdConfig::gc_preempt`])
/// steps it [`crate::SsdConfig::gc_slice_pages`] at a time and parks it in
/// `Ssd::gc_job` between quanta. Pages invalidated after the snapshot
/// (foreground overwrites between slices, dedup absorption) are re-checked
/// and skipped when their turn comes.
#[derive(Debug, Clone)]
pub(crate) struct GcJob {
    /// Victim block being drained. It stays out of the frontier pool until
    /// its erase, and a new job is never started while one is suspended,
    /// so no other GC path touches it.
    pub victim: BlockId,
    /// Snapshot of the victim's valid pages at job start (the buffer is
    /// `Ssd::valids_scratch`, handed back when the victim is erased).
    pub pages: Vec<Ppn>,
    /// Next index into `pages` to migrate.
    pub next: usize,
}

impl Ssd {
    /// Run GC if the free-space watermark demands it. Returns when the
    /// round's *space reclamation* is complete (the last erase): free
    /// blocks exist logically as soon as this returns, so the foreground
    /// proceeds immediately — GC interference reaches user requests through
    /// die contention (reads/programs/erases reserved on the die timelines),
    /// which is exactly how GC hurts foreground I/O in a real SSD and the
    /// effect Figs. 11/12 measure.
    ///
    /// Run-to-completion (the paper's loop): below the low watermark, one
    /// whole victim per trigger — FlashSim-style, re-checked on the next
    /// write. Migration of the next trigger's victim overlaps this one's
    /// erase (Sec. III-B parallelism) through the per-die timelines.
    ///
    /// Preemptible ([`crate::SsdConfig::gc_preempt`]), per trigger check:
    ///
    /// * **urgent** (free < `gc_urgent_fraction`): preemption is suspended
    ///   — whole victims until the low watermark clears ([`Ssd::catch_up`]);
    /// * **triggered** (job pending, or free below the low watermark): run
    ///   exactly one `gc_slice_pages` quantum, then yield back to the
    ///   foreground with the remainder suspended in [`GcJob`];
    /// * otherwise: no work.
    pub(crate) fn maybe_gc(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        let free = self.free_fraction();
        let end = if self.cfg.gc_preempt && free < self.cfg.gc_urgent_fraction {
            self.as_gc(now, Self::catch_up)?
        } else if self.gc_job.is_none() && free >= self.thresholds.low {
            return Ok(now);
        } else if self.cfg.gc_preempt {
            self.as_gc(now, Self::slice)?
        } else {
            // With preemption off `invocations` counts trigger firings,
            // reclaimable victim or not, where `begin_job` counts victims
            // started.
            let fired = self.gc_stats.invocations + 1;
            let end = self.as_gc(now, Self::round);
            self.gc_stats.invocations = fired;
            end?
        };
        // A trigger that found nothing to reclaim still opens a GC period
        // at `now`: the write that tripped it belongs to the population
        // Fig. 11 averages over.
        self.gc_active_until = self.gc_active_until.max(now);
        Ok(end)
    }

    /// Run `work` at `now` as GC and account the time it took. GC is always
    /// traced (sampling applies to host ops only); the context renames die
    /// spans to migrate_read/migrate_write and is restored on exit — also
    /// when a mid-GC power loss propagates to `Ssd::recover` — so a sampled
    /// host request resumes its own spans. `work` returns when its last
    /// erase or migration completes; returning `now` means nothing was
    /// reclaimable and nothing is accounted.
    fn as_gc(
        &mut self,
        now: Nanos,
        work: fn(&mut Self, Nanos) -> Result<Nanos, FlashError>,
    ) -> Result<Nanos, FlashError> {
        let prev_ctx = self.tctx;
        if self.tracer.is_enabled() {
            self.tctx = TraceCtx::Gc;
        }
        let result = work(self, now);
        self.tctx = prev_ctx;
        let end = result?;
        if end > now {
            self.gc_stats.busy_ns += end - now;
            self.gc_active_until = self.gc_active_until.max(end);
        }
        Ok(end)
    }

    /// Background GC inside an idle window (enabled by
    /// [`crate::SsdConfig::idle_gc`]). If the gap between the previous
    /// request's completion and this arrival exceeds the idle threshold
    /// and free space sits below the high watermark, victims are collected
    /// on the *idle window's* clock — their die reservations largely drain
    /// before the new request arrives, so the foreground barely notices.
    pub(crate) fn maybe_idle_gc(&mut self, arrival: Nanos) -> Result<(), FlashError> {
        if !self.cfg.idle_gc {
            return Ok(());
        }
        let idle_start = self.last_completion();
        let mut t = idle_start.saturating_add(SsdConfig::IDLE_THRESHOLD_NS);
        if arrival <= t {
            return Ok(()); // not idle long enough
        }
        while t < arrival && self.free_fraction() < self.thresholds.high {
            let before = self.alloc.free_blocks();
            t = self.force_gc_inner(t)?;
            if self.alloc.free_blocks() <= before {
                break; // nothing reclaimable
            }
        }
        Ok(())
    }

    /// Collect one victim right now, regardless of the watermark. Returns
    /// the erase completion time (or `now` if no block is reclaimable).
    ///
    /// Foreground-triggered GC goes through the watermark path
    /// automatically during [`Ssd::submit`]; this entry point exists for
    /// scripted scenarios, tests and idle-time collection policies built
    /// on top of the simulator.
    pub fn force_gc(&mut self, now: Nanos) -> Nanos {
        self.force_gc_inner(now).unwrap_or(now)
    }

    /// [`Ssd::force_gc`] that propagates a mid-GC power loss instead of
    /// absorbing it.
    pub(crate) fn force_gc_inner(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        self.as_gc(now, Self::round)
    }

    /// Advance preemptible GC by one quantum on the *caller's* clock —
    /// the host-interface idle hook (`cagc-host`'s pump). Returns the
    /// quantum's completion time when work was done, `None` when there is
    /// nothing to do (preemption disabled, free space already above the
    /// high watermark with no suspended job, or no reclaimable victim).
    /// A mid-slice power loss is absorbed (`None`); the next host command
    /// observes the crash exactly as with [`Ssd::force_gc`].
    pub fn gc_pump(&mut self, now: Nanos) -> Option<Nanos> {
        if !self.cfg.gc_preempt
            || (self.gc_job.is_none() && self.free_fraction() >= self.thresholds.high)
        {
            return None;
        }
        self.as_gc(now, Self::slice).ok().filter(|&end| end > now)
    }

    /// One whole victim at `now`: the suspended job if there is one — it
    /// owns its victim, and its erase is the fastest path to a free block
    /// for the caller (the trigger, the stalled allocator, the idle window)
    /// — else a fresh one. Returns the erase completion, `now` when no
    /// block is reclaimable.
    fn round(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        let Some(job) = self.gc_job.take().or_else(|| self.begin_job(now)) else {
            return Ok(now);
        };
        let (_, erase_end) = self.finish_job(job, now)?;
        self.tracer.span(Track::Gc, "gc_round", now, erase_end, &[("victims", 1)]);
        Ok(erase_end)
    }

    /// Urgency escalation: free space fell below the urgent floor, so the
    /// foreground is outrunning sliced reclamation. Run whole victims —
    /// starting with the suspended job — until the low watermark clears or
    /// no victim makes net progress.
    fn catch_up(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        self.tracer.instant(
            Track::Gc,
            "gc_urgent",
            now,
            &[("free_blocks", u64::from(self.alloc.free_blocks()))],
        );
        // `cursor` is when the next victim's migration may start;
        // `round_end` tracks the last erase completion. Migration of victim
        // k+1 overlaps the erase of victim k (Sec. III-B parallelism) —
        // per-die timelines serialize same-die conflicts automatically.
        let mut cursor = now;
        let mut round_end = now;
        let mut stalls = 0u32;
        loop {
            let free_before = self.alloc.free_blocks();
            let job = match self.gc_job.take() {
                Some(job) => job,
                None if self.free_fraction() >= self.thresholds.low => break,
                None => match self.begin_job(cursor) {
                    Some(job) => job,
                    None => break,
                },
            };
            let (done, erase_end) = self.finish_job(job, cursor)?;
            cursor = done;
            round_end = round_end.max(erase_end);
            // Safety valve: a victim so full of valid pages that migrating
            // it consumed as many blocks as it freed makes no net progress;
            // two such victims in a row means the device is effectively out
            // of reclaimable space for this round.
            if self.alloc.free_blocks() <= free_before {
                stalls += 1;
                if stalls >= 2 {
                    break;
                }
            } else {
                stalls = 0;
            }
        }
        Ok(round_end)
    }

    /// One preemption quantum: take the suspended job (or begin one),
    /// migrate up to `gc_slice_pages` still-valid pages, then either erase
    /// the drained victim or suspend the remainder and yield.
    fn slice(&mut self, now: Nanos) -> Result<Nanos, FlashError> {
        let Some(mut job) = self.gc_job.take().or_else(|| self.begin_job(now)) else {
            return Ok(now);
        };
        let (moved, done) = self.step_job(&mut job, self.cfg.gc_slice_pages as usize, now)?;
        let remaining = (job.pages.len() - job.next) as u64;
        let end = if remaining == 0 { self.erase_victim(job.victim, done)? } else { done };
        self.tracer.span(
            Track::Gc,
            "gc_slice",
            now,
            end,
            &[
                ("pages", moved as u64),
                ("victim", u64::from(job.victim)),
                ("erased", u64::from(remaining == 0)),
            ],
        );
        if remaining > 0 {
            self.tracer.instant(Track::Gc, "gc_yield", done, &[("remaining", remaining)]);
            self.gc_job = Some(job);
        } else {
            self.valids_scratch = job.pages;
        }
        Ok(end)
    }

    /// Select a victim at `t` and snapshot its valid pages. `None` when no
    /// block is reclaimable.
    fn begin_job(&mut self, t: Nanos) -> Option<GcJob> {
        let victim = self.select_victim(t)?;
        self.gc_stats.invocations += 1;
        let geom = *self.dev.geometry();
        // The snapshot lives in a recycled buffer — collection runs
        // thousands of times per replay. (A job dropped by `Ssd::recover`
        // takes its buffer with it; the next one allocates afresh.)
        let mut pages = std::mem::take(&mut self.valids_scratch);
        pages.clear();
        self.dev.block(victim).for_each_valid(|p| pages.push(geom.ppn(victim, p)));
        Some(GcJob { victim, pages, next: 0 })
    }

    /// Migrate up to `budget` still-valid pages of `job`'s snapshot,
    /// starting at `t`. Returns `(pages migrated or absorbed, completion)`.
    fn step_job(
        &mut self,
        job: &mut GcJob,
        budget: usize,
        t: Nanos,
    ) -> Result<(usize, Nanos), FlashError> {
        match self.cfg.scheme {
            Scheme::Baseline | Scheme::InlineDedup | Scheme::InlineSampled => {
                self.migrate_blind(job, budget, t)
            }
            Scheme::Cagc => {
                // Absorption can drain *later* snapshot pages mid-quantum
                // (promotion of a stored copy inside this victim), so the
                // quantum cannot be counted out up front. Take the snapshot
                // in runs no longer than the budget left: a run that held
                // stale pages is followed by another.
                let mut read_ready = t;
                let mut moved = 0;
                let mut done = t;
                while moved < budget && job.next < job.pages.len() {
                    let run = (budget - moved).min(job.pages.len() - job.next);
                    let pages = &job.pages[job.next..job.next + run];
                    job.next += run;
                    let (valid, end) =
                        self.migrate_content_aware(job.victim, pages, &mut read_ready)?;
                    moved += valid;
                    done = done.max(end);
                }
                Ok((moved, done))
            }
        }
    }

    /// Run a job to completion: migrate every remaining valid page and
    /// erase the victim. Returns `(migration_done, erase_end)`: the erase
    /// is issued at `migration_done` and the *next* victim may start
    /// migrating immediately while it runs.
    fn finish_job(&mut self, mut job: GcJob, t: Nanos) -> Result<(Nanos, Nanos), FlashError> {
        let (_, done) = self.step_job(&mut job, usize::MAX, t)?;
        let erase_end = self.erase_victim(job.victim, done)?;
        self.valids_scratch = job.pages;
        Ok((done, erase_end))
    }

    /// Choose the next victim. Open frontiers, free blocks and blocks whose
    /// erase would reclaim nothing are never victims. The reclaim gain
    /// counts stranded free pages — pages a program failure (or recovery)
    /// left behind a closed write pointer — alongside the invalid ones:
    /// without that, a block abandoned before accumulating any garbage is
    /// invisible to GC and its free pages are lost until an overwrite
    /// happens to land there, which under sustained fault injection starves
    /// foreground allocation outright.
    ///
    /// Which path answers is a property of the policy alone. Greedy's key
    /// is a function of block state, so the device's victim index answers
    /// it — and the two aggregates a traced selection reports — in time
    /// independent of the device size, faults armed or not, traced or not.
    /// The other policies key on `now`, an RNG draw or the candidate
    /// list's order, and walk the closed blocks.
    fn select_victim(&mut self, now: Nanos) -> Option<BlockId> {
        let (chosen, stranded, candidates) = if self.selector.kind() == VictimKind::Greedy {
            let indexed = (
                self.dev.greedy_full_victim(),
                self.dev.stranded_pages(),
                self.dev.victim_candidates(),
            );
            // Debug builds re-derive every selection by the walk, so each
            // test replay cross-checks the index (and the invariant that a
            // full or sealed block is never an open frontier). Release
            // builds do not: there, a frontier close that forgets to seal
            // (the sites are `program_region` and `seal_if_closed_short`)
            // changes victims silently, and only the faulted × preempting ×
            // traced test below would notice.
            debug_assert_eq!(indexed, self.select_by_walk(now, &mut Vec::new()));
            indexed
        } else {
            let mut scratch = std::mem::take(&mut self.candidates_scratch);
            let walked = self.select_by_walk(now, &mut scratch);
            self.candidates_scratch = scratch;
            walked
        };
        if self.tracer.is_enabled() {
            self.tracer.gauge("stranded_pages", now, stranded);
            if let Some(block) = chosen {
                let blk = self.dev.block(block);
                self.tracer.instant(
                    Track::Gc,
                    "victim_select",
                    now,
                    &[
                        ("block", u64::from(block)),
                        ("valid", u64::from(blk.valid_count())),
                        ("invalid", u64::from(blk.invalid_count())),
                        ("candidates", u64::from(candidates)),
                    ],
                );
            }
        }
        chosen
    }

    /// Selection by walking every block: collect the closed blocks whose
    /// erase would gain a page into `candidates` and let the policy choose.
    /// Returns (victim, Σ stranded free pages, candidate count).
    fn select_by_walk(
        &mut self,
        now: Nanos,
        candidates: &mut Vec<VictimCandidate>,
    ) -> (Option<BlockId>, u64, u32) {
        candidates.clear();
        let mut stranded = 0;
        for b in 0..self.dev.block_count() {
            if self.alloc.is_open(b) || self.dev.is_retired(b) {
                continue;
            }
            let blk = self.dev.block(b);
            if blk.is_free() || blk.invalid_count() + blk.free_count() == 0 {
                continue;
            }
            stranded += u64::from(blk.free_count());
            candidates.push(VictimCandidate {
                block: b,
                valid: blk.valid_count(),
                invalid: blk.invalid_count(),
                trimmed: blk.trimmed_count(),
                stranded: blk.free_count(),
                pages: blk.pages(),
                erase_count: blk.erase_count(),
                last_modified: blk.last_modified(),
            });
        }
        (self.selector.select(candidates, now), stranded, candidates.len() as u32)
    }

    /// Erase a fully-drained victim at `done`: snapshot trim attribution,
    /// issue the erase, and fold the outcome (release / bad-block
    /// retirement) into the allocator. Returns the erase completion time.
    fn erase_victim(&mut self, victim: BlockId, done: Nanos) -> Result<Nanos, FlashError> {
        let geom = *self.dev.geometry();
        // Snapshot before the erase resets the block's trim attribution:
        // every trim-invalidated page reclaimed here is a migration avoided.
        self.gc_stats.trim_reclaimed_pages += self.dev.block(victim).trimmed_count() as u64;
        let erase_end = match self.dev.erase(victim, done) {
            Ok(r) => {
                if self.tracer.is_enabled() {
                    let track = Track::Die {
                        channel: geom.die_of_block(victim) / geom.dies_per_channel,
                        die: geom.die_of_block(victim),
                    };
                    self.tracer.span(
                        track,
                        "erase",
                        r.start,
                        r.end,
                        &[("block", u64::from(victim)), ("queued_ns", r.queued)],
                    );
                }
                self.alloc.release(victim);
                self.gc_stats.blocks_erased += 1;
                r.end
            }
            Err(FlashError::EraseFailed { at, .. }) => {
                self.tracer.instant(
                    Track::Fault,
                    "erase_failed_retired",
                    at,
                    &[("block", u64::from(victim))],
                );
                // The device moved the block to its bad-block table, the
                // one record of it; the allocator only lets go of the
                // block, which never returns to the free pool. Every valid
                // page was migrated before the erase was issued, so no
                // data is stranded — only capacity is lost.
                self.alloc.retire(victim);
                self.first_retirement_ns.get_or_insert(at);
                at
            }
            Err(FlashError::PowerLoss) => return Err(FlashError::PowerLoss),
            Err(e) => panic!("GC erase of block {victim} failed: {e}"),
        };
        Ok(erase_end)
    }

    /// Blind migration: read + rewrite every valid page (Fig. 3), in two
    /// grouped passes. Pass 1 issues every read + program back-to-back
    /// (this fixes the flash timing — identical to the old per-page loop,
    /// since reads all started at `t` and programs all queued in the same
    /// order); pass 2 then updates mapping, reverse-map, index and
    /// invalidation state for the whole batch. Grouping the metadata pass
    /// keeps it in cache and lets each relocation take the O(1)
    /// [`cagc_ftl::ReverseMap::relocate`] path. Blind migration never
    /// touches other snapshot pages (no dedup absorption), so deferring
    /// the metadata updates cannot change what later pages observe; each
    /// source is invalidated at its *own* program-completion time, exactly
    /// as before. For the same reason a snapshot page found stale in pass 1
    /// (overwritten by the foreground since an earlier slice) was stale
    /// before the pass began: skipping it there is a pre-filter.
    ///
    /// Takes up to `budget` still-valid pages from `job`'s cursor; returns
    /// `(pages migrated, completion)`.
    fn migrate_blind(
        &mut self,
        job: &mut GcJob,
        budget: usize,
        t: Nanos,
    ) -> Result<(usize, Nanos), FlashError> {
        let mut done = t;
        let mut batch = std::mem::take(&mut self.gc_batch);
        batch.clear();
        while batch.len() < budget && job.next < job.pages.len() {
            let ppn = job.pages[job.next];
            job.next += 1;
            if self.dev.page_state(ppn) != PageState::Valid {
                continue;
            }
            self.gc_stats.pages_scanned += 1;
            let read_end = match self.read_flash(ppn, t) {
                Ok(v) => v,
                Err(e) => {
                    self.gc_batch = batch;
                    return Err(e);
                }
            };
            // Inline schemes track migrated pages in the index; carry the
            // fingerprint stamp so the relocated copy stays recoverable.
            let stamp = self.index.fp_of_ppn(ppn).map(|fp| fp_stamp(&fp));
            match self.program_region(Region::Hot, true, PageOob::gc(stamp), read_end) {
                Ok((end, new_ppn)) => {
                    // The program physically copied the cells: record the
                    // content before any later fallible step can tear the
                    // relocation (recovery rebuilds the rest from OOB +
                    // journal whether or not pass 2 ran).
                    self.content_of[new_ppn as usize] = self.content_of[ppn as usize];
                    batch.push((ppn, new_ppn, end));
                    done = done.max(end);
                }
                Err(e) => {
                    self.gc_batch = batch;
                    return Err(e);
                }
            }
        }
        self.warm(batch.iter().map(|&(old, _, _)| old), std::iter::empty());
        for i in 0..batch.len() {
            let (old, new, end) = batch[i];
            if let Err(e) = self.remap_sharers(old, new) {
                self.gc_batch = batch;
                return Err(e);
            }
            if self.index.fp_of_ppn(old).is_some() {
                self.index.relocate(old, new);
            }
            self.dev.invalidate(old, end);
            self.gc_stats.pages_migrated += 1;
        }
        let moved = batch.len();
        batch.clear();
        self.gc_batch = batch;
        Ok((moved, done))
    }

    /// Content-aware migration (Fig. 5) of `pages`, a run of one victim's
    /// valid-page snapshot: hash each still-valid page on the hash engine,
    /// probe the index, and either absorb (hit) or place by reference
    /// count (miss / stored copy).
    ///
    /// Three passes (docs/PERFORMANCE.md, "gather → warm → apply"):
    /// **gather** every page's fingerprint, **warm** the table lines the
    /// pages are about to touch, then **apply** the per-page pipeline in
    /// snapshot order. Fingerprinting is pure and the warm pass only
    /// reads, so simulated time, event order and every counter are those
    /// of a page-at-a-time loop; what changes is that the run's
    /// independent cache misses overlap instead of each waiting behind the
    /// previous page's program + remap work.
    ///
    /// Returns `(pages still valid at their turn, completion)`.
    /// `read_ready` is when the next page's read may issue; it carries the
    /// `overlap_hash = false` stall from page to page and run to run.
    fn migrate_content_aware(
        &mut self,
        victim: BlockId,
        pages: &[Ppn],
        read_ready: &mut Nanos,
    ) -> Result<(usize, Nanos), FlashError> {
        let mut fps = std::mem::take(&mut self.fps_scratch);
        fps.clear();
        // A tracked page's fingerprint sits in the index slab, one dense-map
        // load away (`Ssd::audit` checks it is the content's fingerprint);
        // only untracked pages are computed.
        fps.extend(pages.iter().map(|&ppn| match self.index.fp_of_ppn(ppn) {
            Some(fp) => {
                debug_assert_eq!(fp, Fingerprint::of_content(self.content_at(ppn)));
                fp
            }
            None => Fingerprint::of_content(self.content_at(ppn)),
        }));
        // Only untracked pages probe by fingerprint; a tracked page is its
        // own stored copy and is looked up by address.
        let untracked =
            pages.iter().zip(&fps).filter(|&(&p, _)| self.index.refs_of_ppn(p).is_none());
        self.warm(pages.iter().copied(), untracked.map(|(_, fp)| fp));
        let mut valid = 0;
        let mut done = *read_ready;
        let mut outcome = Ok(());
        for (&ppn, &fp) in pages.iter().zip(&fps) {
            // A foreground overwrite between slices, or a promotion earlier
            // in this pass (its stored copy lived later in the same
            // victim), may have already drained this page.
            if self.dev.page_state(ppn) != PageState::Valid {
                continue;
            }
            valid += 1;
            match self.migrate_page_content_aware(victim, ppn, fp, *read_ready) {
                Ok((end, next_ready)) => {
                    *read_ready = next_ready;
                    done = done.max(end);
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.fps_scratch = fps;
        outcome.map(|()| (valid, done))
    }

    /// Content-aware migration of one page (the Fig. 5 per-page pipeline):
    /// read, fingerprint on the hash engine (`fp`, gathered beforehand, is
    /// what the engine computes), probe the index, then absorb or place by
    /// reference count. Returns `(completion, next_read_ready)` — the
    /// second value carries the hash-serialization stall of the
    /// `overlap_hash = false` ablation to the following page.
    fn migrate_page_content_aware(
        &mut self,
        victim: BlockId,
        ppn: Ppn,
        fp: Fingerprint,
        read_ready: Nanos,
    ) -> Result<(Nanos, Nanos), FlashError> {
        self.gc_stats.pages_scanned += 1;
        let read_end = self.read_flash(ppn, read_ready)?;
        // Fingerprint on the dedicated engine. With overlap enabled the
        // engine runs beside the dies; the ablation serializes the
        // pipeline by stalling the next read until the hash finishes.
        let h = self.hash.hash_page(read_end);
        self.tracer
            .span(Track::Hash, "fingerprint", h.start, h.end, &[("ppn", ppn)]);
        let next_ready = if self.cfg.overlap_hash { read_ready } else { h.end };
        let decided = h.end + SsdConfig::LOOKUP_NS;

        // A tracked page is the stored copy of its own content, so its
        // probe is answered by address; anything the fingerprint probe
        // finds for an untracked page is a copy stored elsewhere.
        let stored = self.index.lookup_ppn(ppn).map(|(_, entry)| entry);
        let end = match stored.or_else(|| self.index.lookup(&fp)) {
            Some(entry) if entry.ppn != ppn => {
                // Redundant page: the content already has a stored copy
                // elsewhere. Absorb all sharers — no flash write.
                self.gc_stats.dedup_hits += 1;
                self.tracer.instant(
                    Track::Gc,
                    "dedup_drop",
                    decided,
                    &[("from", ppn), ("to", entry.ppn), ("refs", u64::from(entry.refs))],
                );
                self.absorb_into(ppn, entry.ppn, &fp, decided)?
            }
            Some(entry) => {
                // This page *is* the stored copy: migrate it, choosing
                // the region by its current reference count.
                let dest = self.region_for_refs(entry.refs);
                let src = self.alloc.region_of(victim).unwrap_or(Region::Hot);
                let (end, _) = self.relocate_page(ppn, dest, Some(fp_stamp(&fp)), decided)?;
                self.gc_stats.pages_migrated += 1;
                match (src, dest) {
                    (Region::Hot, Region::Cold) => self.gc_stats.promotions += 1,
                    (Region::Cold, Region::Hot) => self.gc_stats.demotions += 1,
                    _ => {}
                }
                end
            }
            None => {
                // First time this content passes through GC: fingerprint
                // it into the index and place it (a single sharer ⇒ hot).
                let sharers = self.rmap.count(ppn) as u32;
                debug_assert!(sharers >= 1, "valid page with no sharers");
                let dest = self.region_for_refs(sharers);
                let (end, new_ppn) = self.relocate_page(ppn, dest, Some(fp_stamp(&fp)), decided)?;
                self.index.insert(fp, new_ppn, sharers);
                self.gc_stats.pages_migrated += 1;
                end
            }
        };
        Ok((end, next_ready))
    }

    /// Sec. III-C placement rule: refcount above the threshold ⇒ cold.
    fn region_for_refs(&self, refs: u32) -> Region {
        if self.cfg.placement && refs > self.cfg.cold_threshold {
            Region::Cold
        } else {
            Region::Hot
        }
    }

    /// Dedup hit during migration: remap every sharer of `from` onto the
    /// stored copy at `to`, bump its refcount, and invalidate `from`
    /// without a write. May then *promote* the stored copy to the cold
    /// region if the merge pushed its refcount across the threshold
    /// (Fig. 5's "Ref == threshold?" branch). Returns the completion time.
    fn absorb_into(
        &mut self,
        from: Ppn,
        to: Ppn,
        fp: &Fingerprint,
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let mut sharers = std::mem::take(&mut self.sharers_scratch);
        self.rmap.take_into(from, &mut sharers);
        debug_assert!(!sharers.is_empty(), "absorbing a page with no sharers");
        let n = sharers.len() as u32;
        for &l in &sharers {
            self.map.set(l, to);
            self.rmap.add(to, l);
            // Durable record *before* `from` is invalidated (and its block
            // eventually erased) — this is the dedup-during-GC crash
            // window recovery has to close: a crash between here and the
            // victim erase must find every sharer already remapped.
            if let Err(e) = self.dev.journal_append(JournalOp::Remap { lpn: l, ppn: to }) {
                self.sharers_scratch = sharers;
                return Err(e);
            }
        }
        self.sharers_scratch = sharers;
        let new_refs = self.index.add_refs(fp, n);
        self.dev.invalidate(from, now);

        // Promotion: the stored copy lives in a hot-region block but its
        // refcount now exceeds the threshold — move it cold as part of this
        // GC pass. Two exclusions keep this from wasting writes: a copy
        // still sitting in an *open* frontier was programmed moments ago
        // (typically by this very GC pass — rewriting it immediately would
        // be pure churn; it will be placed cold when its block is
        // collected), and a copy inside the current victim will be
        // migrated, with the correct region, when its turn comes.
        let stored_block = self.dev.geometry().block_of(to);
        if self.cfg.placement
            && new_refs > self.cfg.cold_threshold
            && self.alloc.region_of(stored_block) == Some(Region::Hot)
            && !self.alloc.is_open(stored_block)
        {
            let read_end = self.read_flash(to, now)?;
            let (end, _) = self.relocate_page(to, Region::Cold, Some(fp_stamp(fp)), read_end)?;
            self.gc_stats.pages_migrated += 1;
            self.gc_stats.promotions += 1;
            return Ok(end);
        }
        Ok(now)
    }

    /// Move one valid page to the `dest` frontier: program a copy, remap
    /// every sharer (each remap journaled — the durable record a crash
    /// before the source's erase recovers from), carry index/content
    /// metadata, and invalidate the source. Returns the program completion
    /// time and the new PPN.
    fn relocate_page(
        &mut self,
        ppn: Ppn,
        dest: Region,
        fp_stamp: Option<u64>,
        ready: Nanos,
    ) -> Result<(Nanos, Ppn), FlashError> {
        let (end, new_ppn) = self.program_region(dest, true, PageOob::gc(fp_stamp), ready)?;
        // The program physically copied the cells: record the content
        // before any later fallible step can tear this relocation.
        self.content_of[new_ppn as usize] = self.content_of[ppn as usize];
        self.remap_sharers(ppn, new_ppn)?;
        if self.index.fp_of_ppn(ppn).is_some() {
            self.index.relocate(ppn, new_ppn);
        }
        self.dev.invalidate(ppn, end);
        Ok((end, new_ppn))
    }

    /// Point every sharer of `old` at `new` (a freshly-programmed copy with
    /// no sharers of its own): retarget the forward entries in place —
    /// each remap journaled, which the device does only when a fault plan
    /// is armed ([`cagc_flash::FlashDevice::journal_append`]) — then move
    /// the reverse-map slot wholesale ([`cagc_ftl::ReverseMap::relocate`],
    /// O(1) and allocation-free).
    fn remap_sharers(&mut self, old: Ppn, new: Ppn) -> Result<(), FlashError> {
        debug_assert!(self.rmap.count(old) > 0, "relocating an unreferenced page");
        for &l in self.rmap.lpns(old) {
            self.map.set(l, new);
            self.dev.journal_append(JournalOp::Remap { lpn: l, ppn: new })?;
        }
        self.rmap.relocate(old, new);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SsdConfig, TraceConfig};
    use cagc_flash::FaultConfig;
    use cagc_trace::EventKind;
    use cagc_workloads::FiuWorkload;

    /// Samples and sum of the `stranded_pages` gauge so far.
    fn stranded_gauge(ssd: &Ssd) -> (u64, u128) {
        ssd.tracer
            .registry()
            .series()
            .find(|(name, _)| *name == "stranded_pages")
            .map_or((0, 0), |(_, ts)| (ts.sample_count(), ts.sample_sum()))
    }

    /// What a traced Greedy selection records — the `stranded_pages` gauge
    /// sample and the `victim_select` instant — must be what the
    /// closed-block walk derives from the device and allocator state, in
    /// the configurations that used to force the walk: faults armed
    /// (program failures sealing frontiers, refused forced programs
    /// closing them short, erase failures retiring blocks, a power loss
    /// re-closing everything) × preemptible GC (selections between
    /// suspended jobs) × tracing on. A selection is probed after every
    /// request, so the comparison also runs in release-mode test builds,
    /// where the `debug_assert` oracle in `select_victim` is compiled out.
    #[test]
    fn traced_selections_report_what_the_walk_finds_under_faults_and_preemption() {
        for preempt in [false, true] {
            let mut cfg = SsdConfig::tiny(Scheme::Cagc);
            cfg.gc_preempt = preempt;
            cfg.gc_slice_pages = 2;
            cfg.max_program_retries = 1;
            cfg.faults = FaultConfig {
                program_fail_prob: 2e-2,
                erase_fail_prob: 2e-3,
                unrecoverable_prob: 0.3,
                crash_at_op: Some(30_000),
                seed: 5,
                ..FaultConfig::none()
            };
            let trace = FiuWorkload::Mail
                .synth_config((cfg.flash.logical_pages() as f64 * 0.95) as u64, 8_000, 5)
                .generate();
            let mut ssd = Ssd::new(cfg);
            ssd.enable_tracing(TraceConfig::default());
            let (mut recovered, mut stranded_max, mut selected) = (false, 0, 0);
            for req in &trace.requests {
                if ssd.submit(req.view()).is_err() {
                    ssd.recover().expect("durable state is consistent");
                    recovered = true;
                }
                let events = ssd.tracer.events().len();
                let (samples, sum) = stranded_gauge(&ssd);
                let chosen = ssd.select_victim(req.at_ns);
                let (walked, stranded, candidates) = ssd.select_by_walk(req.at_ns, &mut Vec::new());
                assert_eq!(chosen, walked, "victim (preempt {preempt})");
                assert_eq!(
                    stranded_gauge(&ssd),
                    (samples + 1, sum + u128::from(stranded)),
                    "stranded_pages gauge sample (preempt {preempt})"
                );
                let recorded: Vec<_> = ssd.tracer.events().iter().skip(events).collect();
                let Some(block) = chosen else {
                    assert!(recorded.is_empty(), "no victim, no instant");
                    continue;
                };
                let blk = ssd.dev.block(block);
                assert!(!ssd.alloc.is_open(block), "an open frontier was selected");
                assert_eq!(recorded.len(), 1);
                assert_eq!(recorded[0].name(), "victim_select");
                assert_eq!(recorded[0].kind(), EventKind::Instant { at_ns: req.at_ns });
                assert_eq!(
                    recorded[0].args().collect::<Vec<_>>(),
                    [
                        ("block", u64::from(block)),
                        ("valid", u64::from(blk.valid_count())),
                        ("invalid", u64::from(blk.invalid_count())),
                        ("candidates", u64::from(candidates)),
                    ]
                );
                stranded_max = stranded_max.max(stranded);
                selected += 1;
            }
            // The run reached the states the index has to get right.
            assert!(recovered, "the crash point was never reached");
            assert!(stranded_max > 0 && selected > 1_000, "{stranded_max} {selected}");
            assert!(ssd.fh.program_retries > 0 && ssd.fh.write_faults > 0);
            assert!(ssd.dev.stats().blocks_retired > 0);
            assert_eq!(ssd.tracer.dropped_events(), 0);
        }
    }
}
