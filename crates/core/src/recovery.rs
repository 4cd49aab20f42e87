//! Power-loss recovery: rebuild the volatile FTL from durable facts.
//!
//! A crash ([`cagc_flash::FaultConfig::crash_at_op`]) can land anywhere —
//! including inside a GC round, between CAGC's dedup metadata update and
//! the victim erase (the scheme's most delicate window). Everything the
//! FTL keeps in RAM is then stale: the LPN→PPN mapping, the reverse map,
//! the fingerprint index, the allocator's frontiers. What survives is
//! exactly what a real controller would find on the NAND:
//!
//! * **cell contents** of every programmed page;
//! * **per-page OOB metadata** ([`cagc_flash::PageOob`]): the logical page
//!   a host program bound, an optional fingerprint stamp, and a sequence
//!   number from the device-wide durable-operation counter;
//! * the **mapping-delta journal** ([`cagc_flash::JournalOp`]): remaps
//!   recorded by inline dedup hits and GC migrations, and unmaps recorded
//!   by trims — all stamped from the *same* sequence counter;
//! * the **bad-block table**.
//!
//! [`Ssd::recover`] folds those records in sequence order, latest-wins per
//! logical page; merges duplicate stored copies left by a crash
//! mid-relocation (the newest stamped copy wins and absorbs the losers'
//! sharers — recovery re-deduplicates, exactly as the live FTL would
//! have); rewrites per-page validity; restores the fingerprint index from
//! stamped pages; and rebuilds the allocator with every frontier closed.
//! The pass ends with the full cross-structure [`Ssd::audit`], so a
//! recovery that *would* have lost or duplicated a reference fails loudly
//! instead of limping on.

use std::collections::HashSet;

use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex};
use cagc_flash::{JournalOp, PageState, Ppn};
use cagc_ftl::{Allocator, MappingTable, ReverseMap};
use cagc_harness::{Json, ToJson};
use cagc_sim::time::Nanos;

use cagc_trace::Track;

use crate::config::Scheme;
use crate::ssd::{fp_stamp, Ssd, TraceCtx, NO_CONTENT};

/// What one [`Ssd::recover`] pass scanned and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Programmed pages whose OOB metadata was scanned.
    pub pages_scanned: u64,
    /// Journal entries replayed.
    pub journal_entries: u64,
    /// Logical pages whose mapping was recovered.
    pub mappings_recovered: u64,
    /// Fingerprint-index entries restored from stamped pages.
    pub fingerprints_rebuilt: u64,
    /// Stale duplicate stored copies merged away (crash mid-relocation).
    pub duplicate_copies_merged: u64,
    /// Blocks in the bad-block table at recovery time.
    pub blocks_retired: u64,
    /// Simulated cost of the pass: one page read per OOB scanned plus one
    /// hash per fingerprint restored.
    pub recovery_ns: Nanos,
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pages_scanned", Json::U64(self.pages_scanned)),
            ("journal_entries", Json::U64(self.journal_entries)),
            ("mappings_recovered", Json::U64(self.mappings_recovered)),
            ("fingerprints_rebuilt", Json::U64(self.fingerprints_rebuilt)),
            ("duplicate_copies_merged", Json::U64(self.duplicate_copies_merged)),
            ("blocks_retired", Json::U64(self.blocks_retired)),
            ("recovery_ns", Json::U64(self.recovery_ns)),
        ])
    }
}

/// One durable fact about a logical page, ordered by sequence number.
enum Rec {
    /// A host program bound the LPN to this page (from OOB).
    Bind(Ppn),
    /// A journaled remap moved the LPN here (dedup hit or GC migration).
    Remap(Ppn),
    /// A journaled trim unmapped the LPN.
    Unmap,
}

impl Ssd {
    /// Rebuild the volatile FTL state after a power loss and bring the
    /// device back online.
    ///
    /// Precondition: the device keeps durable metadata, i.e. it was built
    /// with an active [`cagc_flash::FaultConfig`]. Only such a device can
    /// lose power, and only it keeps the per-page OOB and the mapping
    /// journal this pass reads; on any other device the pass would rebuild
    /// the mappings from nothing, so it refuses instead.
    ///
    /// Returns what the pass found; fails (with the device still offline
    /// for writes in any meaningful sense) if the durable records are
    /// inconsistent — every failure mode here is a simulator invariant
    /// violation, not an expected runtime condition.
    ///
    /// # Errors
    /// Returns a description of why the pass could not run or of the first
    /// inconsistency found: a device with no fault plan (and so no durable
    /// metadata), a record naming an out-of-range LPN, a mapping pointing
    /// at an erased page, a stamped page whose cells disagree with its
    /// stamp, or a final audit failure.
    pub fn recover(&mut self) -> Result<RecoveryReport, String> {
        if !self.dev.faults_active() {
            return Err("recover: the device keeps no durable metadata (no per-page OOB, \
                        no mapping journal) because no fault plan is armed"
                .into());
        }
        let geom = *self.dev.geometry();
        let logical = self.logical_pages();
        let total_pages = geom.total_pages();
        self.dev.power_cycle();

        // --- 1. Collect durable records: OOB binds + journal deltas. ---
        // The shared sequence counter makes the union totally ordered, so
        // "latest wins" is well defined across both sources.
        let mut pages_scanned = 0u64;
        for b in 0..geom.total_blocks() {
            let blk = self.dev.block(b);
            pages_scanned += u64::from(blk.pages() - blk.free_count());
        }
        let mut records: Vec<(u64, u64, Rec)> = Vec::new();
        for ppn in 0..total_pages {
            let oob = self.dev.oob(ppn);
            if let Some(lpn) = oob.lpn {
                records.push((oob.seq, lpn, Rec::Bind(ppn)));
            }
        }
        let journal_entries = self.dev.journal().len() as u64;
        for e in self.dev.journal() {
            match e.op {
                JournalOp::Remap { lpn, ppn } => records.push((e.seq, lpn, Rec::Remap(ppn))),
                JournalOp::Unmap { lpn } => records.push((e.seq, lpn, Rec::Unmap)),
            }
        }
        records.sort_by_key(|&(seq, _, _)| seq);

        // --- 2. Latest-wins fold per logical page. ---
        let mut bound: Vec<Option<Ppn>> = vec![None; logical as usize];
        for (_, lpn, rec) in records {
            if lpn >= logical {
                return Err(format!("durable record names lpn {lpn}, device exports {logical}"));
            }
            bound[lpn as usize] = match rec {
                Rec::Bind(p) | Rec::Remap(p) => Some(p),
                Rec::Unmap => None,
            };
        }

        // --- 3. Rebuild forward/reverse maps (deterministic LPN order, so
        // downstream sharer orderings never depend on hash-map iteration). ---
        let mut map = MappingTable::new(logical);
        let mut rmap = ReverseMap::with_pages(total_pages, logical);
        let mut mappings_recovered = 0u64;
        for lpn in 0..logical {
            if let Some(ppn) = bound[lpn as usize] {
                if self.dev.page_state(ppn) == PageState::Free {
                    return Err(format!("recovered lpn {lpn} points at erased ppn {ppn}"));
                }
                if self.content_of[ppn as usize] == NO_CONTENT {
                    return Err(format!("recovered lpn {lpn} points at contentless ppn {ppn}"));
                }
                map.set(lpn, ppn);
                rmap.add(ppn, lpn);
                mappings_recovered += 1;
            }
        }

        // --- 4. Merge duplicate stored copies. A crash between a GC
        // relocation's program and the last sharer's journaled remap can
        // leave *two* referenced, stamped copies of one content. Keep the
        // newest (highest OOB sequence) and absorb the losers' sharers —
        // journaling each merge remap so a second crash replays to the
        // same state. ---
        let mut stamped: Vec<(u64, u64, Ppn)> = Vec::new();
        for ppn in 0..total_pages {
            if rmap.count(ppn) == 0 {
                continue;
            }
            if let Some(stamp) = self.dev.oob(ppn).fp {
                stamped.push((stamp, self.content_of[ppn as usize], ppn));
            }
        }
        stamped.sort_unstable();
        let mut duplicate_copies_merged = 0u64;
        let mut sharers = Vec::new();
        let mut i = 0;
        while i < stamped.len() {
            let mut j = i + 1;
            while j < stamped.len() && stamped[j].0 == stamped[i].0 && stamped[j].1 == stamped[i].1
            {
                j += 1;
            }
            if j - i > 1 {
                let group = &stamped[i..j];
                let winner = group
                    .iter()
                    .max_by_key(|&&(_, _, p)| self.dev.oob(p).seq)
                    .expect("non-empty group")
                    .2;
                for &(_, _, loser) in group {
                    if loser == winner {
                        continue;
                    }
                    rmap.take_into(loser, &mut sharers);
                    for &l in &sharers {
                        map.set(l, winner);
                        rmap.add(winner, l);
                        self.dev
                            .journal_append(JournalOp::Remap { lpn: l, ppn: winner })
                            .map_err(|e| format!("journaling merge remap: {e}"))?;
                    }
                    duplicate_copies_merged += 1;
                }
            }
            i = j;
        }

        // --- 5. Validity is derived state: a programmed page is valid iff
        // some logical page still resolves to it. ---
        self.dev.recover_validity(|ppn| rmap.count(ppn) > 0);

        // --- 6. Restore the fingerprint index from stamped valid pages,
        // confirming each stamp against the cells it allegedly summarizes. ---
        let mut index = FingerprintIndex::new();
        let mut fingerprints_rebuilt = 0u64;
        for ppn in 0..total_pages {
            let sharers = rmap.count(ppn) as u32;
            if sharers == 0 {
                continue;
            }
            if let Some(stamp) = self.dev.oob(ppn).fp {
                let fp = Fingerprint::of_content(ContentId(self.content_of[ppn as usize]));
                if fp_stamp(&fp) != stamp {
                    return Err(format!("ppn {ppn}: OOB stamp disagrees with cell content"));
                }
                index.restore(fp, ppn, sharers);
                fingerprints_rebuilt += 1;
            }
        }

        // --- 7. Scheme-specific volatile caches. The pre-hash filter is
        // conservative by design, so rebuilding it from live pages only
        // (forgetting invalidated ones) stays correct. ---
        let mut prehash_filter = HashSet::new();
        if self.cfg.scheme == Scheme::InlineSampled {
            for ppn in 0..total_pages {
                if rmap.count(ppn) > 0 {
                    prehash_filter.insert(Self::prehash(ContentId(self.content_of[ppn as usize])));
                }
            }
        }

        // --- 8. Allocator: the free pool is every erased, unretired block;
        // all write frontiers start closed (partially written blocks simply
        // wait for GC). ---
        let free_order: Vec<_> =
            Allocator::die_interleaved_order(geom.total_blocks(), geom.blocks_per_die())
                .into_iter()
                .filter(|&b| !self.dev.is_retired(b) && self.dev.block(b).is_free())
                .collect();
        let alloc = Allocator::recovered(
            geom.total_blocks(),
            geom.pages_per_block,
            self.thresholds.reserve_blocks,
            free_order,
        );

        // --- 9. Install, charge the simulated cost, and prove consistency
        // against an independent reference: the full cross-structure audit
        // re-derives every reference count from the rebuilt forward map. ---
        self.map = map;
        self.rmap = rmap;
        self.index = index;
        self.alloc = alloc;
        self.prehash_filter = prehash_filter;
        // A preemptible GC job suspended across the crash referenced
        // pre-crash physical state; the rebuilt maps supersede it and the
        // victim re-enters the candidate pool untouched.
        self.gc_job = None;
        self.audit().map_err(|e| format!("post-recovery audit failed: {e}"))?;

        let recovery_ns = pages_scanned * self.cfg.flash.timing().read_service()
            + fingerprints_rebuilt * self.cfg.flash.hash_ns;
        self.fh.recoveries += 1;
        // The crash may have torn a traced request mid-flight; drop the
        // stale context and record the rebuild as one fault-track span
        // anchored at the last acknowledged completion.
        self.tctx = TraceCtx::Off;
        self.tracer.instant(
            Track::Fault,
            "power_loss",
            self.last_completion(),
            &[("journal_entries", journal_entries)],
        );
        self.tracer.span(
            Track::Fault,
            "recover",
            self.last_completion(),
            self.last_completion() + recovery_ns,
            &[
                ("pages_scanned", pages_scanned),
                ("mappings_recovered", mappings_recovered),
                ("fingerprints_rebuilt", fingerprints_rebuilt),
                ("duplicate_copies_merged", duplicate_copies_merged),
            ],
        );
        let report = RecoveryReport {
            pages_scanned,
            journal_entries,
            mappings_recovered,
            fingerprints_rebuilt,
            duplicate_copies_merged,
            blocks_retired: self.dev.stats().blocks_retired,
            recovery_ns,
        };
        self.last_recovery = Some(report.clone());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Scheme, Ssd, SsdConfig};
    use cagc_workloads::FiuWorkload;

    #[test]
    fn recover_refuses_a_device_without_durable_metadata() {
        for scheme in Scheme::EXTENDED {
            let mut ssd = Ssd::new(SsdConfig::tiny(scheme));
            let logical = ssd.logical_pages();
            let trace =
                FiuWorkload::Homes.synth_config((logical as f64 * 0.9) as u64, 4_000, 3).generate();
            ssd.replay(&trace);
            assert!(ssd.gc_stats().pages_migrated > 0, "{}: GC relocated nothing", scheme.name());
            let before: Vec<_> = (0..logical).map(|l| ssd.stored_content(l)).collect();
            let err = ssd.recover().expect_err("nothing durable to recover from");
            assert!(err.contains("no fault plan is armed"), "{}: {err}", scheme.name());
            let after: Vec<_> = (0..logical).map(|l| ssd.stored_content(l)).collect();
            assert!(before == after, "{}: a refused recovery changed the data", scheme.name());
            ssd.audit().unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        }
    }
}
