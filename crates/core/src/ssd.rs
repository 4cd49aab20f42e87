//! The simulated SSD: foreground I/O path for all three schemes.
//!
//! One [`Ssd`] wires the substrates together — flash device, mapping,
//! reverse map, allocator, fingerprint index, hash engine, victim selector —
//! and services a trace request-by-request. The scheme
//! ([`crate::config::Scheme`]) decides *where* deduplication happens:
//!
//! * **Baseline** — writes program flash directly; GC migrates blindly.
//! * **Inline-Dedupe** — every written page first occupies the hash engine
//!   (14 µs, Table I) and probes the fingerprint index *on the critical
//!   path*; redundant pages become metadata updates, unique pages program
//!   after the hash completes. This is the scheme the paper shows hurting
//!   ultra-low-latency devices (Fig. 2).
//! * **CAGC** — the foreground path is as fast as Baseline; fingerprinting
//!   happens during GC migration (see [`crate::gc`]), overlapped with die
//!   work, with reference-count-based hot/cold placement.
//!
//! The GC engine lives in [`crate::gc`]; this module owns the foreground
//! semantics, the invalidation/reference-count bookkeeping shared by both,
//! and the trace replay loop.

use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex, HashEngine};
use cagc_flash::{BlockId, FlashDevice, FlashError, JournalOp, PageOob, Ppn};
use cagc_ftl::{
    Allocator, Lpn, MappingTable, Region, ReverseMap, VictimCandidate, VictimKind, VictimSelector,
};
use cagc_metrics::{Cdf, Histogram};
use cagc_sim::time::Nanos;
use cagc_trace::{TraceConfig, Tracer, Track};
use cagc_workloads::{OpKind, RequestView, Trace};

use crate::config::{GcThresholds, Scheme, SsdConfig};
use crate::gc::GcStats;
use crate::recovery::RecoveryReport;
use crate::report::{FaultReport, HealthLog, LatencySummary, RunReport};

/// NVMe-style completion status for one host command.
///
/// Fault-free runs only ever see [`CmdStatus::Success`]; the error
/// variants require injected faults (and, for the unrecoverable pair,
/// [`cagc_flash::FaultConfig::unrecoverable_prob`] > 0), read-only
/// degradation or a crash plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CmdStatus {
    /// The command completed successfully.
    #[default]
    Success,
    /// A read failed unrecoverably: re-reads and the heroic decode all
    /// failed (NVMe "Unrecovered Read Error", media error 0x281).
    MediaReadError,
    /// A write failed unrecoverably: retries and the forced program all
    /// failed (NVMe "Write Fault", media error 0x280).
    WriteFault,
    /// A write or trim was refused because bad-block retirement degraded
    /// the namespace to read-only (NVMe "Namespace is Write Protected",
    /// command-specific 0x20).
    WriteProtected,
    /// The device lost power before servicing the command (NVMe "Command
    /// Aborted due to Power Loss Notification", generic 0x05). The device
    /// itself never completes a command this way — [`Ssd::submit`] returns
    /// `Err(PowerLoss)` — so this is the status a layer that must still
    /// hand *something* back per command (the host interface's completion
    /// queues) stamps on the ones the device never serviced.
    PowerLoss,
}

impl CmdStatus {
    /// Whether the command succeeded.
    #[inline]
    pub fn is_ok(self) -> bool {
        self == CmdStatus::Success
    }

    /// Whether a host retry could plausibly succeed. Write-protection is
    /// persistent (the spare pool is gone) and a dead device stays dead
    /// until it is recovered, so retrying either is futile; media errors
    /// are worth another attempt.
    #[inline]
    pub fn is_retryable(self) -> bool {
        matches!(self, CmdStatus::MediaReadError | CmdStatus::WriteFault)
    }

    /// The NVMe status code this models (status-code-type << 8 | code).
    pub fn nvme_code(self) -> u16 {
        match self {
            CmdStatus::Success => 0x000,
            CmdStatus::MediaReadError => 0x281,
            CmdStatus::WriteFault => 0x280,
            CmdStatus::WriteProtected => 0x120,
            CmdStatus::PowerLoss => 0x005,
        }
    }

    /// Short stable name for reports and CSVs.
    pub fn name(self) -> &'static str {
        match self {
            CmdStatus::Success => "success",
            CmdStatus::MediaReadError => "media_read_error",
            CmdStatus::WriteFault => "write_fault",
            CmdStatus::WriteProtected => "write_protected",
            CmdStatus::PowerLoss => "power_loss",
        }
    }
}

/// One host command's completion: when it finished and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Simulated completion time.
    pub end_ns: Nanos,
    /// NVMe-style status the CQ entry carries.
    pub status: CmdStatus,
}

/// Sentinel for "no content recorded" in the per-PPN content table.
pub(crate) const NO_CONTENT: u64 = u64::MAX;

/// First eight bytes of a fingerprint, little-endian: the OOB stamp GC
/// writes next to relocated pages so recovery can spot candidate duplicate
/// copies (full equality is confirmed against cell content before any
/// merge).
pub(crate) fn fp_stamp(fp: &Fingerprint) -> u64 {
    u64::from_le_bytes(fp.0[..8].try_into().expect("fingerprint shorter than 8 bytes"))
}

/// Why a logical page's mapping is being dropped. Overwrites and trims
/// drive identical state transitions; the cause only controls *attribution*
/// (trim garbage is counted per block, per refcount drop, and in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReleaseCause {
    /// A newer write replaced the mapping.
    Overwrite,
    /// The host deallocated the logical page.
    Trim,
}

/// What the currently-executing flash operation is doing *for*, so the
/// shared read/program helpers can name their die spans correctly
/// ("read" vs. "migrate_read", "program" vs. "migrate_write").
///
/// `Off` both when tracing is disabled and for host requests the sampler
/// skipped; GC always traces ([`cagc_trace::TraceConfig::sample`] applies
/// to host operations only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceCtx {
    /// Don't emit die spans for this operation.
    Off,
    /// A sampled host request is on the critical path.
    Host,
    /// A GC round is migrating pages.
    Gc,
}

/// FTL-side fault-handling counters (all zero on fault-free runs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultHandling {
    /// Program retries issued after injected program failures.
    pub program_retries: u64,
    /// Last-resort forced programs after the retry budget ran out.
    pub forced_programs: u64,
    /// Re-reads issued after injected ECC errors.
    pub read_retries: u64,
    /// Heroic soft-decodes after the re-read budget ran out.
    pub ecc_decodes: u64,
    /// Host reads whose heroic decode also failed (media-read-error
    /// completions).
    pub media_read_errors: u64,
    /// Host writes whose forced program also failed (write-fault
    /// completions).
    pub write_faults: u64,
    /// Writes refused because the device degraded to read-only.
    pub writes_rejected: u64,
    /// Trims refused because the device degraded to read-only.
    pub trims_rejected: u64,
    /// Completed power-loss recovery passes.
    pub recoveries: u64,
}

/// A fully-assembled simulated SSD running one scheme.
///
/// `Clone` snapshots the complete device state (blocks, mapping, index,
/// timelines, statistics) — useful for benchmarks and what-if forks.
#[derive(Clone)]
pub struct Ssd {
    pub(crate) cfg: SsdConfig,
    /// GC trigger thresholds, derived from `cfg.flash` once at
    /// construction.
    pub(crate) thresholds: GcThresholds,
    pub(crate) dev: FlashDevice,
    pub(crate) map: MappingTable,
    pub(crate) rmap: ReverseMap,
    pub(crate) alloc: Allocator,
    pub(crate) index: FingerprintIndex,
    pub(crate) hash: HashEngine,
    pub(crate) selector: VictimSelector,
    pub(crate) gc_stats: GcStats,
    /// Content stored at each PPN (`NO_CONTENT` when free/stale).
    pub(crate) content_of: Vec<u64>,
    /// Pre-hashes of stored pages (Inline-Sampled only): membership means
    /// "a page with this cheap hash has been stored before, a new write
    /// matching it is worth a full fingerprint". Conservative — entries
    /// are not removed on invalidation, so stale entries cost an extra
    /// full hash, never a missed duplicate among fingerprinted pages.
    pub(crate) prehash_filter: std::collections::HashSet<u32>,

    /// Completion latencies, each command under exactly one kind (the
    /// all-commands distribution is their exact merge, built at report
    /// time).
    lat_read: Histogram,
    lat_write: Histogram,
    lat_trim: Histogram,
    lat_during_gc: Histogram,
    /// Requests arriving before this instant fall inside an active GC
    /// round ("GC periods", the regime Fig. 11 averages over).
    pub(crate) gc_active_until: Nanos,
    host_pages_written: u64,
    pub(crate) user_programs: u64,
    read_misses: u64,
    trims: u64,
    /// Fault-handling counters (retries, rejections, recoveries).
    pub(crate) fh: FaultHandling,
    /// Report of the most recent power-loss recovery pass, if any.
    pub(crate) last_recovery: Option<RecoveryReport>,
    /// Trace sink (disabled no-op by default; see [`Ssd::enable_tracing`]).
    pub(crate) tracer: Tracer,
    /// What the current flash operation is being issued for (span naming).
    pub(crate) tctx: TraceCtx,
    /// Suspended preemptible GC job ([`crate::SsdConfig::gc_preempt`]);
    /// always `None` when preemption is off.
    pub(crate) gc_job: Option<crate::gc::GcJob>,
    /// Scratch for sharer sets detached during migration (journaling paths
    /// that need `&mut self` while walking the set).
    pub(crate) sharers_scratch: Vec<Lpn>,
    /// Scratch for a victim's valid-page snapshot (lent to the running
    /// [`crate::gc::GcJob`], back when its victim is erased).
    pub(crate) valids_scratch: Vec<Ppn>,
    /// Scratch for the closed-block candidate scan of the victim policies
    /// whose key needs it (Random, Cost-Benefit, FIFO, D-Choices); Greedy
    /// is answered by the device's victim index and never touches it.
    pub(crate) candidates_scratch: Vec<VictimCandidate>,
    /// Scratch for the fingerprints gathered ahead of a batch of pages
    /// (a CAGC migration run, a multi-page inline-dedup write).
    pub(crate) fps_scratch: Vec<Fingerprint>,
    /// Sim time of the first bad-block retirement (erase failure), if any
    /// — the fleet's "time-to-first-retirement" lifetime proxy.
    pub(crate) first_retirement_ns: Option<Nanos>,
    end_ns: Nanos,
}

impl Ssd {
    /// Build an SSD from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`SsdConfig::validate`].
    pub fn new(cfg: SsdConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SsdConfig: {e}");
        }
        let geom = cfg.flash.geometry();
        let thresholds = GcThresholds::of(&cfg.flash);
        let dev = FlashDevice::with_faults(geom, cfg.flash.timing(), cfg.faults.clone());
        let logical = cfg.flash.logical_pages();
        // Interleave the free pool across dies so consecutive frontier
        // blocks (writes, migrations, erases) exploit die parallelism.
        let order =
            Allocator::die_interleaved_order(geom.total_blocks(), geom.blocks_per_die());
        Self {
            map: MappingTable::new(logical),
            rmap: ReverseMap::with_pages(geom.total_pages(), logical),
            alloc: Allocator::with_block_order(
                order,
                geom.pages_per_block,
                thresholds.reserve_blocks,
            ),
            index: FingerprintIndex::new(),
            hash: HashEngine::new(cfg.flash.hash_ns),
            selector: VictimSelector::new(cfg.victim, SsdConfig::VICTIM_SEED),
            gc_stats: GcStats::default(),
            content_of: vec![NO_CONTENT; geom.total_pages() as usize],
            prehash_filter: std::collections::HashSet::new(),
            lat_read: Histogram::new(),
            lat_write: Histogram::new(),
            lat_trim: Histogram::new(),
            lat_during_gc: Histogram::new(),
            gc_active_until: 0,
            host_pages_written: 0,
            user_programs: 0,
            read_misses: 0,
            trims: 0,
            fh: FaultHandling::default(),
            last_recovery: None,
            tracer: Tracer::disabled(),
            tctx: TraceCtx::Off,
            gc_job: None,
            sharers_scratch: Vec::new(),
            valids_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
            fps_scratch: Vec::new(),
            first_retirement_ns: None,
            end_ns: 0,
            dev,
            thresholds,
            cfg,
        }
    }

    /// Host-visible logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.map.logical_pages()
    }

    /// Accumulated GC statistics.
    pub fn gc_stats(&self) -> &GcStats {
        &self.gc_stats
    }

    /// The flash device (read-only view, for assertions and reports).
    pub fn device(&self) -> &FlashDevice {
        &self.dev
    }

    /// The fingerprint index (read-only view, for assertions and reports).
    pub fn fingerprint_index(&self) -> &FingerprintIndex {
        &self.index
    }

    /// Bytes this SSD holds on the heap, every per-device table summed:
    /// the flash device (block records, victim index, timelines, and the
    /// OOB and journal when a fault plan is armed), forward and reverse
    /// maps, allocator, fingerprint index, the per-PPN content table, the
    /// latency histograms, the tracer's recording, the scratch buffers and
    /// the pre-hash filter (counted at 4 B per slot of capacity, without
    /// the hash table's control bytes). Divided by the device's physical
    /// page count this is what one physical page costs the host — the
    /// number that decides how many devices a fleet run can hold.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let lent = self.gc_job.as_ref().map_or(0, |job| job.pages.capacity());
        let scratch = self.sharers_scratch.capacity() * size_of::<Lpn>()
            + (self.valids_scratch.capacity() + lent) * size_of::<Ppn>()
            + self.candidates_scratch.capacity() * size_of::<VictimCandidate>()
            + self.fps_scratch.capacity() * size_of::<Fingerprint>();
        let hists = [&self.lat_read, &self.lat_write, &self.lat_trim, &self.lat_during_gc];
        self.dev.heap_bytes()
            + self.map.heap_bytes()
            + self.rmap.heap_bytes()
            + self.alloc.heap_bytes()
            + self.index.heap_bytes()
            + self.content_of.capacity() * size_of::<u64>()
            + hists.iter().map(|h| h.heap_bytes()).sum::<usize>()
            + self.tracer.heap_bytes()
            + scratch
            + self.prehash_filter.capacity() * size_of::<u32>()
    }

    /// When the most recent request completed (0 before any request).
    pub fn last_completion(&self) -> Nanos {
        self.end_ns
    }

    /// Turn on structured tracing for this SSD. Spans and instants are
    /// recorded in simulated nanoseconds from here on; call before the
    /// replay to capture the whole run. Disabled by default — and the
    /// disabled sink is a strict no-op, so untraced runs stay
    /// byte-identical to builds without the tracing layer.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::enabled(cfg);
    }

    /// The trace sink (events, gauges, drop counter).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable trace sink — lets a layer driving this SSD (the host
    /// interface) emit its own spans and gauges into the same recording.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Rendered Chrome trace-event document for the recording:
    /// `pid = channel`, `tid = die`, plus a synthetic "ftl" process
    /// carrying the host/gc/hash/fault tracks and the gauge counters. Load
    /// it in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        cagc_trace::chrome_trace(&self.tracer, self.cfg.flash.geometry().channels)
    }

    /// JSONL event log of the recording (one JSON object per line).
    pub fn trace_jsonl(&self) -> String {
        cagc_trace::jsonl(&self.tracer)
    }

    /// The one way a host command reaches the FTL: service `cmd` arriving
    /// at its timestamp and return its completion. Commands must be fed in
    /// nondecreasing time order (as [`Trace`] guarantees).
    ///
    /// Error completions (media read error, write fault, write protected)
    /// are *completions*: they are timed, recorded in the latency
    /// histograms and counted like any other finished command — the status
    /// is how layers above (host interface, fleet) learn the data never
    /// moved. Fault-free runs always complete [`CmdStatus::Success`].
    ///
    /// # Errors
    /// Only [`FlashError::PowerLoss`] is ever returned: the command was
    /// torn, not completed. It was never acknowledged, volatile FTL state
    /// is now stale, and the only useful next step is [`Ssd::recover`]
    /// (every further command fails the same way until then). All other
    /// flash errors are handled internally — program retries on fresh
    /// blocks, bad-block retirement, ECC re-reads — or are simulator bugs
    /// that panic at the failing call site.
    ///
    /// # Panics
    /// Panics if the command addresses logical pages the device does not
    /// export — the one place a workload is checked against the device,
    /// whichever driver (replay, host interface, fleet) issued it.
    pub fn submit(&mut self, cmd: RequestView<'_>) -> Result<Completion, FlashError> {
        let end = cmd.lpn.checked_add(u64::from(cmd.pages));
        assert!(
            end.is_some_and(|end| end <= self.logical_pages()),
            "command covers {} logical pages from {}, device exports {}",
            cmd.pages,
            cmd.lpn,
            self.logical_pages()
        );
        if self.dev.is_crashed() {
            return Err(FlashError::PowerLoss);
        }
        let at = cmd.at_ns;
        // One branch when tracing is disabled (always false); when enabled,
        // a deterministic every-nth pick of host requests to trace.
        let sampled = self.tracer.sample_host_op();
        if sampled {
            self.tctx = TraceCtx::Host;
        }
        self.maybe_idle_gc(at)?;
        let (completion, status) = match self.execute_request(cmd, at) {
            Ok(done) => done,
            Err(FlashError::Unrecoverable { at: failed_at }) => {
                // A last-resort recovery failed on the host path: the
                // command completes with an error status at the point the
                // final attempt gave up.
                let status = match cmd.kind {
                    OpKind::Read => CmdStatus::MediaReadError,
                    OpKind::Write | OpKind::Trim => CmdStatus::WriteFault,
                };
                (failed_at, status)
            }
            Err(e) => return Err(e),
        };
        if sampled {
            self.tctx = TraceCtx::Off;
            let name = match cmd.kind {
                OpKind::Read => "read",
                OpKind::Write => "write",
                OpKind::Trim => "trim",
            };
            self.tracer.span(
                Track::Host,
                name,
                at,
                completion,
                &[("lpn", cmd.lpn), ("pages", u64::from(cmd.pages))],
            );
            self.sample_gauges(completion);
        }
        let latency = completion - at;
        if at <= self.gc_active_until {
            // Arrived while a GC round was in flight: part of the "GC
            // period" population Fig. 11 averages over.
            self.lat_during_gc.record(latency);
        }
        match cmd.kind {
            OpKind::Read => self.lat_read.record(latency),
            OpKind::Write => self.lat_write.record(latency),
            OpKind::Trim => self.lat_trim.record(latency),
        }
        self.end_ns = self.end_ns.max(completion);
        Ok(Completion { end_ns: completion, status })
    }

    /// [`Ssd::submit`] for callers that need only the completion time. A
    /// request torn by power loss (never acknowledged) is absorbed and
    /// answered with its arrival time; callers that must tell the two
    /// apart call `submit`.
    pub fn process<'a>(&mut self, req: impl Into<RequestView<'a>>) -> Nanos {
        let req = req.into();
        self.submit(req).map_or(req.at_ns, |c| c.end_ns)
    }

    /// The per-kind request body: returns the completion time and status,
    /// or propagates [`FlashError::Unrecoverable`] / power loss for
    /// [`Ssd::submit`] to translate.
    fn execute_request(
        &mut self,
        cmd: RequestView<'_>,
        at: Nanos,
    ) -> Result<(Nanos, CmdStatus), FlashError> {
        let mut status = CmdStatus::Success;
        let completion = match cmd.kind {
            OpKind::Read => {
                let mut done = at;
                for lpn in cmd.lpns() {
                    done = done.max(self.read_page(lpn, at)?);
                }
                done
            }
            OpKind::Write if self.is_read_only() => {
                // Spare blocks exhausted: the device has degraded to
                // read-only and the controller fails the write fast.
                self.fh.writes_rejected += 1;
                status = CmdStatus::WriteProtected;
                at + SsdConfig::READ_MISS_NS
            }
            OpKind::Write => {
                // Check the watermark once per request. GC reserves die
                // time; this write then contends with it on the timelines
                // (it does not wait for the whole round — space exists as
                // soon as maybe_gc returns).
                self.maybe_gc(at)?;
                self.host_pages_written += u64::from(cmd.pages);
                // Pages of one request are processed in order by the FTL
                // datapath: page i+1 starts when page i completes. (For
                // Baseline/CAGC this matches the per-die serialization of
                // the shared frontier; for Inline-Dedupe it puts every
                // page's hash+lookup on the request's critical path.)
                debug_assert_eq!(cmd.contents.len(), cmd.pages as usize, "write without content");
                if cmd.pages > 1 {
                    self.warm_write(cmd);
                }
                let mut ready = at;
                for (lpn, &content) in cmd.lpns().zip(cmd.contents) {
                    ready = self.write_page(lpn, content, ready)?;
                }
                ready
            }
            OpKind::Trim if self.is_read_only() => {
                self.fh.trims_rejected += 1;
                status = CmdStatus::WriteProtected;
                at + SsdConfig::TRIM_NS
            }
            OpKind::Trim => {
                self.trims += 1;
                if self.cfg.honor_trim {
                    for lpn in cmd.lpns() {
                        self.release_lpn_as(lpn, at, ReleaseCause::Trim)?;
                    }
                }
                // Metadata-only: the mapping tables are updated but no die
                // is touched, so the cost is a flat controller charge.
                at + SsdConfig::TRIM_NS
            }
        };
        Ok((completion, status))
    }

    /// Whether bad-block retirement has degraded the device to read-only:
    /// the usable pool has shrunk to the GC reserve plus the configured
    /// floor, so accepting more writes would risk GC deadlock. Reads (and
    /// GC itself) continue.
    pub fn is_read_only(&self) -> bool {
        self.dev.stats().blocks_retired > 0
            && self.dev.usable_blocks() <= self.alloc.gc_reserve() + self.cfg.read_only_floor_blocks
    }

    /// Free fraction of the device: free pool / usable blocks. This is the
    /// quantity compared against the GC watermarks (Table I: 20 %).
    /// Retired blocks leave the denominator — capacity the device lost is
    /// not capacity GC can reclaim — so with no retirements this is
    /// exactly free pool / total blocks.
    pub(crate) fn free_fraction(&self) -> f64 {
        self.alloc.free_blocks() as f64 / self.dev.usable_blocks() as f64
    }

    /// Requests fully completed and acknowledged to the host: each one is
    /// recorded under exactly one of the per-kind latency histograms.
    pub fn acknowledged_requests(&self) -> u64 {
        self.lat_read.count() + self.lat_write.count() + self.lat_trim.count()
    }

    /// Snapshot of fault-injection and fault-handling counters.
    pub fn fault_report(&self) -> FaultReport {
        let d = self.dev.stats();
        FaultReport {
            active: self.dev.faults_active(),
            crashed: self.dev.is_crashed(),
            read_only: self.is_read_only(),
            program_failures: d.program_failures,
            erase_failures: d.erase_failures,
            read_ecc_errors: d.read_ecc_errors,
            blocks_retired: d.blocks_retired,
            journal_appends: self.dev.journal().len() as u64,
            program_retries: self.fh.program_retries,
            forced_programs: self.fh.forced_programs,
            read_retries: self.fh.read_retries,
            ecc_decodes: self.fh.ecc_decodes,
            media_read_errors: self.fh.media_read_errors,
            write_faults: self.fh.write_faults,
            writes_rejected: self.fh.writes_rejected,
            trims_rejected: self.fh.trims_rejected,
            recoveries: self.fh.recoveries,
        }
    }

    /// SMART-style health snapshot: media errors, retired blocks, spare
    /// pool headroom, wear percentiles and the read-only flag — what a
    /// monitoring plane polls to decide a device is degrading. Sampled
    /// into the gauge registry on fault-armed traced runs (see
    /// `sample_gauges`).
    pub fn health(&self) -> HealthLog {
        let d = self.dev.stats();
        // Percentile = the block at rank round((n - 1) * q) by wear, read
        // off the device's erase-count histogram (this runs per sampled
        // host request on fault-armed traced runs).
        let last = (self.dev.block_count() as usize).saturating_sub(1);
        let pick = |q: f64| self.dev.wear_at_rank((last as f64 * q).round() as usize);
        // Spare headroom above the point is_read_only() trips: usable
        // blocks beyond (GC reserve + read-only floor), scaled against the
        // pristine device's headroom.
        let floor = self.alloc.gc_reserve() + self.cfg.read_only_floor_blocks;
        let total = self.dev.block_count() as u64;
        let usable = u64::from(self.dev.usable_blocks());
        let spare_now = usable.saturating_sub(u64::from(floor));
        let spare_pristine = total.saturating_sub(u64::from(floor)).max(1);
        HealthLog {
            media_errors: d.program_failures + d.erase_failures + d.read_ecc_errors,
            unrecoverable_errors: self.fh.media_read_errors + self.fh.write_faults,
            retired_blocks: d.blocks_retired as u32,
            spare_pool_permille: spare_now * 1000 / spare_pristine,
            wear_p50: pick(0.50),
            wear_p90: pick(0.90),
            wear_max: pick(1.0),
            read_only: self.is_read_only(),
        }
    }

    /// Replay a whole trace and produce the run report.
    pub fn replay(&mut self, trace: &Trace) -> RunReport {
        for req in &trace.requests {
            self.process(req);
        }
        self.report(&trace.name)
    }

    /// Snapshot the report under the given workload name.
    pub fn report(&self, workload: &str) -> RunReport {
        // Every completion was recorded under exactly one kind, and
        // `Histogram::merge` is exact, so this is the all-commands
        // distribution.
        let mut lat_all = self.lat_read.clone();
        lat_all.merge(&self.lat_write);
        lat_all.merge(&self.lat_trim);
        RunReport {
            scheme: self.cfg.scheme.name().to_string(),
            victim: self.cfg.victim.name().to_string(),
            workload: workload.to_string(),
            all: LatencySummary::of(&lat_all),
            reads: LatencySummary::of(&self.lat_read),
            writes: LatencySummary::of(&self.lat_write),
            during_gc: LatencySummary::of(&self.lat_during_gc),
            cdf: Cdf::from_histogram(&lat_all),
            gc: self.gc_stats,
            index: self.index.stats(),
            invalidation_by_refcount: self.index.ref_stats().buckets(),
            host_pages_written: self.host_pages_written,
            user_programs: self.user_programs,
            total_programs: self.dev.stats().programs,
            total_erases: self.dev.stats().erases,
            read_misses: self.read_misses,
            trims: self.trims,
            trim_lat: LatencySummary::of(&self.lat_trim),
            honor_trim: self.cfg.honor_trim,
            trim_invalidated_pages: self.dev.stats().trimmed_pages,
            trim_ref_releases: self.index.ref_stats().trim_releases(),
            wear: self.dev.wear_summary(),
            wear_stddev: self.dev.wear_stddev(),
            die_utilization: self.die_utilization(),
            faults: self.fault_report(),
            first_retirement_ns: self.first_retirement_ns,
            recovery: self.last_recovery.clone(),
            telemetry: self.tracer.report(),
            end_ns: self.end_ns,
        }
    }

    /// (min, max, mean) busy fraction across dies, over `[0, end_ns]`.
    fn die_utilization(&self) -> (f64, f64, f64) {
        if self.end_ns == 0 {
            return (0.0, 0.0, 0.0);
        }
        let totals = self.dev.die_busy_totals();
        let horizon = self.end_ns as f64;
        let fracs: Vec<f64> =
            totals.iter().map(|&b| (b as f64 / horizon).min(1.0)).collect();
        let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
        let min = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fracs.iter().cloned().fold(0.0f64, f64::max);
        (if min.is_finite() { min } else { 0.0 }, max, mean)
    }

    /// Sample the telemetry gauges at `now`. Called once per *sampled*
    /// host request (so `--trace-sample` thins gauge traffic along with
    /// host spans); GC adds the `stranded_pages` gauge at each victim
    /// selection (Greedy reads the device's running total, the scanning
    /// policies sum it over the candidate walk they already make).
    fn sample_gauges(&mut self, now: Nanos) {
        self.tracer.gauge("free_pages", now, self.alloc.free_pages());
        if let Some(waf) = (self.dev.stats().programs * 1000).checked_div(self.host_pages_written) {
            self.tracer.gauge("waf_milli", now, waf);
        }
        let idx = self.index.stats();
        if let Some(rate) = (idx.hits * 1000).checked_div(idx.lookups) {
            self.tracer.gauge("dedup_hit_rate_milli", now, rate);
        }
        self.tracer.gauge("retired_blocks", now, self.dev.stats().blocks_retired);
        // SMART-style health gauges: only on fault-armed runs, so
        // fault-free traced output stays byte-identical to pre-health
        // recordings (pay-as-you-go, like the journal).
        if self.dev.faults_active() {
            let h = self.health();
            self.tracer.gauge("health_media_errors", now, h.media_errors);
            self.tracer.gauge("health_unrecoverable", now, h.unrecoverable_errors);
            self.tracer.gauge("health_spare_permille", now, h.spare_pool_permille);
            self.tracer.gauge("health_wear_p90", now, u64::from(h.wear_p90));
            self.tracer.gauge("health_read_only", now, u64::from(h.read_only));
        }
    }

    /// Sample every telemetry gauge at `now`, regardless of host-op
    /// sampling. The fleet observability plane calls this once per device
    /// at end of run so a sparsely-sampled (or gauges-only) tracer still
    /// closes its timeline with the final device state; a disabled tracer
    /// makes this a no-op.
    pub fn sample_telemetry(&mut self, now: Nanos) {
        if self.tracer.is_enabled() {
            self.sample_gauges(now);
        }
    }

    /// Emit a die-track span for a completed flash operation, named by the
    /// current [`TraceCtx`]. `host_name`/`gc_name` distinguish foreground
    /// I/O from GC migration on the same die timeline.
    fn trace_die_span(
        &mut self,
        ppn: Ppn,
        host_name: &'static str,
        gc_name: &'static str,
        start: Nanos,
        end: Nanos,
        queued: Nanos,
    ) {
        let name = match self.tctx {
            TraceCtx::Off => return,
            TraceCtx::Host => host_name,
            TraceCtx::Gc => gc_name,
        };
        let geom = self.dev.geometry();
        let track = Track::Die { channel: geom.channel_of(ppn), die: geom.die_of(ppn) };
        self.tracer.span(track, name, start, end, &[("ppn", ppn), ("queued_ns", queued)]);
    }

    // ---------------- page-level foreground operations ----------------

    fn read_page(&mut self, lpn: Lpn, ready: Nanos) -> Result<Nanos, FlashError> {
        match self.map.get(lpn) {
            Some(ppn) => {
                // Detect whether this host read had to fall back to the
                // heroic decode (the FTL's last resort). Only then can the
                // read fail unrecoverably — and only host reads roll; GC
                // migration reads bypass this wrapper entirely.
                let decodes_before = self.fh.ecc_decodes;
                let end = self.read_flash(ppn, ready)?;
                if self.fh.ecc_decodes > decodes_before && self.dev.roll_unrecoverable() {
                    self.fh.media_read_errors += 1;
                    self.tracer.instant(
                        Track::Fault,
                        "media_read_error",
                        end,
                        &[("lpn", lpn), ("ppn", ppn)],
                    );
                    return Err(FlashError::Unrecoverable { at: end });
                }
                Ok(end)
            }
            None => {
                self.read_misses += 1;
                Ok(ready + SsdConfig::READ_MISS_NS)
            }
        }
    }

    /// Read one flash page, absorbing injected ECC errors: up to
    /// [`SsdConfig::MAX_READ_RETRIES`] re-reads, then the heroic
    /// soft-decode path — slower, but the data is always recovered (no
    /// silent loss).
    pub(crate) fn read_flash(&mut self, ppn: Ppn, ready: Nanos) -> Result<Nanos, FlashError> {
        let mut at = ready;
        let mut attempts = 0;
        loop {
            match self.dev.read(ppn, at) {
                Ok(r) => {
                    self.trace_die_span(ppn, "read", "migrate_read", r.start, r.end, r.queued);
                    return Ok(r.end);
                }
                Err(FlashError::ReadEcc { at: failed_at, .. }) => {
                    at = failed_at;
                    if attempts < SsdConfig::MAX_READ_RETRIES {
                        attempts += 1;
                        self.fh.read_retries += 1;
                        self.tracer.instant(
                            Track::Fault,
                            "read_ecc_retry",
                            at,
                            &[("ppn", ppn), ("attempt", attempts as u64)],
                        );
                    } else {
                        self.fh.ecc_decodes += 1;
                        self.tracer.span(
                            Track::Fault,
                            "ecc_decode",
                            at,
                            at + SsdConfig::ECC_DECODE_NS,
                            &[("ppn", ppn)],
                        );
                        return Ok(at + SsdConfig::ECC_DECODE_NS);
                    }
                }
                Err(FlashError::PowerLoss) => return Err(FlashError::PowerLoss),
                Err(e) => panic!("flash read failed: {e}"),
            }
        }
    }

    fn write_page(&mut self, lpn: Lpn, content: ContentId, ready: Nanos) -> Result<Nanos, FlashError> {
        match self.cfg.scheme {
            // Fast path: no content processing before the program.
            Scheme::Baseline | Scheme::Cagc => Ok(self.store_page(lpn, content, None, ready)?.0),
            Scheme::InlineDedup => self.write_page_inline(lpn, content, ready),
            Scheme::InlineSampled => self.write_page_sampled(lpn, content, ready),
        }
    }

    /// The CAFTL-style sampled write path: a cheap pre-hash screens the
    /// page; only pre-hash matches (possible duplicates) pay the full
    /// fingerprint + lookup. First sightings are stored unfingerprinted.
    fn write_page_sampled(
        &mut self,
        lpn: Lpn,
        content: ContentId,
        ready: Nanos,
    ) -> Result<Nanos, FlashError> {
        let screened = ready + SsdConfig::PREHASH_NS;
        let pre = Self::prehash(content);
        if self.prehash_filter.contains(&pre) {
            // Possible duplicate: full inline-dedup path (hash + probe).
            // An index miss here still inserts the fingerprint, so the
            // third and later copies of this content deduplicate.
            self.write_page_inline(lpn, content, screened)
        } else {
            self.prehash_filter.insert(pre);
            Ok(self.store_page(lpn, content, None, screened)?.0)
        }
    }

    /// The cheap 32-bit pre-hash (stands in for a controller CRC of the
    /// page's first bytes; collisions across distinct contents are rare
    /// but possible, costing a spurious full hash — exactly CAFTL's
    /// false-positive behaviour).
    pub(crate) fn prehash(content: ContentId) -> u32 {
        let x = content.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 32) as u32
    }

    /// The Inline-Dedupe write path: hash, probe, then either a metadata
    /// update (hit) or a program (miss) — with the hash latency always on
    /// the critical path.
    fn write_page_inline(
        &mut self,
        lpn: Lpn,
        content: ContentId,
        ready: Nanos,
    ) -> Result<Nanos, FlashError> {
        let h = self.hash.hash_page(ready);
        if self.tctx == TraceCtx::Host {
            self.tracer.span(Track::Hash, "hash", h.start, h.end, &[("lpn", lpn)]);
        }
        let decided = h.end + SsdConfig::LOOKUP_NS;
        let fp = Fingerprint::of_content(content);
        match self.index.lookup(&fp) {
            Some(entry) => {
                if self.map.get(lpn) == Some(entry.ppn) {
                    // Overwrite with identical content: nothing changes.
                    return Ok(decided);
                }
                self.release_lpn(lpn, decided);
                self.index.add_refs(&fp, 1);
                self.map.set(lpn, entry.ppn);
                self.rmap.add(entry.ppn, lpn);
                // The hit is a pure metadata update — the journaled remap
                // is the only durable trace of this write.
                self.dev.journal_append(JournalOp::Remap { lpn, ppn: entry.ppn })?;
                Ok(decided)
            }
            None => {
                let (end, ppn) = self.store_page(lpn, content, Some(fp_stamp(&fp)), decided)?;
                self.index.insert(fp, ppn, 1);
                Ok(end)
            }
        }
    }

    /// Store `content` for `lpn` out of place — the one host page program
    /// every scheme's write path takes. The order is the crash-safe one:
    /// program the next host-frontier page, stamping the logical page (and,
    /// for inline schemes, the fingerprint) into its OOB — the durable
    /// record recovery rebuilds the mapping from, kept by the device when
    /// a fault plan is armed — then release the overwritten copy, then
    /// bind. The old copy goes only after its replacement is durable, so a
    /// crash (or an emergency GC erase) in between can never destroy the
    /// last durable copy of acknowledged data. The host frontier is
    /// distinct from the GC frontiers, so user programs never queue behind
    /// a burst of migration writes on the same block. Returns the program
    /// completion time and the new PPN.
    fn store_page(
        &mut self,
        lpn: Lpn,
        content: ContentId,
        fp_stamp: Option<u64>,
        ready: Nanos,
    ) -> Result<(Nanos, Ppn), FlashError> {
        let (end, ppn) =
            self.program_region(Region::Host, false, PageOob::host(lpn, fp_stamp), ready)?;
        self.user_programs += 1;
        self.release_lpn(lpn, ready);
        self.bind(lpn, ppn, content);
        Ok((end, ppn))
    }

    /// Allocate a frontier block in `region`. The GC path draws from the
    /// reserve and treats exhaustion as a simulator bug; the foreground
    /// path runs emergency GC until a block frees up (possible under
    /// victim policies with poor reclaim efficiency, e.g. Random).
    fn alloc_block(
        &mut self,
        region: Region,
        for_gc: bool,
        ready: Nanos,
    ) -> Result<BlockId, FlashError> {
        if for_gc {
            return Ok(self.alloc.alloc_page(region, true).unwrap_or_else(|| {
                panic!(
                    "GC allocation failed with {} free blocks — reserve {} exhausted",
                    self.alloc.free_blocks(),
                    self.alloc.gc_reserve()
                )
            }));
        }
        let mut attempts = 0;
        loop {
            if let Some(block) = self.alloc.alloc_page(region, false) {
                return Ok(block);
            }
            if self.is_read_only() {
                // Bad-block retirement crossed the read-only floor while
                // this write was already past its own read-only check:
                // forcing more GC can only bleed the reserve dry. Fail
                // the write as a write-fault completion instead.
                self.fh.write_faults += 1;
                self.tracer.instant(Track::Fault, "write_fault", ready, &[("read_only", 1)]);
                return Err(FlashError::Unrecoverable { at: ready });
            }
            let freed_from = self.alloc.free_blocks();
            self.force_gc_inner(ready)?;
            attempts += 1;
            if self.alloc.free_blocks() <= freed_from && attempts > 64 {
                panic!(
                    "foreground allocation failed: {} free blocks, GC reserve {} — \
                     workload footprint exceeds device capacity",
                    self.alloc.free_blocks(),
                    self.alloc.gc_reserve()
                );
            }
        }
    }

    /// Issue one page program on `region`'s frontier, absorbing injected
    /// program failures: each failure closes the frontier (the suspect
    /// block drains to GC), charges the retry backoff to simulated time,
    /// and retries on a fresh block; after [`SsdConfig::MAX_PROGRAM_RETRIES`] failures
    /// the program is forced through on ECC margin as a last resort.
    /// The allocator alone decides when a block is closed: after every
    /// attempt, a block it no longer calls open is sealed on the device (a
    /// no-op on a full one) — short of full after a failed host program,
    /// or after a refused forced program took a slot without a page.
    pub(crate) fn program_region(
        &mut self,
        region: Region,
        for_gc: bool,
        oob: PageOob,
        mut ready: Nanos,
    ) -> Result<(Nanos, Ppn), FlashError> {
        let mut retries = 0;
        loop {
            let block = self.alloc_block(region, for_gc, ready)?;
            let forced = retries >= SsdConfig::MAX_PROGRAM_RETRIES;
            // The forced program is the write path's last resort. On the
            // host path it may fail unrecoverably (write-fault completion);
            // the GC path never rolls — migration failures are absorbed
            // below and never become host-visible errors. The roll happens
            // before the attempt: old data and the mapping stay intact.
            let res = if forced && !for_gc && self.dev.roll_unrecoverable() {
                Err(FlashError::Unrecoverable { at: ready })
            } else if forced {
                self.dev.program_next_forced(block, ready, oob)
            } else {
                self.dev.program_next(block, ready, oob)
            };
            // The host path abandons a block that failed a program (it
            // drains to GC) and retries on a fresh one. The GC path must
            // NOT: closing a frontier strands the block's free pages, and
            // a burst of failures mid-round would bleed the bounded
            // reserve dry. It retries on the next page — the failed page
            // is already consumed as invalid, so failures cost pages,
            // never reserve blocks.
            if !for_gc && matches!(res, Err(FlashError::ProgramFailed { .. })) {
                self.alloc.close_frontier(region);
            }
            if !self.alloc.is_open(block) {
                self.dev.seal(block);
            }
            match res {
                Ok((r, ppn)) => {
                    if forced {
                        self.fh.forced_programs += 1;
                        self.tracer.instant(
                            Track::Fault,
                            "forced_program",
                            r.end,
                            &[("ppn", ppn), ("retries", retries as u64)],
                        );
                    }
                    self.trace_die_span(ppn, "program", "migrate_write", r.start, r.end, r.queued);
                    return Ok((r.end, ppn));
                }
                Err(FlashError::ProgramFailed { at, ppn }) => {
                    self.fh.program_retries += 1;
                    retries += 1;
                    self.tracer.instant(
                        Track::Fault,
                        "program_retry",
                        at,
                        &[("ppn", ppn), ("attempt", retries as u64)],
                    );
                    ready = at + SsdConfig::PROGRAM_RETRY_BACKOFF_NS;
                }
                Err(e @ FlashError::Unrecoverable { .. }) => {
                    self.fh.write_faults += 1;
                    self.tracer.instant(
                        Track::Fault,
                        "write_fault",
                        ready,
                        &[("retries", retries as u64)],
                    );
                    return Err(e);
                }
                Err(FlashError::PowerLoss) => return Err(FlashError::PowerLoss),
                Err(e) => panic!("flash program failed: {e}"),
            }
        }
    }

    /// Bind a freshly programmed page to its logical page and content.
    pub(crate) fn bind(&mut self, lpn: Lpn, ppn: Ppn, content: ContentId) {
        self.map.set(lpn, ppn);
        self.rmap.add(ppn, lpn);
        self.content_of[ppn as usize] = content.0;
    }

    /// Drop `lpn`'s current mapping, decrementing the backing page's
    /// reference count; the physical page is invalidated only when its last
    /// reference disappears (Sec. III-A).
    pub(crate) fn release_lpn(&mut self, lpn: Lpn, now: Nanos) {
        self.release_lpn_as(lpn, now, ReleaseCause::Overwrite)
            .expect("overwrite releases journal nothing and cannot fail");
    }

    /// [`Ssd::release_lpn`] with the cause spelled out. Trim-caused
    /// releases take the *attributed* paths down the stack
    /// ([`FlashDevice::deallocate`], `FingerprintIndex::release_ppn_trimmed`)
    /// so per-block trim garbage, refcount decay and report counters can
    /// all tell deallocation apart from overwrites; the state transitions
    /// themselves are identical.
    pub(crate) fn release_lpn_as(
        &mut self,
        lpn: Lpn,
        now: Nanos,
        cause: ReleaseCause,
    ) -> Result<(), FlashError> {
        let Some(old) = self.map.clear(lpn) else { return Ok(()) };
        let still_shared = self.rmap.remove(old, lpn);
        let invalidate = |dev: &mut FlashDevice| match cause {
            ReleaseCause::Overwrite => dev.invalidate(old, now),
            ReleaseCause::Trim => dev.deallocate(old, now),
        };
        match self.cfg.scheme {
            Scheme::Baseline => {
                debug_assert!(!still_shared, "baseline mapping must be 1:1");
                invalidate(&mut self.dev);
            }
            Scheme::InlineDedup | Scheme::InlineSampled | Scheme::Cagc => {
                let released = match cause {
                    ReleaseCause::Overwrite => self.index.release_ppn(old),
                    ReleaseCause::Trim => self.index.release_ppn_trimmed(old),
                };
                match released {
                    Some(0) => invalidate(&mut self.dev),
                    Some(_) => {} // other logical pages still share the content
                    None => {
                        // Untracked page (CAGC: not yet migrated through
                        // GC; Inline-Sampled: stored on a pre-hash miss).
                        // Exactly one LPN referenced it.
                        debug_assert!(!still_shared, "untracked page had sharers");
                        invalidate(&mut self.dev);
                        self.index.record_untracked_invalidation();
                    }
                }
            }
        }
        // A trim's only durable trace is the journaled unmap (an overwrite
        // needs none: the new page's OOB bind supersedes the old one at a
        // higher sequence number).
        if cause == ReleaseCause::Trim {
            self.dev.journal_append(JournalOp::Unmap { lpn })?;
        }
        Ok(())
    }

    /// The warm pass of gather → warm → apply (docs/PERFORMANCE.md): load,
    /// and do nothing else with, the table lines a batch is about to
    /// touch — for each physical page in `ppns` its block's record, its
    /// index entry and its first sharer's forward-map entry (only the
    /// first: a popular content has thousands of sharers, and an
    /// overwrite of one must not walk the rest), and for each fingerprint
    /// in `fps` its probe chain. Issued back to back the loads are
    /// independent, so their cache misses overlap; in the apply pass each
    /// would wait behind the previous page's work. Plain loads kept alive
    /// by [`std::hint::black_box`]: portable, and a missing line is
    /// fetched the same way a prefetch hint would fetch it.
    pub(crate) fn warm<'a>(
        &self,
        ppns: impl Iterator<Item = Ppn>,
        fps: impl Iterator<Item = &'a Fingerprint>,
    ) {
        let mut acc = 0u64;
        for ppn in ppns {
            acc ^= self.dev.page_state(ppn) as u64;
            acc ^= u64::from(self.index.refs_of_ppn(ppn).unwrap_or(0));
            if let Some(l) = self.rmap.lpns(ppn).next() {
                acc ^= self.map.get(l).unwrap_or(0);
            }
        }
        for fp in fps {
            acc ^= self.index.peek(fp).map_or(0, |e| e.ppn);
        }
        std::hint::black_box(acc);
    }

    /// Gather and warm passes for a multi-page host write: every page
    /// releases the copy its LPN pointed at (sharer list, index entry,
    /// block record of the old PPN), and Inline-Dedupe also probes the
    /// index with each page's fingerprint.
    fn warm_write(&mut self, cmd: RequestView<'_>) {
        let mut fps = std::mem::take(&mut self.fps_scratch);
        fps.clear();
        if self.cfg.scheme == Scheme::InlineDedup {
            fps.extend(cmd.contents.iter().map(|&c| Fingerprint::of_content(c)));
        }
        self.warm(cmd.lpns().filter_map(|l| self.map.get(l)), fps.iter());
        self.fps_scratch = fps;
    }

    /// The stored content of a physical page.
    ///
    /// # Panics
    /// Panics if no content was recorded (reading a free page's content is
    /// a GC logic bug).
    pub(crate) fn content_at(&self, ppn: Ppn) -> ContentId {
        let raw = self.content_of[ppn as usize];
        assert_ne!(raw, NO_CONTENT, "no content recorded at ppn {ppn}");
        ContentId(raw)
    }

    /// The content a host read of `lpn` would return (`None` when the LPN
    /// is unmapped). This is the data-integrity oracle used by tests: after
    /// any sequence of writes, overwrites, trims and GC passes, every
    /// mapped LPN must still return the content most recently written to
    /// it.
    pub fn stored_content(&self, lpn: Lpn) -> Option<ContentId> {
        self.map.get(lpn).map(|ppn| self.content_at(ppn))
    }

    /// The physical page `lpn` currently resolves to, if mapped. Exposed so
    /// crash-recovery tests can recount reference histograms from the
    /// forward map alone, independent of the fingerprint index.
    pub fn mapped_ppn(&self, lpn: Lpn) -> Option<Ppn> {
        self.map.get(lpn)
    }

    /// Reference-count histogram of the live fingerprint index, bucketed
    /// {1, 2, 3, >3} — the distribution Fig. 6 of the paper is built from,
    /// and the quantity crash-recovery tests compare against a from-scratch
    /// recount.
    pub fn ref_histogram(&self) -> [u64; 4] {
        self.index.live_ref_histogram()
    }

    /// Cross-module consistency audit (tests and debugging; O(device)).
    ///
    /// Checks: forward/reverse map agreement; every referenced physical
    /// page is `Valid`; reference counts equal sharer counts; the per-block
    /// valid-page totals equal the number of referenced physical pages; the
    /// fingerprint index is internally consistent, and the fingerprint it
    /// stores for a page is the fingerprint of the content stored there
    /// (what lets GC migration take a tracked page's fingerprint from the
    /// index instead of hashing — however the entry got there: GC insert,
    /// inline write, relocation or crash recovery); the device's GC
    /// candidates are the allocator-side recount (`audit_victims`).
    pub fn audit(&self) -> Result<(), String> {
        self.index.audit()?;
        self.audit_victims()?;
        if self.rmap.total_refs() != self.map.mapped_count() {
            return Err(format!(
                "rmap holds {} refs but mapping has {} mapped LPNs",
                self.rmap.total_refs(),
                self.map.mapped_count()
            ));
        }
        let mut referenced = 0u64;
        for (ppn, lpns) in self.rmap.iter() {
            referenced += 1;
            if self.dev.page_state(ppn) != cagc_flash::PageState::Valid {
                return Err(format!("referenced ppn {ppn} is not valid"));
            }
            let sharers = lpns.clone().count();
            match self.index.refs_of_ppn(ppn) {
                Some(refs) => {
                    if refs as usize != sharers {
                        return Err(format!("ppn {ppn}: index refcount {refs} != {sharers} sharers"));
                    }
                    let fp = Fingerprint::of_content(self.content_at(ppn));
                    if self.index.fp_of_ppn(ppn) != Some(fp) {
                        return Err(format!("ppn {ppn}: indexed fingerprint is not its content's"));
                    }
                }
                None => {
                    if self.cfg.scheme == Scheme::InlineDedup {
                        return Err(format!("inline-dedupe left ppn {ppn} untracked"));
                    }
                    if sharers != 1 {
                        return Err(format!("untracked ppn {ppn} has {sharers} sharers"));
                    }
                }
            }
            for l in lpns {
                if self.map.get(l) != Some(ppn) {
                    return Err(format!("rmap says lpn {l} -> ppn {ppn}, map disagrees"));
                }
            }
        }
        let device_valid: u64 = (0..self.dev.block_count())
            .map(|b| self.dev.block(b).valid_count() as u64)
            .sum();
        if device_valid != referenced {
            return Err(format!(
                "device holds {device_valid} valid pages, {referenced} are referenced"
            ));
        }
        Ok(())
    }

    /// The oracle of the GC candidate set: the allocator-side recount —
    /// not an open frontier, not retired, written, gaining a page by its
    /// erase — must be the device's collectible set, with the device's
    /// running candidate count and stranded total, and its index's Greedy
    /// pick. Returns the recount, in block-id order.
    pub(crate) fn audit_victims(&self) -> Result<Vec<VictimCandidate>, String> {
        let mut recount = Vec::new();
        for b in 0..self.dev.block_count() {
            let blk = self.dev.block(b);
            let closed = !self.alloc.is_open(b)
                && !blk.is_retired()
                && !blk.is_free()
                && blk.invalid_count() + blk.free_count() > 0;
            match (closed, self.dev.is_collectible(b)) {
                (true, false) => return Err(format!("block {b}: closed by the allocator, unsealed")),
                (false, true) => return Err(format!("block {b}: collectible, not in the recount")),
                (true, true) => recount.push(VictimCandidate::of(b, blk)),
                (false, false) => {}
            }
        }
        let stranded = recount.iter().map(|c| u64::from(c.stranded)).sum();
        let greedy = VictimSelector::new(VictimKind::Greedy, 0).select(&recount, 0);
        let dev = &self.dev;
        let device = (dev.victim_candidates(), dev.stranded_pages(), dev.greedy_full_victim());
        if device != (recount.len() as u32, stranded, greedy) {
            return Err(format!(
                "the device's candidates, stranded pages and Greedy pick {device:?} are not the \
                 recount's {:?}",
                (recount.len(), stranded, greedy)
            ));
        }
        Ok(recount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagc_flash::{FaultConfig, UllConfig};
    use cagc_workloads::Request;

    #[test]
    fn audit_rejects_an_indexed_fingerprint_that_is_not_the_contents() {
        let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::InlineDedup));
        ssd.process(&Request::write(1_000, 3, vec![ContentId(7)]));
        ssd.audit().expect("consistent after one write");
        let ppn = ssd.mapped_ppn(3).expect("lpn 3 was written");
        ssd.content_of[ppn as usize] = 8;
        let err = ssd.audit().expect_err("index still holds the fingerprint of content 7");
        assert!(err.contains("indexed fingerprint"), "{err}");
    }

    #[test]
    fn audit_rejects_a_block_the_allocator_closed_short_that_the_device_never_sealed() {
        let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::Baseline));
        ssd.process(&Request::write(1_000, 3, vec![ContentId(7)]));
        ssd.audit().expect("consistent after one write");
        // Close the host frontier behind the device's back: one page
        // written, the rest stranded, and the block never sealed.
        let closed = ssd.alloc.close_frontier(Region::Host).expect("the write opened a frontier");
        let err = ssd.audit().expect_err("a closed, unsealed block is no GC candidate");
        assert!(err.contains(&format!("block {closed}: closed by the allocator, unsealed")), "{err}");
    }

    /// Heap bytes per physical page of a fresh 1 GB CAGC device.
    fn fresh_1gb_bytes_per_page(faults: FaultConfig) -> f64 {
        let mut cfg = SsdConfig::paper(UllConfig::scaled_gb(1), Scheme::Cagc);
        cfg.faults = faults;
        let ssd = Ssd::new(cfg);
        ssd.heap_bytes() as f64 / ssd.dev.geometry().total_pages() as f64
    }

    #[test]
    fn a_fresh_1gb_ssd_costs_what_its_tables_cost_per_physical_page() {
        // Measured 27.59 B fault-free: 15.16 reverse map (4 B head per
        // PPN + 12 B link and owner per LPN, all allocated here, not during
        // replay) + 8 `content_of` + 3.72 forward map (a `u32` per LPN)
        // + 0.63 device + 0.08 allocator; the four latency histograms
        // allocate nothing before their first value. Arming a plan adds
        // the 40 B OOB and nothing else.
        let fault_free = fresh_1gb_bytes_per_page(FaultConfig::none());
        let armed = fresh_1gb_bytes_per_page(FaultConfig {
            crash_at_op: Some(u64::MAX),
            ..FaultConfig::none()
        });
        assert!(fault_free <= 27.6, "fault-free: {fault_free:.3} B per physical page");
        assert!(armed <= 67.6, "armed: {armed:.3} B per physical page");
        assert_eq!(armed - fault_free, 40.0, "the OOB is the only pay-as-you-go table");
    }
}
