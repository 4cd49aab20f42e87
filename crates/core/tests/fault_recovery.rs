//! Fault-injection and power-loss recovery properties.
//!
//! The oracle for crash consistency is the storage contract itself: after
//! a power loss and [`Ssd::recover`], every logical page must read back
//! either the content of its last *acknowledged* write (or be unmapped if
//! that was a trim / it was never written), or — only for the one request
//! torn by the crash — the torn request's content. Acknowledged data is
//! never lost, across all three schemes, no matter where inside a GC
//! round the crash lands.

use cagc_core::{CmdStatus, Scheme, Ssd, SsdConfig};
use cagc_dedup::ContentId;
use cagc_flash::{FaultConfig, FlashError, Timing, UllConfig};
use cagc_harness::prop::*;
use cagc_harness::ToJson;
use cagc_sim::SimRng;
use cagc_workloads::Request;
use std::collections::BTreeMap;

/// A deliberately tiny device (32 blocks x 8 pages) so GC churns hard and
/// a few hundred requests push crash points deep into migration/erase
/// territory.
fn micro_flash() -> UllConfig {
    UllConfig {
        channels: 1,
        dies_per_channel: 2,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_size: 4096,
        op_ratio: 0.12,
        gc_watermark: 0.20,
        hash_ns: 14_000,
        timing: Timing::ull(),
    }
}

fn scheme_of(ix: u8) -> Scheme {
    match ix % 4 {
        0 => Scheme::Baseline,
        1 => Scheme::InlineDedup,
        2 => Scheme::InlineSampled,
        _ => Scheme::Cagc,
    }
}

fn faulty_config(scheme: Scheme, seed: u64, crash_op: Option<u64>) -> SsdConfig {
    let mut cfg = SsdConfig::paper(micro_flash(), scheme);
    cfg.faults = FaultConfig {
        program_fail_prob: 0.01,
        erase_fail_prob: 0.002,
        read_ecc_prob: 0.01,
        seed,
        crash_at_op: crash_op,
        ..FaultConfig::none()
    };
    cfg
}

/// Overwrite-heavy, duplicate-heavy footprint: hot LPNs force GC, a small
/// content pool forces dedup hits in every scheme that looks for them.
const HOT_LPNS: u64 = 160;
const CONTENT_POOL: u64 = 40;

/// Per-LPN durability oracle.
struct Oracle {
    /// Content of the last acknowledged write (`None` = trimmed or never
    /// written: the LPN must read back unmapped).
    acked: Vec<Option<ContentId>>,
    /// Candidate states of the single request torn by the crash.
    pending: Vec<Vec<Option<ContentId>>>,
}

impl Oracle {
    fn new(logical: u64) -> Self {
        Oracle {
            acked: vec![None; logical as usize],
            pending: vec![Vec::new(); logical as usize],
        }
    }

    /// After recovery the torn request is resolved one way or the other;
    /// adopt whatever the device now stores as the new acknowledged state.
    fn settle(&mut self, ssd: &Ssd) {
        for lpn in 0..self.acked.len() as u64 {
            self.acked[lpn as usize] = ssd.stored_content(lpn);
            self.pending[lpn as usize].clear();
        }
    }

    fn check(&self, ssd: &Ssd, when: &str) -> Result<(), TestCaseError> {
        for lpn in 0..self.acked.len() as u64 {
            let got = ssd.stored_content(lpn);
            let want = &self.acked[lpn as usize];
            let ok = got == *want || self.pending[lpn as usize].contains(&got);
            prop_assert!(
                ok,
                "{when}: lpn {lpn} reads {got:?}; acknowledged {want:?}, \
                 in-flight {:?}",
                self.pending[lpn as usize]
            );
        }
        Ok(())
    }
}

/// Draw the next request and its oracle candidates `(lpn, new state)`.
fn next_request(rng: &mut SimRng, at: u64) -> (Request, Vec<(u64, Option<ContentId>)>) {
    let roll = rng.gen_range_u64(0..100);
    let lpn = rng.gen_range_u64(0..HOT_LPNS - 4);
    let content = |rng: &mut SimRng| ContentId(1 + rng.gen_range_u64(0..CONTENT_POOL));
    if roll < 60 {
        let c = content(rng);
        (Request::write(at, lpn, vec![c]), vec![(lpn, Some(c))])
    } else if roll < 70 {
        // Multi-page write: a crash can tear it mid-request.
        let n = 2 + rng.gen_range_u64(0..3);
        let cs: Vec<ContentId> = (0..n).map(|_| content(rng)).collect();
        let cand = cs.iter().enumerate().map(|(i, &c)| (lpn + i as u64, Some(c))).collect();
        (Request::write(at, lpn, cs), cand)
    } else if roll < 80 {
        (Request::trim(at, lpn, 1), vec![(lpn, None)])
    } else {
        (Request::read(at, lpn, 1), Vec::new())
    }
}

/// Feed `n_req` seeded requests through `Ssd::submit`, maintaining the
/// oracle. Returns `(ssd, oracle, next arrival time, crashed?)`.
fn drive(
    ssd: &mut Ssd,
    oracle: &mut Oracle,
    rng: &mut SimRng,
    mut at: u64,
    n_req: usize,
) -> Result<(u64, bool), TestCaseError> {
    for _ in 0..n_req {
        at += 4_000;
        let (req, cand) = next_request(rng, at);
        let before = ssd.fault_report();
        match ssd.submit(req.view()) {
            Ok(_) => {
                let after = ssd.fault_report();
                let rejected = after.writes_rejected > before.writes_rejected
                    || after.trims_rejected > before.trims_rejected;
                if !rejected {
                    for (lpn, v) in cand {
                        oracle.acked[lpn as usize] = v;
                        oracle.pending[lpn as usize].clear();
                    }
                }
            }
            Err(FlashError::PowerLoss) => {
                // The torn request: each touched page may or may not have
                // become durable.
                for (lpn, v) in cand {
                    oracle.pending[lpn as usize].push(v);
                }
                return Ok((at, true));
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
    Ok((at, false))
}

/// Reference-count histogram recounted from scratch, using only the
/// forward map and the per-page OOB stamps — fully independent of the
/// fingerprint index the recovery pass rebuilt.
fn recount_histogram(ssd: &Ssd) -> [u64; 4] {
    let mut sharers: BTreeMap<u64, u64> = BTreeMap::new();
    for lpn in 0..ssd.logical_pages() {
        if let Some(ppn) = ssd.mapped_ppn(lpn) {
            *sharers.entry(ppn).or_insert(0) += 1;
        }
    }
    let mut h = [0u64; 4];
    for (&ppn, &n) in &sharers {
        if ssd.device().oob(ppn).fp.is_some() {
            h[match n {
                1 => 0,
                2 => 1,
                3 => 2,
                _ => 3,
            }] += 1;
        }
    }
    h
}

harness_proptest! {
    #![config(cases = 32)]

    /// The headline property: under probabilistic program/erase/ECC faults
    /// and a crash at an arbitrary durable-op ordinal — including deep
    /// inside GC rounds — recovery loses no acknowledged write, the
    /// rebuilt refcount histogram matches an index-independent recount,
    /// and the device keeps serving (and keeps its invariants) afterwards.
    #[test]
    fn crash_recovery_preserves_acknowledged_writes(
        scheme_ix in 0u8..4,
        seed in 0u64..0x1_0000_0000,
        crash_op in 20u64..1500,
        n_req in 60usize..350,
    ) {
        let scheme = scheme_of(scheme_ix);
        let mut ssd = Ssd::new(faulty_config(scheme, seed, Some(crash_op)));
        let mut oracle = Oracle::new(ssd.logical_pages());
        let mut rng = SimRng::for_stream(seed, "fault-recovery-workload");

        let (at, crashed) = drive(&mut ssd, &mut oracle, &mut rng, 0, n_req)?;
        if crashed {
            let rep = ssd.recover();
            prop_assert!(rep.is_ok(), "recovery failed: {:?}", rep);
            oracle.check(&ssd, "after recovery")?;
            prop_assert_eq!(
                ssd.ref_histogram(),
                recount_histogram(&ssd),
                "rebuilt index refcounts disagree with a from-scratch recount"
            );
            prop_assert!(ssd.audit().is_ok(), "post-recovery audit: {:?}", ssd.audit());

            // The crash point is consumed: the device must keep working.
            oracle.settle(&ssd);
            let (_, crashed_again) = drive(&mut ssd, &mut oracle, &mut rng, at, 60)?;
            prop_assert!(!crashed_again, "crash point fired twice");
            prop_assert_eq!(ssd.fault_report().recoveries, 1);
        }
        oracle.check(&ssd, "end of run")?;
        prop_assert!(ssd.audit().is_ok(), "final audit: {:?}", ssd.audit());
    }
}

harness_proptest! {
    #![config(cases = 16)]

    /// Running the recovery pass twice is a no-op: the second pass sees
    /// only durable facts the first pass already normalized.
    #[test]
    fn recovery_is_idempotent(
        scheme_ix in 0u8..4,
        seed in 0u64..0x1_0000_0000,
        crash_op in 20u64..900,
    ) {
        let scheme = scheme_of(scheme_ix);
        let mut ssd = Ssd::new(faulty_config(scheme, seed, Some(crash_op)));
        let mut oracle = Oracle::new(ssd.logical_pages());
        let mut rng = SimRng::for_stream(seed, "fault-recovery-workload");
        let (_, crashed) = drive(&mut ssd, &mut oracle, &mut rng, 0, 250)?;
        if !crashed {
            return Ok(());
        }
        let first = ssd.recover().map_err(TestCaseError::fail)?;
        let contents: Vec<_> = (0..ssd.logical_pages()).map(|l| ssd.stored_content(l)).collect();
        let hist = ssd.ref_histogram();

        let second = ssd.recover().map_err(TestCaseError::fail)?;
        let contents2: Vec<_> = (0..ssd.logical_pages()).map(|l| ssd.stored_content(l)).collect();
        prop_assert_eq!(contents, contents2, "second recovery changed stored contents");
        prop_assert_eq!(hist, ssd.ref_histogram());
        prop_assert_eq!(first.mappings_recovered, second.mappings_recovered);
        prop_assert_eq!(second.duplicate_copies_merged, 0,
            "first recovery left duplicate stored copies behind");
        prop_assert!(ssd.audit().is_ok());
    }

    /// Determinism regression: the same fault seed, crash point and
    /// workload produce byte-identical reports — fault injection must not
    /// introduce any hidden source of nondeterminism.
    #[test]
    fn same_fault_seed_is_byte_identical(
        scheme_ix in 0u8..4,
        seed in 0u64..0x1_0000_0000,
        crash_op in 20u64..900,
    ) {
        let scheme = scheme_of(scheme_ix);
        let mut digests = Vec::new();
        for _ in 0..2 {
            let mut ssd = Ssd::new(faulty_config(scheme, seed, Some(crash_op)));
            let mut oracle = Oracle::new(ssd.logical_pages());
            let mut rng = SimRng::for_stream(seed, "fault-recovery-workload");
            let (at, crashed) = drive(&mut ssd, &mut oracle, &mut rng, 0, 220)?;
            if crashed {
                ssd.recover().map_err(TestCaseError::fail)?;
                oracle.settle(&ssd);
                drive(&mut ssd, &mut oracle, &mut rng, at, 40)?;
            }
            digests.push(ssd.report("prop").to_json().render());
        }
        prop_assert_eq!(&digests[0], &digests[1], "same fault seed diverged");
    }
}

// ---------------------------------------------------------------------
// Deterministic fault-policy unit tests (explicit schedules).
// ---------------------------------------------------------------------

fn schedule_config(scheme: Scheme, faults: FaultConfig) -> SsdConfig {
    let mut cfg = SsdConfig::paper(micro_flash(), scheme);
    cfg.faults = faults;
    cfg
}

#[test]
fn program_failure_retries_on_a_fresh_block() {
    let cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig { fail_program_ops: vec![0], ..FaultConfig::none() },
    );
    let mut ssd = Ssd::new(cfg);
    let done = ssd.submit(Request::write(1_000, 0, vec![ContentId(7)]).view()).unwrap().end_ns;
    assert!(done > 1_000);
    let fr = ssd.fault_report();
    assert_eq!(fr.program_failures, 1);
    assert_eq!(fr.program_retries, 1);
    assert_eq!(fr.forced_programs, 0);
    assert_eq!(ssd.stored_content(0), Some(ContentId(7)));
    ssd.audit().unwrap();
}

#[test]
fn exhausted_retries_force_the_program_through() {
    // Default max_program_retries = 4: ordinals 0..=3 all fail, the fifth
    // attempt takes the forced (fault-bypassing) path.
    let cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig { fail_program_ops: vec![0, 1, 2, 3], ..FaultConfig::none() },
    );
    let retries = cfg.max_program_retries as u64;
    let mut ssd = Ssd::new(cfg);
    let done = ssd.submit(Request::write(1_000, 0, vec![ContentId(9)]).view()).unwrap().end_ns;
    let fr = ssd.fault_report();
    assert_eq!(fr.program_failures, 4);
    assert_eq!(fr.program_retries, 4);
    assert_eq!(fr.forced_programs, 1);
    // Every retry charged its backoff to simulated time.
    assert!(
        done >= 1_000 + retries * SsdConfig::PROGRAM_RETRY_BACKOFF_NS,
        "done {done} missing retry backoffs"
    );
    assert_eq!(ssd.stored_content(0), Some(ContentId(9)));
    ssd.audit().unwrap();
}

#[test]
fn ecc_errors_reread_then_heroically_decode() {
    // MAX_READ_RETRIES = 2: three scheduled ECC failures exhaust
    // the re-reads and take the slow soft-decode path; the data still
    // arrives (no silent loss) and a later read is clean.
    let cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig { fail_read_ops: vec![0, 1, 2], ..FaultConfig::none() },
    );
    let mut ssd = Ssd::new(cfg);
    ssd.submit(Request::write(1_000, 5, vec![ContentId(3)]).view()).unwrap();
    let done = ssd.submit(Request::read(100_000, 5, 1).view()).unwrap().end_ns;
    let fr = ssd.fault_report();
    assert_eq!(fr.read_ecc_errors, 3);
    assert_eq!(fr.read_retries, 2);
    assert_eq!(fr.ecc_decodes, 1);
    assert!(done > 100_000);

    // Ordinal 3 is clean: no further retries or decodes.
    ssd.submit(Request::read(200_000, 5, 1).view()).unwrap();
    let fr2 = ssd.fault_report();
    assert_eq!(fr2.read_retries, 2);
    assert_eq!(fr2.ecc_decodes, 1);
    ssd.audit().unwrap();
}

#[test]
fn erase_failures_retire_blocks_and_degrade_to_read_only() {
    let mut cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig { erase_fail_prob: 1.0, seed: 11, ..FaultConfig::none() },
    );
    // With the floor raised to the whole device, the first retirement
    // flips the device read-only — no need to burn through the spare pool.
    cfg.read_only_floor_blocks = cfg.flash.geometry().total_blocks();
    let mut ssd = Ssd::new(cfg);

    // Overwrite a hot set until GC fires; its first erase fails and
    // retires the victim.
    let mut at = 0;
    for i in 0..4_000u64 {
        at += 4_000;
        let lpn = i % 120;
        ssd.submit(Request::write(at, lpn, vec![ContentId(1 + i)]).view()).unwrap();
        if ssd.fault_report().blocks_retired > 0 {
            break;
        }
    }
    let fr = ssd.fault_report();
    assert!(fr.blocks_retired >= 1, "GC never failed an erase");
    assert_eq!(fr.erase_failures, fr.blocks_retired);
    assert!(ssd.is_read_only(), "retirement past the floor must degrade to read-only");
    assert!(fr.read_only);

    // Writes and trims now fail fast with the rejection counters ticking;
    // reads are still served.
    let before = ssd.stored_content(0);
    at += 4_000;
    let done = ssd.submit(Request::write(at, 0, vec![ContentId(0xDEAD)]).view()).unwrap().end_ns;
    assert_eq!(done, at + SsdConfig::READ_MISS_NS);
    assert_eq!(ssd.fault_report().writes_rejected, 1);
    assert_eq!(ssd.stored_content(0), before, "rejected write must not change state");

    at += 4_000;
    let done = ssd.submit(Request::trim(at, 0, 1).view()).unwrap().end_ns;
    assert_eq!(done, at + SsdConfig::TRIM_NS);
    assert_eq!(ssd.fault_report().trims_rejected, 1);
    assert_eq!(ssd.stored_content(0), before);

    at += 4_000;
    assert!(ssd.submit(Request::read(at, 0, 1).view()).unwrap().end_ns > at);
    ssd.audit().unwrap();
}

#[test]
fn unrecoverable_read_completes_with_media_error_status() {
    // Three scheduled ECC failures force the heroic decode; with
    // unrecoverable_prob = 1.0 the decode itself fails and the read
    // completes with a media-read-error status instead of panicking. The
    // stored data is untouched and a later (clean) read still serves it.
    let cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig {
            fail_read_ops: vec![0, 1, 2],
            unrecoverable_prob: 1.0,
            ..FaultConfig::none()
        },
    );
    let mut ssd = Ssd::new(cfg);
    ssd.submit(Request::write(1_000, 5, vec![ContentId(3)]).view()).unwrap();
    let comp = ssd.submit(Request::read(100_000, 5, 1).view()).unwrap();
    assert_eq!(comp.status, CmdStatus::MediaReadError);
    assert!(!comp.status.is_ok() && comp.status.is_retryable());
    assert_eq!(comp.status.nvme_code(), 0x281, "NVMe 'unrecovered read error'");
    let fr = ssd.fault_report();
    assert_eq!(fr.media_read_errors, 1);
    assert_eq!(fr.ecc_decodes, 1);

    // Ordinal 3 is clean: a host-level retry of the same LPN succeeds.
    let retry = ssd.submit(Request::read(200_000, 5, 1).view()).unwrap();
    assert_eq!(retry.status, CmdStatus::Success);
    assert_eq!(ssd.stored_content(5), Some(ContentId(3)));
    ssd.audit().unwrap();
}

#[test]
fn unrecoverable_forced_program_completes_with_write_fault() {
    // Four scheduled program failures exhaust the retries; with
    // unrecoverable_prob = 1.0 the forced last resort fails for good
    // (before touching flash) and the write completes with a write-fault
    // status. The mapping must not bind — old data semantics hold.
    let cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig {
            fail_program_ops: vec![0, 1, 2, 3],
            unrecoverable_prob: 1.0,
            ..FaultConfig::none()
        },
    );
    let mut ssd = Ssd::new(cfg);
    let comp = ssd.submit(Request::write(1_000, 0, vec![ContentId(9)]).view()).unwrap();
    assert_eq!(comp.status, CmdStatus::WriteFault);
    assert_eq!(comp.status.nvme_code(), 0x280, "NVMe 'write fault'");
    let fr = ssd.fault_report();
    assert_eq!(fr.write_faults, 1);
    assert_eq!(fr.program_retries, 4);
    assert_eq!(fr.forced_programs, 0, "the forced attempt never ran");
    assert_eq!(ssd.stored_content(0), None, "failed write must not bind a mapping");

    // Program ordinal 4 is clean: a host-level rewrite succeeds.
    let retry = ssd.submit(Request::write(2_000_000, 0, vec![ContentId(9)]).view()).unwrap();
    assert_eq!(retry.status, CmdStatus::Success);
    assert_eq!(ssd.stored_content(0), Some(ContentId(9)));
    ssd.audit().unwrap();
}

#[test]
fn health_log_tracks_degradation() {
    let mut cfg = schedule_config(
        Scheme::Baseline,
        FaultConfig { erase_fail_prob: 1.0, seed: 11, ..FaultConfig::none() },
    );
    cfg.read_only_floor_blocks = cfg.flash.geometry().total_blocks();
    let mut ssd = Ssd::new(cfg);
    let pristine = ssd.health();
    assert_eq!(pristine.retired_blocks, 0);
    assert!(!pristine.read_only);
    assert!(pristine.spare_pool_permille <= 1000);

    let mut at = 0;
    for i in 0..4_000u64 {
        at += 4_000;
        ssd.submit(Request::write(at, i % 120, vec![ContentId(1 + i)]).view()).unwrap();
        if ssd.fault_report().blocks_retired > 0 {
            break;
        }
    }
    let h = ssd.health();
    assert!(h.retired_blocks >= 1, "GC never failed an erase");
    assert!(h.read_only, "retirement past the floor must flip read-only");
    assert!(h.media_errors >= u64::from(h.retired_blocks));
    assert_eq!(h.unrecoverable_errors, 0, "no unrecoverable faults were armed");
    assert!(h.wear_p50 <= h.wear_p90 && h.wear_p90 <= h.wear_max);
    assert!(h.spare_pool_permille <= pristine.spare_pool_permille);
    assert!(!h.render().is_empty());
}

#[test]
fn fault_free_runs_stay_quiet_and_journal_free() {
    let mut ssd = Ssd::new(SsdConfig::paper(micro_flash(), Scheme::Cagc));
    let mut at = 0;
    for i in 0..600u64 {
        at += 4_000;
        ssd.process(&Request::write(at, i % 100, vec![ContentId(1 + i % 30)]));
    }
    let report = ssd.report("quiet");
    assert!(report.faults.is_quiet(), "fault-free run produced fault counters");
    assert!(report.recovery.is_none());
    assert!(!report.render().contains("faults"));
    assert!(ssd.device().journal().is_empty(), "fault-free runs must not journal");
}

/// Sweep crash points across a run whose fault-free twin provably runs GC,
/// so several of the crashes land *inside* GC rounds (mid-migration,
/// between a dedup absorb and the victim erase) — the window CAGC's
/// dedup-during-GC design is most exposed in. After each recovery the
/// rest of the workload is replayed, torn request first, and the device
/// must end up holding what the twin holds.
#[test]
fn crash_points_inside_gc_recover_for_every_scheme() {
    for scheme in [Scheme::Baseline, Scheme::InlineDedup, Scheme::Cagc] {
        // Fault-free twin: measure the durable-op span and confirm GC ran.
        // Contents are mostly unique so even Inline-Dedupe programs enough
        // pages to fill the device, with a small duplicated tail so CAGC's
        // dedup-during-GC path engages too.
        let mut twin = Ssd::new(SsdConfig::paper(micro_flash(), scheme));
        let mut rng = SimRng::for_stream(0xC4A5, "gc-crash-sweep");
        let mut at = 0;
        let mut reqs = Vec::new();
        for i in 0..500u64 {
            at += 4_000;
            let lpn = rng.gen_range_u64(0..HOT_LPNS);
            let req = match rng.gen_range_u64(0..100) {
                0..=74 => Request::write(at, lpn, vec![ContentId(1_000 + i)]),
                75..=89 => {
                    Request::write(at, lpn, vec![ContentId(1 + rng.gen_range_u64(0..8))])
                }
                90..=94 => Request::trim(at, lpn, 1),
                _ => Request::read(at, lpn, 1),
            };
            reqs.push(req);
        }
        for r in &reqs {
            twin.process(r);
        }
        assert!(twin.gc_stats().blocks_erased > 0, "{scheme:?}: twin never ran GC");
        let span = twin.device().durable_ops();
        assert!(span > 100);

        // Crash the same workload at eight points across the span.
        for k in 1..=8u64 {
            let crash_op = span * k / 9;
            let mut cfg = SsdConfig::paper(micro_flash(), scheme);
            cfg.faults =
                FaultConfig { crash_at_op: Some(crash_op), ..FaultConfig::none() };
            let mut ssd = Ssd::new(cfg);
            let mut oracle = Oracle::new(ssd.logical_pages());
            let mut torn_at = None;
            for (i, req) in reqs.iter().enumerate() {
                let cand: Vec<(u64, Option<ContentId>)> = match req.kind {
                    cagc_workloads::OpKind::Write => req
                        .lpns()
                        .enumerate()
                        .map(|(i, l)| (l, Some(req.contents[i])))
                        .collect(),
                    cagc_workloads::OpKind::Trim => req.lpns().map(|l| (l, None)).collect(),
                    cagc_workloads::OpKind::Read => Vec::new(),
                };
                match ssd.submit(req.view()) {
                    Ok(_) => {
                        for (lpn, v) in cand {
                            oracle.acked[lpn as usize] = v;
                        }
                    }
                    Err(FlashError::PowerLoss) => {
                        for (lpn, v) in cand {
                            oracle.pending[lpn as usize].push(v);
                        }
                        torn_at = Some(i);
                        break;
                    }
                    Err(e) => panic!("{scheme:?} crash_op {crash_op}: {e}"),
                }
            }
            let torn_at = torn_at.unwrap_or_else(|| {
                panic!("{scheme:?}: crash point {crash_op} inside span {span} never fired")
            });
            if scheme == Scheme::Cagc && k == 8 {
                assert!(
                    ssd.gc_stats().dedup_hits > 0,
                    "the last crash point must land after GC has absorbed duplicates"
                );
            }
            let rep = ssd.recover().unwrap_or_else(|e| {
                panic!("{scheme:?} crash_op {crash_op}: recovery failed: {e}")
            });
            assert!(rep.pages_scanned > 0);
            oracle
                .check(&ssd, &format!("{scheme:?} crash_op {crash_op}"))
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(ssd.ref_histogram(), recount_histogram(&ssd));
            ssd.audit().unwrap();

            // The crash point is consumed: the run finishes and converges.
            for req in &reqs[torn_at..] {
                ssd.process(req);
            }
            ssd.audit().unwrap();
            for lpn in 0..ssd.logical_pages() {
                assert_eq!(
                    ssd.stored_content(lpn),
                    twin.stored_content(lpn),
                    "{scheme:?} crash_op {crash_op}: lpn {lpn} diverged from the fault-free twin"
                );
            }
        }
    }
}
