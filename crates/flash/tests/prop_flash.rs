//! Property-based tests for the flash device model.

use cagc_flash::{FaultConfig, FlashDevice, FlashError, Geometry, PageOob, PageState, Timing, UllConfig};
use cagc_harness::prop::*;

fn small_geometry() -> Geometry {
    Geometry::new(1, 2, 1, 8, 8, 4096)
}

harness_proptest! {
    /// Address round-trip: ppn → (block, page) → ppn for arbitrary geometry.
    #[test]
    fn geometry_address_round_trip(
        ch in 1u32..4, dies in 1u32..4, planes in 1u32..3,
        blocks in 1u32..32, pages in 1u32..64,
    ) {
        let g = Geometry::new(ch, dies, planes, blocks, pages, 4096);
        // Sample a spread of ppns rather than all (could be large).
        let total = g.total_pages();
        let step = (total / 97).max(1);
        let mut ppn = 0;
        while ppn < total {
            let b = g.block_of(ppn);
            let p = g.page_of(ppn);
            prop_assert_eq!(g.ppn(b, p), ppn);
            prop_assert!(g.die_of_block(b) < g.total_dies());
            prop_assert!(g.channel_of(ppn) < g.channels);
            ppn += step;
        }
    }

    /// Under any interleaving of program/invalidate/erase, per-block page
    /// accounting always satisfies valid + invalid + free == pages, and the
    /// device never reaches an inconsistent state.
    #[test]
    fn block_accounting_invariant_holds(ops in vec(0u8..3, 1..400)) {
        let g = small_geometry();
        let mut d = FlashDevice::new(g, Timing::ull());
        let nblocks = g.total_blocks();
        let mut now = 0u64;
        let mut live: Vec<u64> = Vec::new(); // ppns currently valid

        for (i, &op) in ops.iter().enumerate() {
            now += 1_000;
            let blk = (i as u32 * 7) % nblocks;
            match op {
                0 => {
                    // program into blk if it has room
                    if d.block(blk).next_program_page().is_some() {
                        let (_, ppn) = d.program_next(blk, now, PageOob::gc(None)).unwrap();
                        live.push(ppn);
                    }
                }
                1 => {
                    // invalidate a random-ish live page
                    if !live.is_empty() {
                        let ppn = live.swap_remove(i % live.len());
                        d.invalidate(ppn, now);
                    }
                }
                _ => {
                    // erase blk if it has no valid pages
                    if d.block(blk).valid_count() == 0 && !d.block(blk).is_free() {
                        d.erase(blk, now).unwrap();
                    }
                }
            }
            // Invariants after every step.
            for b in 0..nblocks {
                let blk = d.block(b);
                prop_assert_eq!(
                    blk.valid_count() + blk.invalid_count() + blk.free_count(),
                    blk.pages()
                );
            }
        }
        // Every live ppn the model says is valid must read back as Valid.
        for &ppn in &live {
            prop_assert_eq!(d.page_state(ppn), PageState::Valid);
        }
    }

    /// Reservations on a die never travel back in time, regardless of the
    /// operation mix, and stats totals match issued operations.
    #[test]
    fn die_time_is_monotone_per_die(ops in vec((0u8..2, 0u32..16), 1..200)) {
        let g = small_geometry();
        let mut d = FlashDevice::new(g, Timing::ull());
        let mut per_die_last = vec![0u64; g.total_dies() as usize];
        let mut programs = 0u64;
        let mut reads = 0u64;
        let mut written: Vec<u64> = Vec::new();

        for &(kind, blksel) in &ops {
            let blk = blksel % g.total_blocks();
            let die = g.die_of_block(blk) as usize;
            match kind {
                0 if d.block(blk).next_program_page().is_some() => {
                    let (r, ppn) = d.program_next(blk, 0, PageOob::gc(None)).unwrap();
                    prop_assert!(r.start >= per_die_last[die] || r.start == per_die_last[die]);
                    prop_assert!(r.end > per_die_last[die]);
                    per_die_last[die] = r.end;
                    written.push(ppn);
                    programs += 1;
                }
                1 if !written.is_empty() => {
                    let ppn = written[blksel as usize % written.len()];
                    let die = g.die_of(ppn) as usize;
                    let r = d.read(ppn, 0).unwrap();
                    prop_assert!(r.end > per_die_last[die]);
                    per_die_last[die] = r.end;
                    reads += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(d.stats().programs, programs);
        prop_assert_eq!(d.stats().reads, reads);
    }

    /// Under an arbitrary probabilistic fault mix, the device keeps its
    /// story straight: every outcome is a success or a structured injected
    /// fault, failed erases retire their block exactly once, retired
    /// blocks reject all further work, and per-block page accounting
    /// still balances after every step.
    #[test]
    fn fault_injection_preserves_device_accounting(
        seed in 0u64..10_000,
        p_prog in 0.0f64..0.4,
        p_erase in 0.0f64..0.4,
        p_read in 0.0f64..0.4,
        ops in vec(0u8..3, 1..300),
    ) {
        let g = small_geometry();
        let faults = FaultConfig {
            program_fail_prob: p_prog,
            erase_fail_prob: p_erase,
            read_ecc_prob: p_read,
            seed,
            ..FaultConfig::none()
        };
        let mut d = FlashDevice::with_faults(g, Timing::ull(), faults);
        let nblocks = g.total_blocks();
        let mut live: Vec<u64> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let now = (i as u64 + 1) * 1_000;
            let blk = (i as u32 * 5) % nblocks;
            match op {
                0 if !d.is_retired(blk) && d.block(blk).next_program_page().is_some() => {
                    match d.program_next(blk, now, PageOob::gc(None)) {
                        Ok((_, ppn)) => live.push(ppn),
                        Err(FlashError::ProgramFailed { ppn, .. }) => {
                            prop_assert_eq!(d.page_state(ppn), PageState::Invalid);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("program: {e}"))),
                    }
                }
                1 if !live.is_empty() => {
                    let ppn = live[i % live.len()];
                    match d.read(ppn, now) {
                        Ok(_) => {}
                        Err(FlashError::ReadEcc { .. }) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
                    }
                }
                _ => {
                    if !d.is_retired(blk) && d.block(blk).valid_count() == 0
                        && !d.block(blk).is_free()
                    {
                        match d.erase(blk, now) {
                            Ok(_) => {}
                            Err(FlashError::EraseFailed { block, .. }) => {
                                prop_assert!(d.is_retired(block));
                                prop_assert_eq!(
                                    d.program_next(block, now, PageOob::gc(None)),
                                    Err(FlashError::Retired { block })
                                );
                            }
                            Err(e) => return Err(TestCaseError::fail(format!("erase: {e}"))),
                        }
                    }
                }
            }
            for b in 0..nblocks {
                let blk = d.block(b);
                prop_assert_eq!(
                    blk.valid_count() + blk.invalid_count() + blk.free_count(),
                    blk.pages()
                );
            }
        }
        let retired = (0..nblocks).filter(|&b| d.is_retired(b)).count() as u64;
        prop_assert_eq!(d.stats().blocks_retired, retired);
        prop_assert_eq!(d.stats().erase_failures, retired);
    }
}

#[test]
fn full_block_lifecycle_with_table1_timing() {
    let cfg = UllConfig::tiny_for_tests();
    let mut d = FlashDevice::new(cfg.geometry(), cfg.timing());
    let ppb = cfg.pages_per_block;

    // Fill block 0 completely.
    let mut now = 0;
    let mut ppns = Vec::new();
    for _ in 0..ppb {
        let (r, ppn) = d.program_next(0, now, PageOob::host(0, None)).unwrap();
        now = r.end;
        ppns.push(ppn);
    }
    assert!(d.block(0).is_full());
    // Sequential programs on one die: exactly ppb * 16us of busy time.
    assert_eq!(now, ppb as u64 * 16_000);

    // Invalidate all, erase, and confirm wear.
    for ppn in ppns {
        d.invalidate(ppn, now);
    }
    let e = d.erase(0, now).unwrap();
    assert_eq!(e.end - e.start, 1_500_000);
    assert_eq!(d.block(0).erase_count(), 1);
    assert_eq!(d.stats().erases, 1);
}

harness_proptest! {
    /// Every reservation the device returns matches a plain model of
    /// per-die and per-channel `busy_until`, with and without a modelled
    /// bus transfer: a read holds its die for tR and then its channel, a
    /// program holds its channel and then its die for tPROG, an erase
    /// holds only its die. Per-die busy totals count cell time only.
    #[test]
    fn reservations_follow_a_per_die_and_channel_model(
        xfer_us in 0u64..2,
        ops in vec((0u8..3, 0u32..16, 0u64..30), 1..300),
    ) {
        // 2 channels × 2 dies × 1 plane × 4 blocks × 4 pages.
        let g = Geometry::new(2, 2, 1, 4, 4, 4096);
        let t = Timing { bus_xfer_ns: xfer_us * 2_000, ..Timing::ull() };
        let mut d = FlashDevice::new(g, t);
        let mut die_busy = vec![0u64; g.total_dies() as usize];
        let mut die_total = vec![0u64; g.total_dies() as usize];
        let mut chan_busy = vec![0u64; g.channels as usize];
        let mut written: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for &(kind, sel, step_us) in &ops {
            now += step_us * 1_000;
            let blk = sel % g.total_blocks();
            let die = g.die_of_block(blk) as usize;
            let chan = die / g.dies_per_channel as usize;
            let (got, want) = match kind {
                0 if d.block(blk).next_program_page().is_some() => {
                    let (r, ppn) = d.program_next(blk, now, PageOob::gc(None)).unwrap();
                    written.push(ppn);
                    let bus_start = now.max(chan_busy[chan]);
                    chan_busy[chan] = bus_start + t.bus_xfer_ns;
                    let cell_start = chan_busy[chan].max(die_busy[die]);
                    die_busy[die] = cell_start + t.program_ns;
                    die_total[die] += t.program_ns;
                    let start = if t.bus_xfer_ns > 0 { bus_start } else { cell_start };
                    (r, (start, die_busy[die]))
                }
                1 if !written.is_empty() => {
                    let ppn = written[sel as usize % written.len()];
                    let die = g.die_of(ppn) as usize;
                    let chan = g.channel_of(ppn) as usize;
                    let r = d.read(ppn, now).unwrap();
                    let cell_start = now.max(die_busy[die]);
                    die_busy[die] = cell_start + t.read_ns;
                    die_total[die] += t.read_ns;
                    let end = if t.bus_xfer_ns > 0 {
                        chan_busy[chan] = die_busy[die].max(chan_busy[chan]) + t.bus_xfer_ns;
                        chan_busy[chan]
                    } else {
                        die_busy[die]
                    };
                    (r, (cell_start, end))
                }
                2 if !d.block(blk).is_free() => {
                    written.retain(|&p| {
                        let here = g.block_of(p) == blk;
                        if here {
                            d.invalidate(p, now);
                        }
                        !here
                    });
                    let r = d.erase(blk, now).unwrap();
                    let start = now.max(die_busy[die]);
                    die_busy[die] = start + t.erase_ns;
                    die_total[die] += t.erase_ns;
                    (r, (start, die_busy[die]))
                }
                _ => continue,
            };
            prop_assert_eq!((got.start, got.end, got.queued), (want.0, want.1, want.0 - now));
        }
        prop_assert_eq!(d.die_busy_totals(), die_total);
    }
}
