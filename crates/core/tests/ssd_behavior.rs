//! Behavioral tests of the three schemes on the full SSD simulator.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_dedup::ContentId;
use cagc_flash::UllConfig;
use cagc_ftl::VictimKind;
use cagc_harness::prop::{harness_proptest, prop_assert, prop_assert_eq};
use cagc_sim::time::us;
use cagc_workloads::{FileWorkloadBuilder, FiuWorkload, OpKind, Request, SynthConfig, Trace};

fn ssd(scheme: Scheme) -> Ssd {
    Ssd::new(SsdConfig::tiny(scheme))
}

// ---------------------------------------------------------------- timing

#[test]
fn baseline_write_takes_one_program() {
    let mut s = ssd(Scheme::Baseline);
    let done = s.process(&Request::write(0, 0, vec![ContentId(1)]));
    assert_eq!(done, us(16)); // Table I program latency, idle device
}

#[test]
fn baseline_read_after_write_takes_one_read() {
    let mut s = ssd(Scheme::Baseline);
    let w = s.process(&Request::write(0, 0, vec![ContentId(1)]));
    let r = s.process(&Request::read(w, 0, 1));
    assert_eq!(r - w, us(12)); // Table I read latency
}

#[test]
fn read_of_unwritten_lpn_is_a_controller_miss() {
    let mut s = ssd(Scheme::Baseline);
    let done = s.process(&Request::read(0, 42, 1));
    assert_eq!(done, SsdConfig::READ_MISS_NS); // no flash op
    assert_eq!(s.device().stats().reads, 0);
}

#[test]
fn inline_unique_write_pays_hash_on_critical_path() {
    let mut s = ssd(Scheme::InlineDedup);
    let done = s.process(&Request::write(0, 0, vec![ContentId(1)]));
    // hash 14us + lookup 1us + program 16us, fully serialized.
    assert_eq!(done, us(31));
}

#[test]
fn inline_duplicate_write_skips_the_program() {
    let mut s = ssd(Scheme::InlineDedup);
    s.process(&Request::write(0, 0, vec![ContentId(9)]));
    let t1 = us(100);
    let done = s.process(&Request::write(t1, 1, vec![ContentId(9)]));
    // hash + lookup only: metadata update, no flash write.
    assert_eq!(done - t1, us(15));
    assert_eq!(s.device().stats().programs, 1);
    s.audit().unwrap();
}

#[test]
fn cagc_foreground_write_is_as_fast_as_baseline() {
    // The headline claim: CAGC removes dedup from the critical path.
    let mut b = ssd(Scheme::Baseline);
    let mut c = ssd(Scheme::Cagc);
    let req = Request::write(0, 0, vec![ContentId(1), ContentId(2), ContentId(3)]);
    assert_eq!(b.process(&req), c.process(&req));
}

#[test]
fn inline_overwrite_with_same_content_is_metadata_only() {
    let mut s = ssd(Scheme::InlineDedup);
    s.process(&Request::write(0, 5, vec![ContentId(3)]));
    let before = s.device().stats().programs;
    s.process(&Request::write(us(50), 5, vec![ContentId(3)]));
    assert_eq!(s.device().stats().programs, before);
    s.audit().unwrap();
}

// ------------------------------------------------------- dedup semantics

#[test]
fn inline_refcounts_follow_sharers() {
    let mut s = ssd(Scheme::InlineDedup);
    // Three LPNs share one content.
    for (i, lpn) in [0u64, 1, 2].iter().enumerate() {
        s.process(&Request::write(us(i as u64 * 50), *lpn, vec![ContentId(7)]));
    }
    s.audit().unwrap();
    assert_eq!(s.device().stats().programs, 1, "one physical copy");
    // Overwrite two of them: copy survives.
    s.process(&Request::write(us(500), 0, vec![ContentId(8)]));
    s.process(&Request::write(us(550), 1, vec![ContentId(9)]));
    s.audit().unwrap();
    // Overwrite the last: the shared page finally dies.
    s.process(&Request::write(us(600), 2, vec![ContentId(10)]));
    s.audit().unwrap();
    let report = s.report("t");
    // The shared page peaked at refcount 3: Fig. 6 bucket "3".
    assert_eq!(report.invalidation_by_refcount[2], 1);
}

#[test]
fn trim_releases_references() {
    let mut s = ssd(Scheme::InlineDedup);
    s.process(&Request::write(0, 0, vec![ContentId(1)]));
    s.process(&Request::write(us(20), 1, vec![ContentId(1)]));
    s.process(&Request::trim(us(100), 0, 2));
    s.audit().unwrap();
    let r = s.report("t");
    assert_eq!(r.trims, 1);
    // Both references released: the page became invalid at peak refcount 2.
    assert_eq!(r.invalidation_by_refcount[1], 1);
    // Reading the trimmed LPNs now misses.
    let done = s.process(&Request::read(us(200), 0, 1));
    assert_eq!(done, us(201));
}

#[test]
fn trim_latency_is_an_explicit_metadata_cost() {
    // Satellite bugfix: a trim's latency used to vanish into an empty
    // match arm. It must be recorded, and equal the configured flat
    // controller charge (no die work).
    let mut s = ssd(Scheme::Baseline);
    s.process(&Request::write(0, 0, vec![ContentId(1)]));
    let t = us(100);
    let done = s.process(&Request::trim(t, 0, 1));
    assert_eq!(done - t, SsdConfig::TRIM_NS);
    let r = s.report("t");
    assert_eq!(r.trim_lat.count, 1, "trim latency must land in its histogram");
    assert_eq!(r.trim_lat.max_ns, SsdConfig::TRIM_NS);
    assert_eq!(r.trim_invalidated_pages, 1);
    assert!(r.honor_trim);
    // Metadata-only: the flash op counters saw nothing new.
    assert_eq!(s.device().stats().reads, 0);
    assert_eq!(s.device().stats().programs, 1);
    s.audit().unwrap();
}

#[test]
fn ignored_trims_are_charged_but_keep_data_live() {
    let mut cfg = SsdConfig::tiny(Scheme::Baseline);
    cfg.honor_trim = false;
    let mut s = Ssd::new(cfg);
    s.process(&Request::write(0, 0, vec![ContentId(5)]));
    let t = us(100);
    let done = s.process(&Request::trim(t, 0, 1));
    assert_eq!(done - t, SsdConfig::TRIM_NS, "trim still pays its service cost");
    assert_eq!(s.stored_content(0), Some(ContentId(5)), "data stays live");
    let r = s.report("t");
    assert_eq!(r.trims, 1);
    assert_eq!(r.trim_invalidated_pages, 0);
    assert!(!r.honor_trim);
    s.audit().unwrap();
}

#[test]
fn trim_of_shared_page_drops_a_reference_with_attribution() {
    let mut s = ssd(Scheme::InlineDedup);
    s.process(&Request::write(0, 0, vec![ContentId(1)]));
    s.process(&Request::write(us(20), 1, vec![ContentId(1)]));
    s.process(&Request::trim(us(100), 0, 1));
    s.audit().unwrap();
    let r = s.report("t");
    assert_eq!(r.trim_ref_releases, 1);
    assert_eq!(r.trim_invalidated_pages, 0, "shared copy must stay valid");
    assert_eq!(s.stored_content(1), Some(ContentId(1)));
    // The second trim removes the last reference and kills the copy.
    s.process(&Request::trim(us(200), 1, 1));
    s.audit().unwrap();
    let r = s.report("t");
    assert_eq!(r.trim_ref_releases, 2);
    assert_eq!(r.trim_invalidated_pages, 1);
}

#[test]
fn fig8_scenario_cagc_stores_7_unique_pages_after_gc() {
    // Fig. 8: four files (12 chunk writes, 7 unique contents), delete
    // files 2 and 4. Under CAGC the GC pass dedups the migrated pages.
    let trace = FileWorkloadBuilder::fig8_scenario(64);
    let mut s = ssd(Scheme::Cagc);
    for r in &trace.requests {
        s.process(r);
    }
    s.audit().unwrap();
    // Before any GC, CAGC wrote all 12 pages (no inline dedup).
    assert_eq!(s.device().stats().programs, 12);
}

// ------------------------------------------------------------ GC behavior

/// A write-heavy, duplicate-heavy workload against the tiny device,
/// dimensioned so GC runs many times.
fn churn_trace(dedup_ratio: f64, requests: usize, seed: u64) -> Trace {
    let cfg = SsdConfig::tiny(Scheme::Baseline);
    let footprint = (cfg.flash.logical_pages() as f64 * 0.55) as u64;
    SynthConfig {
        name: format!("churn{dedup_ratio}"),
        requests,
        logical_pages: footprint,
        write_ratio: 0.8,
        dedup_ratio,
        mean_req_pages: 3.0,
        max_req_pages: 16,
        lpn_theta: 0.9,
        content_theta: 0.85,
        trim_ratio: 0.02,
        mean_interarrival_ns: 400_000,
        burst_mean: 4.0,
        burst_gap_ns: 10_000,
        prefill_gap_ns_per_page: 35_000,
        prefill_fraction: 0.95,
        seed,
    }
    .generate()
}

#[test]
fn gc_triggers_and_reclaims_space_for_every_scheme() {
    for scheme in Scheme::ALL {
        let trace = churn_trace(0.5, 12_000, 11);
        let mut s = ssd(scheme);
        let report = s.replay(&trace);
        assert!(report.gc.invocations > 0, "{}: GC never ran", report.scheme);
        assert!(report.gc.blocks_erased > 0, "{}: nothing erased", report.scheme);
        s.audit()
            .unwrap_or_else(|e| panic!("{}: audit failed: {e}", report.scheme));
    }
}

/// The GC trigger is a function of the flash config, not a copy taken by
/// `SsdConfig::paper`: a watermark set afterwards moves it exactly as one
/// passed to `paper` does.
#[test]
fn a_watermark_set_after_paper_moves_the_gc_trigger() {
    use cagc_harness::ToJson;
    let trace = churn_trace(0.5, 4_000, 11);
    let replay = |cfg: SsdConfig| Ssd::new(cfg).replay(&trace).to_json().render();
    let mut flash = UllConfig::tiny_for_tests();
    flash.gc_watermark = 0.4;
    let at_0_4 = replay(SsdConfig::paper(flash, Scheme::Baseline));
    let mut late = SsdConfig::tiny(Scheme::Baseline);
    late.flash.gc_watermark = 0.4;
    assert_eq!(replay(late), at_0_4);
    assert_ne!(replay(SsdConfig::tiny(Scheme::Baseline)), at_0_4, "the watermark must matter");
}

#[test]
fn cagc_finds_duplicates_during_gc() {
    let trace = churn_trace(0.7, 12_000, 3);
    let report = ssd(Scheme::Cagc).replay(&trace);
    assert!(report.gc.dedup_hits > 0, "no GC dedup hits on a 70% duplicate stream");
    assert!(report.index.inserts > 0, "index never populated");
}

#[test]
fn cagc_erases_fewer_blocks_than_baseline_on_redundant_data() {
    // The Fig. 9 shape at test scale.
    let trace = churn_trace(0.85, 12_000, 5);
    let base = ssd(Scheme::Baseline).replay(&trace);
    let cagc = ssd(Scheme::Cagc).replay(&trace);
    assert!(
        cagc.gc.blocks_erased < base.gc.blocks_erased,
        "CAGC {} erases vs baseline {}",
        cagc.gc.blocks_erased,
        base.gc.blocks_erased
    );
    assert!(
        cagc.gc.pages_migrated < base.gc.pages_migrated,
        "CAGC {} migrations vs baseline {}",
        cagc.gc.pages_migrated,
        base.gc.pages_migrated
    );
}

#[test]
fn inline_dedup_is_slower_than_baseline_on_a_fresh_device() {
    // The Fig. 2 motivation shape at test scale: on a device that never
    // triggers GC, the per-page fingerprint latency sits on the critical
    // path and inline dedup can only lose. (In a GC-heavy regime inline's
    // write-traffic reduction can compensate — that trade-off is exactly
    // what Figs. 2 vs 11 contrast.)
    let cfg = SsdConfig::tiny(Scheme::Baseline);
    let footprint = (cfg.flash.logical_pages() as f64 * 0.15) as u64;
    let trace = SynthConfig {
        name: "fig2".into(),
        requests: 800,
        logical_pages: footprint,
        write_ratio: 0.8,
        dedup_ratio: 0.3,
        mean_req_pages: 3.0,
        max_req_pages: 16,
        prefill_fraction: 0.5,
        mean_interarrival_ns: 400_000,
        seed: 7,
        ..Default::default()
    }
    .generate();
    let base = ssd(Scheme::Baseline).replay(&trace);
    let inline = ssd(Scheme::InlineDedup).replay(&trace);
    assert_eq!(base.gc.invocations, 0, "fig2 regime must be GC-free");
    assert_eq!(inline.gc.invocations, 0, "fig2 regime must be GC-free");
    assert!(
        inline.writes.mean_ns > base.writes.mean_ns * 1.1,
        "inline writes {}ns vs baseline {}ns",
        inline.writes.mean_ns,
        base.writes.mean_ns
    );
}

#[test]
fn cagc_write_amplification_below_baseline() {
    let trace = churn_trace(0.85, 12_000, 9);
    let base = ssd(Scheme::Baseline).replay(&trace);
    let cagc = ssd(Scheme::Cagc).replay(&trace);
    assert!(cagc.waf() < base.waf(), "CAGC WAF {} vs baseline {}", cagc.waf(), base.waf());
}

#[test]
fn most_invalidations_come_from_refcount_1_pages() {
    // The Fig. 6 claim, measured on a Mail-like stream.
    let cfg = SsdConfig::tiny(Scheme::Cagc);
    let footprint = (cfg.flash.logical_pages() as f64 * 0.55) as u64;
    let trace = FiuWorkload::Mail.synth_config(footprint, 12_000, 13).generate();
    let report = ssd(Scheme::Cagc).replay(&trace);
    let b = report.invalidation_by_refcount;
    let total: u64 = b.iter().sum();
    assert!(total > 0);
    let ref1 = b[0] as f64 / total as f64;
    assert!(ref1 > 0.6, "only {:.0}% of invalidations from refcount-1 pages", ref1 * 100.0);
}

#[test]
fn cagc_populates_cold_region_with_shared_pages() {
    let trace = churn_trace(0.85, 12_000, 21);
    let mut s = ssd(Scheme::Cagc);
    let report = s.replay(&trace);
    assert!(report.gc.promotions > 0, "no pages were ever promoted to the cold region");
}

#[test]
fn replay_rejects_oversized_traces() {
    // The check is per command (`Ssd::submit`): refused is the first one
    // that reaches past the device, here by its second page.
    let last = ssd(Scheme::Baseline).logical_pages() - 1;
    let straddling = Request::write(0, last, vec![ContentId(1), ContentId(2)]);
    let trace = Trace::new("big", 1 << 40, vec![Request::read(0, last, 1), straddling]);
    let result = std::panic::catch_unwind(move || {
        let mut s = ssd(Scheme::Baseline);
        s.replay(&trace);
    });
    let msg = *result.expect_err("oversized trace accepted").downcast::<String>().unwrap();
    assert!(msg.contains("device exports"), "{msg}");
}

#[test]
fn submit_rejects_an_extent_that_wraps_u64() {
    let wrapping = Request::read(0, u64::MAX, 1);
    let result = std::panic::catch_unwind(move || {
        let _ = ssd(Scheme::Baseline).submit(wrapping.view());
    });
    let msg = *result.expect_err("wrapping extent accepted").downcast::<String>().unwrap();
    assert!(msg.contains("device exports"), "{msg}");
}

#[test]
fn reports_are_internally_consistent() {
    let trace = churn_trace(0.5, 8_000, 17);
    for scheme in Scheme::ALL {
        let report = ssd(scheme).replay(&trace);
        let req_count = trace
            .requests
            .iter()
            .filter(|r| r.kind != OpKind::Trim)
            .count() as u64;
        assert_eq!(report.all.count, trace.len() as u64);
        assert_eq!(report.reads.count + report.writes.count, req_count);
        assert_eq!(report.total_erases, report.gc.blocks_erased);
        assert!(report.total_programs >= report.user_programs);
        assert_eq!(
            report.total_programs - report.user_programs,
            report.gc.pages_migrated,
            "{}: all non-user programs must be migrations",
            report.scheme
        );
        assert!(report.end_ns > 0);
    }
}

// --------------------------------------------- Inline-Sampled (CAFTL-like)

#[test]
fn sampled_first_sighting_skips_the_full_hash() {
    let mut s = ssd(Scheme::InlineSampled);
    let done = s.process(&Request::write(0, 0, vec![ContentId(1)]));
    // prehash 2us + program 16us: no 14us fingerprint on first sighting.
    assert_eq!(done, us(18));
    s.audit().unwrap();
}

#[test]
fn sampled_second_copy_pays_the_full_hash_but_third_dedups() {
    let mut s = ssd(Scheme::InlineSampled);
    // First copy: stored unfingerprinted.
    s.process(&Request::write(0, 0, vec![ContentId(7)]));
    // Second copy: prehash hit -> full hash -> index miss -> stored AND
    // fingerprinted (CAFTL's deferred-fingerprint behaviour).
    let t1 = us(1_000);
    let d2 = s.process(&Request::write(t1, 1, vec![ContentId(7)]));
    assert_eq!(d2 - t1, us(2 + 14 + 1 + 16)); // prehash+hash+lookup+program
    assert_eq!(s.device().stats().programs, 2, "second copy still programs");
    // Third copy: prehash hit -> full hash -> index HIT -> metadata only.
    let t2 = us(2_000);
    let d3 = s.process(&Request::write(t2, 2, vec![ContentId(7)]));
    assert_eq!(d3 - t2, us(2 + 14 + 1));
    assert_eq!(s.device().stats().programs, 2, "third copy deduplicates");
    s.audit().unwrap();
}

#[test]
fn sampled_is_faster_than_inline_on_unique_data() {
    // A mostly-unique stream: sampled skips nearly all fingerprints.
    let cfg = SsdConfig::tiny(Scheme::Baseline);
    let footprint = (cfg.flash.logical_pages() as f64 * 0.15) as u64;
    let trace = SynthConfig {
        name: "unique".into(),
        requests: 800,
        logical_pages: footprint,
        write_ratio: 0.9,
        dedup_ratio: 0.1,
        mean_req_pages: 3.0,
        prefill_fraction: 0.3,
        mean_interarrival_ns: 400_000,
        seed: 3,
        ..Default::default()
    }
    .generate();
    let inline = ssd(Scheme::InlineDedup).replay(&trace);
    let sampled = ssd(Scheme::InlineSampled).replay(&trace);
    assert!(
        sampled.writes.mean_ns < inline.writes.mean_ns,
        "sampled {:.0}ns vs inline {:.0}ns",
        sampled.writes.mean_ns,
        inline.writes.mean_ns
    );
}

#[test]
fn sampled_trades_some_dedup_coverage_for_latency() {
    let trace = churn_trace(0.8, 10_000, 41);
    let inline = ssd(Scheme::InlineDedup).replay(&trace);
    let sampled = ssd(Scheme::InlineSampled).replay(&trace);
    // Sampled still deduplicates (3rd+ copies)...
    assert!(sampled.index.hits > 0, "sampled found no duplicates at all");
    // ...but writes at least as many unique pages as full inline dedup
    // (it stores first copies of duplicated content twice).
    assert!(
        sampled.user_programs >= inline.user_programs,
        "sampled programs {} < inline {}",
        sampled.user_programs,
        inline.user_programs
    );
    s_audit(trace);
}

fn s_audit(trace: Trace) {
    let mut s = ssd(Scheme::InlineSampled);
    s.replay(&trace);
    s.audit().unwrap();
}

// ------------------------------------------------- metamorphic relations

harness_proptest! {
    #![config(cases = 3)]
    /// CAGC differs from Baseline only through repeated content. On a trace
    /// in which no content repeats (reads, trims and multi-page writes),
    /// every scheme does the same flash work: programs, erases, pages
    /// migrated, blocks erased and each block's erase count. Latencies may
    /// differ, so only the victim policies that never read a block's
    /// modification time are held to it (DESIGN.md, "Metamorphic relations").
    #[test]
    fn unique_content_makes_every_scheme_do_the_same_flash_work(
        seed in 0u64..0x1_0000_0000,
        trim_permille in 5u64..100,
    ) {
        let flash = UllConfig::tiny_for_tests();
        let trace = SynthConfig {
            requests: 4_000,
            logical_pages: (flash.logical_pages() as f64 * 0.9) as u64,
            dedup_ratio: 0.0,
            trim_ratio: trim_permille as f64 / 1000.0,
            seed,
            ..SynthConfig::default()
        }
        .generate();
        for victim in [VictimKind::Greedy, VictimKind::Random, VictimKind::DChoices] {
            let work = |scheme| {
                let mut ssd = Ssd::new(SsdConfig { victim, ..SsdConfig::tiny(scheme) });
                let report = ssd.replay(&trace);
                let device = ssd.device();
                let erases: Vec<u32> =
                    (0..device.block_count()).map(|b| device.block(b).erase_count()).collect();
                let stats = device.stats();
                (stats.programs, stats.erases, report.gc.pages_migrated, report.gc.blocks_erased, erases)
            };
            let baseline = work(Scheme::Baseline);
            prop_assert!(baseline.3 > 0, "{victim:?}: the trace never ran GC");
            for scheme in Scheme::EXTENDED {
                prop_assert_eq!(work(scheme), baseline, "{:?} under {:?}", scheme, victim);
            }
        }
    }
}
