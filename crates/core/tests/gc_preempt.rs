//! Behavioral tests for preemptible (sliced) GC scheduling.

use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_dedup::ContentId;
use cagc_harness::ToJson;
use cagc_sim::SimRng;
use cagc_workloads::{Request, SynthConfig, Trace};

fn churn_trace(seed: u64, requests: usize) -> Trace {
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    SynthConfig {
        name: "churn".into(),
        requests,
        logical_pages: (flash.logical_pages() as f64 * 0.93) as u64,
        write_ratio: 0.8,
        dedup_ratio: 0.4,
        mean_req_pages: 2.5,
        max_req_pages: 8,
        mean_interarrival_ns: 200_000,
        seed,
        ..Default::default()
    }
    .generate()
}

fn run(cfg: SsdConfig, trace: &Trace) -> cagc_core::RunReport {
    let mut ssd = Ssd::new(cfg);
    let report = ssd.replay(trace);
    ssd.audit().expect("audit after preemptible GC");
    report
}

/// The knob default (off) must leave the synchronous path bit-for-bit
/// untouched — the whole report, not just a few counters.
#[test]
fn preempt_off_is_byte_identical_to_before() {
    let trace = churn_trace(5, 9_000);
    for scheme in Scheme::EXTENDED {
        let base = run(SsdConfig::tiny(scheme), &trace);
        let mut cfg = SsdConfig::tiny(scheme);
        cfg.gc_preempt = false; // explicit, same as default
        let again = run(cfg, &trace);
        assert_eq!(
            base.to_json().render(),
            again.to_json().render(),
            "{} diverged with preempt knob present",
            scheme.name()
        );
    }
}

/// Sliced GC still reclaims space, keeps every cross-structure invariant,
/// and conserves data: same pages written, nothing lost.
#[test]
fn preempt_on_stays_consistent_across_schemes() {
    let trace = churn_trace(9, 9_000);
    for scheme in Scheme::EXTENDED {
        let off = run(SsdConfig::tiny(scheme), &trace);
        let mut cfg = SsdConfig::tiny(scheme);
        cfg.gc_preempt = true;
        let on = run(cfg, &trace);
        assert!(off.gc.blocks_erased > 0, "{}: GC never ran", scheme.name());
        assert!(on.gc.blocks_erased > 0, "{}: sliced GC never ran", scheme.name());
        assert_eq!(on.host_pages_written, off.host_pages_written, "{}", scheme.name());
        // Conservation holds under slicing too.
        assert_eq!(
            on.total_programs,
            on.user_programs + on.gc.pages_migrated,
            "{}: program accounting under slicing",
            scheme.name()
        );
    }
}

/// Slicing spreads migration over many short quanta instead of a few long
/// rounds: the worst single foreground write stall shrinks.
#[test]
fn preempt_shortens_worst_case_write_stall() {
    let trace = churn_trace(13, 12_000);
    let off = run(SsdConfig::tiny(Scheme::Cagc), &trace);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    let on = run(cfg, &trace);
    assert!(
        on.writes.max_ns < off.writes.max_ns,
        "sliced max write {} !< run-to-completion max write {}",
        on.writes.max_ns,
        off.writes.max_ns
    );
}

#[test]
fn preempt_is_deterministic() {
    let trace = churn_trace(17, 8_000);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    let a = run(cfg.clone(), &trace);
    let b = run(cfg, &trace);
    assert_eq!(a.to_json().render(), b.to_json().render());
}

/// `gc_pump` drains reclaimable space in the background: after pumping on
/// an idle clock, a device sitting below the high watermark climbs back
/// above its low watermark without any foreground write paying for it.
#[test]
fn gc_pump_reclaims_in_idle_windows() {
    let trace = churn_trace(21, 9_000);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    let mut ssd = Ssd::new(cfg);
    ssd.replay(&trace);
    let before = ssd.gc_stats().blocks_erased;
    let mut t = ssd.last_completion();
    let mut pumps = 0u32;
    while let Some(end) = ssd.gc_pump(t) {
        t = end;
        pumps += 1;
        assert!(pumps < 10_000, "pump never converged");
    }
    assert!(pumps > 0, "no pump work despite churned device");
    assert!(ssd.gc_stats().blocks_erased > before);
    ssd.audit().expect("audit after pumping");
    // Converged: free space reached the high watermark, so the pump has
    // nothing left to do.
    assert!(ssd.gc_pump(t).is_none());
}

/// Back-to-back writes of a whole block each outrun one 8-page slice per
/// write: free space falls below the urgent floor and the catch-up leg runs
/// whole victims. Every acknowledged write's content survives it.
#[test]
fn write_bursts_outrunning_slices_escalate_to_catch_up() {
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    let pages_per_burst = cfg.flash.pages_per_block;
    let span = cfg.flash.logical_pages() * 9 / 10 - u64::from(pages_per_burst);
    let mut ssd = Ssd::new(cfg);
    ssd.enable_tracing(TraceConfig::default());
    let mut rng = SimRng::seed_from_u64(3);
    let mut want = vec![None; ssd.logical_pages() as usize];
    let (mut t, mut next) = (0, 0u64);
    for _ in 0..2_000 {
        let lpn = rng.gen_range_u64(0..span);
        let contents: Vec<ContentId> = (0..pages_per_burst)
            .map(|i| ContentId(next + u64::from(i) % 4)) // some duplicates
            .collect();
        next += u64::from(pages_per_burst);
        t = ssd.submit(Request::write(t, lpn, contents.clone()).view()).unwrap().end_ns;
        for (i, c) in contents.into_iter().enumerate() {
            want[lpn as usize + i] = Some(c);
        }
    }
    let urgent = ssd.tracer().events().iter().filter(|e| e.name() == "gc_urgent").count();
    assert!(urgent > 0, "the catch-up leg never ran");
    ssd.audit().expect("audit after catch-up");
    for (lpn, &c) in want.iter().enumerate() {
        assert_eq!(ssd.stored_content(lpn as u64), c, "lpn {lpn}");
    }
}
