//! Reproducibility: same seed ⇒ identical results, serial ⇒ parallel.

use cagc::prelude::*;

fn trace(seed: u64) -> Trace {
    let flash = UllConfig::tiny_for_tests();
    FiuWorkload::WebVm
        .synth_config((flash.logical_pages() as f64 * 0.9) as u64, 8_000, seed)
        .generate()
}

fn fingerprint_report(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.gc.blocks_erased,
        r.gc.pages_migrated,
        r.gc.dedup_hits,
        r.total_programs,
        r.all.count,
        r.all.max_ns,
        r.end_ns,
    )
}

#[test]
fn identical_seeds_give_bitwise_identical_runs() {
    for scheme in Scheme::EXTENDED {
        let a = run_cell(SsdConfig::tiny(scheme), &trace(42));
        let b = run_cell(SsdConfig::tiny(scheme), &trace(42));
        assert_eq!(fingerprint_report(&a), fingerprint_report(&b), "{}", scheme.name());
        assert_eq!(a.all.mean_ns.to_bits(), b.all.mean_ns.to_bits(), "{}", scheme.name());
        assert_eq!(a.cdf.points().len(), b.cdf.points().len());
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run_cell(SsdConfig::tiny(Scheme::Cagc), &trace(1));
    let b = run_cell(SsdConfig::tiny(Scheme::Cagc), &trace(2));
    assert_ne!(fingerprint_report(&a), fingerprint_report(&b));
}

#[test]
fn parallel_grid_equals_serial_grid() {
    let t = trace(7);
    let cells: Vec<(SsdConfig, &Trace)> =
        Scheme::EXTENDED.iter().map(|&s| (SsdConfig::tiny(s), &t)).collect();
    let serial = run_cells(&cells, 1);
    let parallel = run_cells(&cells, 8);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(fingerprint_report(a), fingerprint_report(b), "{}", a.scheme);
        assert_eq!(a.all.mean_ns.to_bits(), b.all.mean_ns.to_bits());
    }
}

#[test]
fn random_victim_policy_is_seed_deterministic() {
    let t = trace(11);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.victim = VictimKind::Random;
    let a = run_cell(cfg.clone(), &t);
    let b = run_cell(cfg, &t);
    assert_eq!(fingerprint_report(&a), fingerprint_report(&b));
}

#[test]
fn trace_generation_is_deterministic_across_workloads() {
    for w in FiuWorkload::ALL {
        let a = w.synth_config(4_096, 2_000, 3).generate();
        let b = w.synth_config(4_096, 2_000, 3).generate();
        assert_eq!(a, b, "{}", w.name());
    }
}
