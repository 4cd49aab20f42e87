//! Fault sweep: what does surviving NAND faults cost, and what does a
//! power loss actually lose?
//!
//! Two parts:
//!
//! 1. **Fault-rate sweep** — a Web-vm-like workload replayed under rising
//!    program/erase/read-ECC failure rates. Every fault is absorbed by FTL
//!    policy (program retry on a fresh block, bad-block retirement, ECC
//!    re-reads with a heroic-decode fallback), so the interesting output
//!    is the cost: retry programs, retired capacity, retry latency.
//! 2. **Crash + recovery demo** — the same workload torn by a power loss
//!    mid-run (inside GC churn), then brought back with [`Ssd::recover`]:
//!    the mapping and fingerprint refcounts are rebuilt from per-page OOB
//!    metadata and the mapping-delta journal, and the run continues.
//!
//! See docs/FAULTS.md for the fault model and the recovery pass.
//!
//! ```bash
//! cargo run --release --example fault_sweep            # full sweep
//! cargo run --release --example fault_sweep -- --smoke # CI-sized
//! cargo run --release --example fault_sweep -- --smoke --trace faults.trace.json
//! ```
//!
//! With `--trace <path>` the crash-and-recover run (part 2) records every
//! span and writes a Chrome trace-event JSON for Perfetto. The traced run
//! additionally injects the sweep's top program/ECC fault rate, so the
//! timeline shows retry instants and the recovery span alongside the
//! power-loss point — see docs/OBSERVABILITY.md for the taxonomy.

use cagc::metrics::Table;
use cagc::prelude::*;
use std::path::PathBuf;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let args: Vec<String> = std::env::args().collect();
    let trace_out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--trace needs a path")));
    let (flash, requests, rates): (UllConfig, usize, &[f64]) = if smoke {
        (UllConfig::tiny_for_tests(), 8_000, &[0.0, 5e-3])
    } else {
        (UllConfig::scaled_gb(1), 60_000, &[0.0, 1e-4, 1e-3, 5e-3, 2e-2])
    };
    let footprint = (flash.logical_pages() as f64 * 0.90) as u64;
    let trace = FiuWorkload::WebVm.synth_config(footprint, requests, 11).generate();

    println!("== Fault sensitivity: absorbing NAND faults, and what it costs ==\n");

    let mut t = Table::new(vec![
        "Fault rate", "Scheme", "Prog fails", "Erase fails", "ECC errs",
        "Retired", "Forced", "WAF", "Mean us", "P99 us",
    ]);
    for &rate in rates {
        let mut cells = Vec::new();
        for scheme in [Scheme::Baseline, Scheme::Cagc] {
            let mut cfg = SsdConfig::paper(flash, scheme);
            cfg.faults = FaultConfig {
                program_fail_prob: rate,
                erase_fail_prob: rate / 10.0,
                read_ecc_prob: rate,
                seed: 11,
                ..FaultConfig::none()
            };
            cells.push((cfg, &trace));
        }
        for r in run_cells(&cells, 0) {
            let f = &r.faults;
            t.row(vec![
                format!("{rate}"),
                r.scheme.clone(),
                f.program_failures.to_string(),
                f.erase_failures.to_string(),
                f.read_ecc_errors.to_string(),
                f.blocks_retired.to_string(),
                f.forced_programs.to_string(),
                format!("{:.3}", r.waf()),
                format!("{:.1}", r.all.mean_ns / 1_000.0),
                format!("{:.1}", r.all.p99_ns as f64 / 1_000.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "Fault handling is pay-as-you-go: the zero row matches a fault-free build\n\
         bit for bit; rising rates cost retries and retired blocks, never data.\n"
    );

    // --- Part 2: tear the device mid-run, recover, keep going. ---
    println!("== Power loss inside GC, then recovery ==\n");
    let mut cfg = SsdConfig::paper(flash, Scheme::Cagc);
    // Crash deep enough into the run that GC (and its dedup absorption)
    // has been churning for a while: a ~90%-full device runs well over ten
    // durable ops per request once migration traffic dominates.
    let crash_op = requests as u64 * 10;
    cfg.faults = FaultConfig { crash_at_op: Some(crash_op), seed: 11, ..FaultConfig::none() };
    if trace_out.is_some() {
        // The traced run also injects the sweep's top fault rate so the
        // timeline carries retry instants, not just the crash + recovery.
        let top = rates.last().copied().unwrap_or(0.0);
        cfg.faults.program_fail_prob = top;
        cfg.faults.read_ecc_prob = top;
    }
    let mut ssd = Ssd::new(cfg);
    if trace_out.is_some() {
        ssd.enable_tracing(TraceConfig::default());
    }

    let mut torn_at = None;
    for (i, req) in trace.requests.iter().enumerate() {
        match ssd.process_checked(req) {
            Ok(_) => {}
            Err(FlashError::PowerLoss) => {
                torn_at = Some(i);
                break;
            }
            Err(e) => panic!("unexpected flash error: {e}"),
        }
    }
    let torn_at = torn_at.expect("crash point inside the run");
    println!(
        "power lost during request {torn_at}/{} (durable op {crash_op}); \
         {} requests acknowledged",
        trace.requests.len(),
        ssd.acknowledged_requests()
    );

    let rep = ssd.recover().expect("recovery from durable state");
    println!(
        "recovered: {} OOB pages scanned, {} journal entries, {} mappings, \
         {} fingerprints, {} duplicate copies merged, in {:.2} ms simulated",
        rep.pages_scanned,
        rep.journal_entries,
        rep.mappings_recovered,
        rep.fingerprints_rebuilt,
        rep.duplicate_copies_merged,
        rep.recovery_ns as f64 / 1e6
    );

    for req in &trace.requests[torn_at..] {
        ssd.process(req);
    }
    ssd.audit().expect("post-recovery consistency");
    let report = ssd.report(&trace.name);
    println!("\nrun completed after recovery; final report:\n{}", report.render());

    if let Some(path) = &trace_out {
        std::fs::write(path, ssd.chrome_trace()).expect("write Chrome trace");
        let names: Vec<&str> = ssd.tracer().events().iter().map(|e| e.name).collect();
        println!(
            "\ntrace: {} events ({} dropped), retries {}, recovery spans {} -> {}",
            ssd.tracer().events().len(),
            ssd.tracer().dropped_events(),
            names.iter().filter(|n| n.ends_with("_retry")).count(),
            names.iter().filter(|n| **n == "recover").count(),
            path.display()
        );
    }
}
