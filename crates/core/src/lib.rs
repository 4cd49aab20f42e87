//! # cagc-core — the CAGC scheme and its comparators
//!
//! The paper's contribution, assembled from the substrate crates: a full
//! SSD simulator ([`Ssd`]) that replays content-carrying traces under one
//! of three FTL schemes ([`Scheme`]):
//!
//! * **Baseline** — no deduplication; GC blindly migrates valid pages.
//! * **Inline-Dedupe** — CAFTL-style dedup on the foreground write path;
//!   the 14 µs fingerprint latency (Table I) sits in front of every 16 µs
//!   page program, which is why it hurts ultra-low-latency flash (Fig. 2).
//! * **CAGC** — the Content-Aware Garbage Collection scheme: dedup embedded
//!   in GC migration, hash computation overlapped with page movement and
//!   block erase on a dedicated engine, and reference-count-based hot/cold
//!   page placement (Secs. III-B, III-C).
//!
//! ```
//! use cagc_core::{Scheme, Ssd, SsdConfig};
//! use cagc_workloads::FiuWorkload;
//!
//! let trace = FiuWorkload::Mail.synth_config(4_000, 2_000, 7).generate();
//! let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
//! let report = ssd.replay(&trace);
//! assert!(report.gc.dedup_hits > 0); // GC found redundant pages
//! ssd.audit().unwrap(); // full cross-structure consistency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod gc;
pub mod recovery;
pub mod report;
pub mod ssd;

pub use config::{GcThresholds, Scheme, SsdConfig};
pub use recovery::RecoveryReport;
pub use report::{FaultReport, HealthLog, LatencySummary, RunReport, TrafficTotals};
pub use ssd::{CmdStatus, Completion, Ssd};

// Tracing entry points, re-exported so callers enabling tracing on an
// [`Ssd`] don't need a direct cagc-trace dependency.
pub use cagc_trace::{TelemetryReport, TraceConfig, Tracer};

use cagc_workloads::Trace;

/// Run one experiment cell: build an SSD per the config and replay the
/// trace. Each simulation is single-threaded and deterministic.
pub fn run_cell(config: SsdConfig, trace: &Trace) -> RunReport {
    Ssd::new(config).replay(trace)
}

/// Run every `(config, trace)` cell of an experiment grid on the
/// [`cagc_harness::pool`] scoped worker pool, using up to `workers` OS
/// threads (0 ⇒ the machine's available parallelism). Results come back
/// in input order, so the worker count never changes them. Host-interface
/// cells (`cagc-host`) call [`cagc_harness::pool::map_ordered`] directly.
pub fn run_cells(cells: &[(SsdConfig, &Trace)], workers: usize) -> Vec<RunReport> {
    cagc_harness::pool::map_ordered(cells, workers, |(config, trace)| {
        run_cell(config.clone(), trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagc_workloads::SynthConfig;

    fn tiny_trace(seed: u64) -> Trace {
        SynthConfig {
            requests: 300,
            logical_pages: 2_000,
            seed,
            prefill_fraction: 0.5,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_cells(&[], 4).is_empty());
    }

    #[test]
    fn parallel_equals_serial() {
        let trace = tiny_trace(1);
        let cells: Vec<(SsdConfig, &Trace)> = Scheme::ALL
            .iter()
            .map(|&s| (SsdConfig::tiny(s), &trace))
            .collect();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            // Full determinism: identical counters and latency stats.
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.gc, b.gc);
            assert_eq!(a.total_programs, b.total_programs);
            assert_eq!(a.all.count, b.all.count);
            assert_eq!(a.all.max_ns, b.all.max_ns);
            assert!((a.all.mean_ns - b.all.mean_ns).abs() < 1e-9);
        }
    }

    #[test]
    fn results_preserve_input_order() {
        let t1 = tiny_trace(1);
        let t2 = tiny_trace(2);
        let cells = vec![
            (SsdConfig::tiny(Scheme::Baseline), &t1),
            (SsdConfig::tiny(Scheme::Cagc), &t2),
            (SsdConfig::tiny(Scheme::InlineDedup), &t1),
        ];
        let out = run_cells(&cells, 3);
        assert_eq!(out[0].scheme, "Baseline");
        assert_eq!(out[1].scheme, "CAGC");
        assert_eq!(out[2].scheme, "Inline-Dedupe");
    }
}
