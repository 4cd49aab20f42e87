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
pub mod parallel;
pub mod recovery;
pub mod report;
pub mod ssd;

pub use config::{GcThresholds, Scheme, SsdConfig};
pub use parallel::{run_cell, run_cells};
pub use recovery::RecoveryReport;
pub use report::{FaultReport, HealthLog, LatencySummary, RunReport, TrafficTotals};
pub use ssd::{CmdStatus, Completion, Ssd};

// Tracing entry points, re-exported so callers enabling tracing on an
// [`Ssd`] don't need a direct cagc-trace dependency.
pub use cagc_trace::{TelemetryReport, TraceConfig, Tracer};
