//! # CAGC — Content-Aware Garbage Collection for ultra-low-latency SSDs
//!
//! A from-scratch Rust reproduction of *"CAGC: A Content-aware Garbage
//! Collection Scheme for Ultra-Low Latency Flash-based SSDs"* (Wu, Du, Li,
//! Jiang, Shen, Mao — IPDPS 2021): a full event-driven SSD simulator
//! (FlashSim-class), a page-mapping FTL with three victim-selection
//! policies, a deduplication substrate (from-scratch SHA-1,
//! reference-counted fingerprint index), FIU-like content-carrying
//! workloads, and the three schemes the paper compares — **Baseline**,
//! **Inline-Dedupe**, and **CAGC** itself.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof and provides a [`prelude`]. See the individual crates for depth:
//!
//! | crate | what it is |
//! |-------|------------|
//! | [`sim`] | discrete-event substrate: time base, event queue, resource timelines |
//! | [`flash`] | NAND device model: geometry, page/block state machine, Table I timing |
//! | [`dedup`] | SHA-1, fingerprints, fingerprint index with refcounts, hash engine |
//! | [`ftl`] | mapping table, reverse map, region allocator, victim policies |
//! | [`core`] | the schemes: `Ssd`, content-aware GC (preemptible slices), reports |
//! | [`host`] | NVMe-style multi-queue host interface: SQ/CQ pairs, doorbells, interrupt coalescing, GC pump |
//! | [`workloads`] | traces, FIU-like generators, parsers, file scenarios |
//! | [`metrics`] | latency histograms, CDFs, summary stats, report tables |
//! | [`trace`] | deterministic tracing: spans over simulated time, Chrome/JSONL export, gauge registry |
//!
//! ## Quickstart
//!
//! ```
//! use cagc::prelude::*;
//!
//! // A Mail-like deduplicating workload against a small ULL SSD.
//! let trace = FiuWorkload::Mail.synth_config(4_000, 2_000, 7).generate();
//! let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
//! let report = ssd.replay(&trace);
//!
//! assert!(report.gc.dedup_hits > 0); // GC eliminated redundant writes
//! println!("{}", report.render());
//! ```
//!
//! Regenerate the paper's tables and figures with the harness:
//!
//! ```bash
//! cargo run --release -p cagc-bench --bin repro -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use cagc_core as core;
pub use cagc_dedup as dedup;
pub use cagc_flash as flash;
pub use cagc_fleet as fleet;
pub use cagc_ftl as ftl;
pub use cagc_host as host;
pub use cagc_metrics as metrics;
pub use cagc_sim as sim;
pub use cagc_trace as trace;
pub use cagc_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use cagc_core::{
        run_cell, run_cells, FaultReport, RecoveryReport, RunReport, Scheme, Ssd, SsdConfig,
    };
    pub use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex};
    pub use cagc_flash::{FaultConfig, FlashDevice, FlashError, Geometry, Timing, UllConfig};
    pub use cagc_ftl::{VictimKind, Region};
    pub use cagc_host::{HostConfig, HostInterface, HostReport};
    pub use cagc_metrics::{Cdf, Histogram};
    pub use cagc_trace::{TraceConfig, Tracer};
    pub use cagc_workloads::{
        inject_trims, FileWorkloadBuilder, FiuWorkload, OpKind, Request, SynthConfig, Trace,
        TraceProfile,
    };
}
