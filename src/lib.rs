//! # CAGC — Content-Aware Garbage Collection for ultra-low-latency SSDs
//!
//! A from-scratch Rust reproduction of *"CAGC: A Content-aware Garbage
//! Collection Scheme for Ultra-Low Latency Flash-based SSDs"* (Wu, Du, Li,
//! Jiang, Shen, Mao — IPDPS 2021): a full event-driven SSD simulator
//! (FlashSim-class), a page-mapping FTL with five victim-selection
//! policies, a deduplication substrate (from-scratch SHA-1,
//! reference-counted fingerprint index), FIU-like content-carrying
//! workloads, and four schemes: the three the paper compares —
//! **Baseline**, **Inline-Dedupe**, and **CAGC** itself — plus the
//! CAFTL-style **Inline-Sampled** comparator.
//!
//! This crate is a facade: it re-exports the crates its examples reach
//! through it ([`sim`], [`flash`], [`dedup`], [`metrics`], [`workloads`])
//! and provides a [`prelude`]. See the individual crates for depth:
//!
//! | crate | what it is |
//! |-------|------------|
//! | [`cagc_sim`] | discrete-event substrate: time base, event queue, resource timelines |
//! | [`cagc_flash`] | NAND device model: geometry, page/block state machine, Table I timing |
//! | [`cagc_dedup`] | SHA-1, fingerprints, fingerprint index with refcounts, hash engine |
//! | [`cagc_ftl`] | mapping table, reverse map, region allocator, victim policies |
//! | [`cagc_core`] | the schemes: `Ssd`, content-aware GC (preemptible slices), reports |
//! | [`cagc_host`] | NVMe-style multi-queue host interface: SQ/CQ pairs, interrupt coalescing, one replay loop over a request stream, GC pump |
//! | [`cagc_workloads`] | traces, FIU-like generators, parsers, file scenarios, the tenant merge |
//! | [`cagc_metrics`] | latency histograms, CDFs, summary stats, report tables |
//! | [`cagc_trace`] | deterministic tracing: spans over simulated time, Chrome/JSONL export, gauge registry |
//! | [`cagc_fleet`] | multi-tenant devices fanned out over the worker pool, per-tenant QoS and SLO rollups |
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
//! println!("{} blocks erased, WAF {:.3}", report.gc.blocks_erased, report.waf());
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

pub use cagc_dedup as dedup;
pub use cagc_flash as flash;
pub use cagc_metrics as metrics;
pub use cagc_sim as sim;
pub use cagc_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use cagc_core::{
        run_cell, run_cells, FaultReport, RecoveryReport, RunReport, Scheme, Ssd, SsdConfig,
    };
    pub use cagc_dedup::{ContentId, Fingerprint, FingerprintIndex};
    pub use cagc_flash::{FaultConfig, FlashDevice, FlashError, Geometry, Timing, UllConfig};
    pub use cagc_ftl::{VictimKind, Region};
    pub use cagc_host::{HostConfig, HostInterface, HostReport, Loop};
    pub use cagc_metrics::{Cdf, Histogram};
    pub use cagc_trace::{TraceConfig, Tracer};
    pub use cagc_workloads::{
        inject_trims, FileWorkloadBuilder, FiuWorkload, OpKind, Request, SynthConfig, Trace,
        TraceProfile,
    };
}
