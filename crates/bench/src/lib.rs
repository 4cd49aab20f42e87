//! # cagc-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (Tables
//! I–II, Figs. 2, 6, 9, 10, 11, 12, 13) plus the ablations DESIGN.md calls
//! out. [`experiments::COMMANDS`] is the registry the `repro` binary runs.
//!
//! ```bash
//! cargo run --release -p cagc-bench --bin repro -- all
//! cargo run --release -p cagc-bench --bin repro -- fig9 --scale quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod paper;
pub mod scale;

pub use experiments::{run_aged, AgedResults, Artifacts};
pub use scale::Scale;
