//! # cagc-harness — zero-dependency test/concurrency substrate
//!
//! The enabling layer that keeps this workspace hermetically buildable:
//! `cargo build --release --offline && cargo test -q --offline` must
//! succeed from a clean checkout with no registry access, so everything
//! the repo previously pulled from crates.io lives here instead, sized
//! to exactly what the workspace uses:
//!
//! | module | replaces | what it is |
//! |--------|----------|------------|
//! | [`pool`] | `crossbeam` scoped threads, `parking_lot` | scoped worker pool with deterministic partitioning and ordered results |
//! | [`prop`] | `proptest` | seeded property-test runner: strategies, bounded shrinking, `harness_proptest!` |
//! | [`json`] | `serde` derive | explicit [`json::Json`] tree + [`json::ToJson`] trait, deterministic rendering |
//!
//! Randomness comes from [`cagc_sim::SimRng`] — the same deterministic
//! generator the simulator itself uses — so a property-test seed, a
//! workload seed, and a victim-policy seed all reproduce identically on
//! any platform.
//!
//! Design rule: this crate may depend only on `std` and `cagc-sim`.
//! Anything that would pull a third crate belongs elsewhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod json;
pub mod pool;
pub mod prop;

pub use json::{Json, ToJson};
pub use pool::{map_ordered, map_ordered_dynamic};
pub use prop::{Config as PropConfig, Strategy, TestCaseError};
