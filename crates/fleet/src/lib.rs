//! # cagc-fleet — fleet-scale multi-tenant simulation
//!
//! A production deployment is thousands of SSDs serving millions of
//! users, not the one device the paper evaluates. This crate simulates a
//! *fleet*: N independent devices, each serving a blend of per-tenant
//! namespaces composed from the FIU-style workload models
//! (`cagc_workloads`), fanned out over the deterministic dynamic
//! scheduler in `cagc_harness::pool` and rolled up into a
//! [`FleetReport`] with per-tenant QoS, per-device lifetime, and
//! fleet-wide traffic aggregates.
//!
//! ## Architecture
//!
//! - [`mix`] — named tenant blends (which workloads share a device, at
//!   what relative arrival rate).
//! - [`library`] — the [`library::TraceLibrary`]: each distinct tenant
//!   trace is generated once and shared as an `Arc<Trace>` across every
//!   device that replays it, so fleet memory scales with *distinct
//!   mixes*, not devices × trace size.
//! - [`device`] — one device cell: a streaming k-way merge of the
//!   tenant traces (same order as `mixer::interleave_n`, nothing
//!   materialized) into `Ssd::submit`, or a multi-queue NVMe-style
//!   replay via `cagc_host` when queue pairs are configured.
//! - [`fleet`] — the fan-out: device cells are pure functions of their
//!   spec, so identical devices share one simulation
//!   ([`FleetConfig::cells`]), and cells are scheduled with
//!   `map_ordered_dynamic_chunked`, so the [`FleetReport`] is
//!   byte-identical at every worker count.
//! - [`analytic`] — Li/Lee/Lui-style mean-field write-amplification
//!   curves (FIFO and greedy cleaning) the measured fleet WAF is
//!   validated against under uniform random traffic.
//!
//! Determinism contract: `run_fleet` with the same [`FleetConfig`]
//! produces the same report — bit for bit, across worker counts and
//! machines. The repro harness gates this in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analytic;
pub mod device;
pub mod fleet;
pub mod library;
pub mod mix;
pub mod observe;
pub mod report;
pub mod slo;

pub use device::{simulate_device, DeviceReport, DeviceSpec, TenantReport, TenantTrace};
pub use fleet::{run_fleet, FleetConfig};
pub use library::TraceLibrary;
pub use mix::{TenantMix, TenantSpec};
pub use observe::{DeviceObservability, FleetTimeline};
pub use report::FleetReport;
pub use slo::{SloConfig, TenantSloTrack};
