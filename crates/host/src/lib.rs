//! # cagc-host — NVMe-style multi-queue host interface
//!
//! The crates below this one answer *how long does the device take*; this
//! crate answers *what does the host actually see*. It wraps a
//! [`cagc_core::Ssd`] behind an NVMe-flavored interface:
//!
//! * N submission/completion **queue pairs** with bounded depth — a
//!   command occupies a slot from submission until its completion is
//!   reaped.
//! * **Interrupt coalescing**: completions are delivered in bursts, on a
//!   depth threshold or a timeout.
//! * One replay loop over any time-ordered request stream (a trace, or
//!   `mixer::merge` over tenants), **open-loop** (arrival-timed, backlogs
//!   under overload) or **closed-loop** (fio `iodepth` semantics: a fixed
//!   number of commands kept outstanding per pair), handing each reaped
//!   command's [`CmdLatency`] to a caller sink.
//! * An **idle-window GC pump**: when every queue drains, the host lets
//!   a device with preemptible GC run quanta ([`cagc_core::Ssd::gc_pump`])
//!   until the next command arrives.
//!
//! Everything runs on the `cagc-sim` event engine, so replays are
//! deterministic: same trace, same config ⇒ byte-identical
//! [`HostReport`]s. The [`HostConfig::passthrough`] shape degenerates to
//! the synchronous [`cagc_core::Ssd::replay`] path exactly (a tested
//! byte-identity), which anchors every multi-queue result to the rest of
//! the repository's golden artifacts.
//!
//! See `docs/HOST_INTERFACE.md` for the queue model and the GC preemption
//! state machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod engine;
pub mod report;

pub use config::HostConfig;
pub use engine::{CmdLatency, HostInterface, Loop};
pub use report::{HostReport, ResilienceStats};
