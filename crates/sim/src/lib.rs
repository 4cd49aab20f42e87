//! # cagc-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the event-driven core that the CAGC reproduction builds its
//! SSD simulator on, playing the role that the simulation kernel plays inside
//! [FlashSim] (Kim et al., SIMUTools'09), which the paper used for its
//! prototype.
//!
//! It provides four small, heavily-tested building blocks:
//!
//! * [`time`] — a `u64`-nanosecond simulated time base with readable
//!   constructors (`us(12)`, `ms(2)`).
//! * [`event`] — a generic, deterministic [`event::EventQueue`]: events that
//!   carry any payload, ordered by timestamp with FIFO tie-breaking, so two
//!   runs with the same inputs always pop events in the same order.
//! * [`timeline`] — [`timeline::Timeline`], a single-server busy/idle
//!   resource used to model NAND dies, channels and the hash engine. An
//!   operation *reserves* an interval and the timeline returns when the
//!   operation actually starts and completes; utilisation accounting comes
//!   for free. [`timeline::TimelineGroup`] manages an indexed set of them.
//! * [`rng`] — [`rng::derive_seed`] for correlation-free named seed streams
//!   and [`rng::SimRng`], the deterministic xoshiro256++ generator used by
//!   every random consumer in the workspace (no external `rand`).
//!
//! Everything here is deterministic and allocation-light: the hot paths
//! (`reserve`, `push`/`pop`) do no heap allocation beyond the containers'
//! amortised growth, per the HPC guidance this repository follows.
//!
//! [FlashSim]: https://doi.org/10.1109/SIMUL.2009.17
//!
//! ## Example: a tiny M/D/1 queue
//!
//! ```
//! use cagc_sim::event::EventQueue;
//! use cagc_sim::time::{us, Nanos};
//! use cagc_sim::timeline::Timeline;
//!
//! // Jobs arrive every 20us and need 12us of service on one server.
//! let mut q: EventQueue<u32> = EventQueue::new();
//! for job in 0..8u32 {
//!     q.push(us(20) * job as Nanos, job);
//! }
//! let mut server = Timeline::new();
//! let mut last_completion = 0;
//! while let Some(ev) = q.pop() {
//!     let r = server.reserve(ev.at, us(12));
//!     last_completion = r.end;
//! }
//! assert_eq!(last_completion, us(20) * 7 + us(12)); // never queues
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod event;
pub mod rng;
pub mod time;
pub mod timeline;

pub use event::{Event, EventQueue};
pub use rng::{derive_seed, SimRng};
pub use time::{ms, ns, us, Nanos};
pub use timeline::{Reservation, Timeline, TimelineGroup};
