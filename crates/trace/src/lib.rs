//! # cagc-trace — deterministic tracing & telemetry
//!
//! Structured observability for the simulator: spans and instant events
//! stamped in **simulated nanoseconds** from every layer (host ops, GC
//! phases, fault handling, per-die flash operations), plus a counter/
//! gauge registry sampled into [`cagc_metrics::TimeSeries`] windows.
//!
//! Design rules (see `docs/OBSERVABILITY.md` for the full taxonomy):
//!
//! * **Pay-as-you-go** — the default [`Tracer`] is disabled; every
//!   recording entry point is one branch, and a disabled run's outputs
//!   are byte-identical to an untraced build.
//! * **Deterministic** — a fixed seed yields byte-identical trace files:
//!   events are recorded in simulation order and exported through the
//!   harness serializer (insertion-order keys, exact integers).
//! * **Bounded** — [`TraceConfig::max_events`] caps retained events;
//!   overflow increments a `dropped_events` counter instead of growing.
//! * **No heap per event** — recording appends to two flat vectors,
//!   ingesting a live recording borrows from them, and the analyzers
//!   address names and buckets by small integers; a `String` exists once
//!   per output row, not once per event.
//!
//! Exports: [`chrome_trace`] (Perfetto / `chrome://tracing` loadable)
//! and [`jsonl`] (one event per line for scripted analysis).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod anatomy;
pub mod event;
pub mod export;
pub mod parse;
pub mod profile;
pub mod registry;
pub mod report;
pub mod tracer;

pub use anatomy::{GcAnatomy, PhaseStat, GC_PHASES};
pub use event::{Arg, Event, EventKind, Track};
pub use export::{chrome_trace, jsonl};
pub use parse::{from_tracer, parse_jsonl, Args, ParsedTrace, SpanRec};
pub use profile::{ProfileRow, SpanProfile};
pub use registry::GaugeRegistry;
pub use report::TelemetryReport;
pub use tracer::{TraceConfig, Tracer};
