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
//! * **No heap per event, written once** — recording appends 32-byte
//!   events and 10-byte payload pairs (a `u16` key column and a `u64`
//!   value column) to fixed-size segments that are never reallocated; that [`Recording`] is the record stream the
//!   analyzers and exporters read where it lies (a JSONL dump parses back
//!   into the same type), names and buckets are small integers
//!   throughout, and a `String` exists once per output row, not once per
//!   event. A profile keeps its durations as `(value, count)` runs, and
//!   its fold's scratch is sized by containers, not records.
//!
//! Exports: [`chrome_trace`] (Perfetto / `chrome://tracing` loadable)
//! and [`jsonl`] (one event per line for scripted analysis).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod anatomy;
pub mod event;
pub mod export;
pub mod names;
pub mod parse;
pub mod profile;
pub mod recording;
pub mod registry;
pub mod report;
pub mod tracer;

pub use anatomy::{GcAnatomy, PhaseStat, GC_PHASES};
pub use event::{Arg, EventKind, Track};
pub use export::{chrome_trace, jsonl};
pub use names::Names;
pub use parse::{from_tracer, parse_jsonl, ParsedTrace};
pub use profile::{ProfileRow, SpanProfile};
pub use recording::{Record, Recording};
pub use registry::GaugeRegistry;
pub use report::TelemetryReport;
pub use tracer::{TraceConfig, Tracer};
