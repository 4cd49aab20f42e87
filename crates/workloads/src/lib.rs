//! # cagc-workloads — workload substrate
//!
//! The traces the CAGC experiments replay, and the machinery to make more:
//!
//! * [`trace`] — the request/trace model: timestamped, page-granular,
//!   content-carrying I/O (what the FIU SyLab traces provide), stored as an
//!   arena of 16-byte records, a run table holding the high halves of
//!   arrival and LPN, and one content slab, read as [`RequestView`]s.
//! * [`synth`] — the synthetic deduplicating workload generator, with
//!   controllable write ratio, dedup ratio, request-size distribution, LPN
//!   locality and content-popularity skew.
//! * [`fiu`] — presets reproducing the three FIU workloads' published
//!   characteristics (Table II: Mail / Homes / Web-vm). The real traces are
//!   not redistributable; see DESIGN.md for the substitution argument.
//! * [`files`] — scripted file create/share/delete scenarios (the Fig. 1 /
//!   Fig. 8 semantics).
//! * [`parser`] — native and FIU-style trace file parsing, plus a writer.
//! * [`analyze`] — single-pass trace characterization (regenerates
//!   Table II from any trace).
//! * [`zipf`] — the rank-skew sampler underlying the generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analyze;
pub mod files;
pub mod fiu;
pub mod mixer;
pub mod parser;
pub mod synth;
pub mod trace;
pub mod zipf;

pub use analyze::TraceProfile;
pub use files::{FileId, FileWorkloadBuilder};
pub use mixer::{inject_trims, interleave_n, merge, scale_rate};
pub use fiu::FiuWorkload;
pub use parser::{parse_fiu, parse_native, write_native, ParseError};
pub use synth::SynthConfig;
pub use trace::{OpKind, Request, RequestView, Requests, Trace};
pub use zipf::Zipf;
