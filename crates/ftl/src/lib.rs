//! # cagc-ftl — page-mapping FTL substrate
//!
//! The flash-translation-layer building blocks the schemes in `cagc-core`
//! are assembled from — the part of FlashSim's FTL that is *common* to
//! Baseline, Inline-Dedupe and CAGC:
//!
//! * [`mapping::MappingTable`] — dense LPN → PPN page-level mapping (many-
//!   to-one under dedup).
//! * [`rmap::ReverseMap`] — PPN → LPNs, so GC migration can remap every
//!   logical page backed by a moved physical page.
//! * [`allocator::Allocator`] — free-block pool plus hot/cold write
//!   frontiers and the GC reserve that prevents migration deadlock.
//! * [`victim`] — the victim-selection policies, deterministic under a
//!   seed, and their semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod allocator;
pub mod mapping;
pub mod rmap;
pub mod victim;

pub use allocator::{Allocator, Region};
pub use mapping::{Lpn, MappingTable, PAGE_LIMIT};
pub use rmap::ReverseMap;
pub use victim::{VictimCandidate, VictimKind, VictimSelector};
