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
//!   seed.
//! * [`gc`] — the [`gc::GcStats`] counters behind Figs. 9, 10 and 13 (the
//!   watermark trigger itself is `GcThresholds`, derived from the flash
//!   config in `cagc-core`).
//!
//! ## Victim-policy semantics
//!
//! All policies score the same snapshot, a slice of
//! [`victim::VictimCandidate`] (one per closed block: valid/invalid
//! page counts, the trim-deallocated subset of invalid, erase count,
//! last-modified time). The paper's three:
//!
//! * **Random** — uniform over candidates; the floor every other policy
//!   is measured against (Fig. 13).
//! * **Greedy** — most invalid pages wins. Ties break toward the block
//!   with more *trimmed* pages (trim garbage is stable — it cannot be
//!   re-validated, while overwrite garbage keeps accruing, so waiting is
//!   worth more there), then toward lower erase count (wear), then lowest
//!   block id (determinism).
//! * **Cost-Benefit** — classic `benefit/cost = age * (1-u) / 2u`; age
//!   rewards cold blocks whose garbage has stopped growing, so it needs
//!   no explicit trim term.
//!
//! Extensions beyond the paper ([`victim::VictimKind::EXTENDED`]):
//! **FIFO** (oldest last-modified) and **D-Choices** (Greedy key over a
//! seeded sample of *d* candidates — the scalable approximation). The
//! trimmed tie-break feeds Greedy and D-Choices only. The full trim data
//! path, host op to victim score, is documented in `docs/TRIM.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod allocator;
pub mod gc;
pub mod mapping;
pub mod rmap;
pub mod victim;

pub use allocator::{Allocator, Region};
pub use gc::GcStats;
pub use mapping::{Lpn, MappingTable};
pub use rmap::ReverseMap;
pub use victim::{VictimCandidate, VictimKind, VictimSelector};
