//! # cagc-dedup — deduplication substrate
//!
//! Everything content-addressed that the CAGC reproduction needs:
//!
//! * [`sha1`] — the fingerprint hash function for page *bytes*,
//!   implemented from scratch (FIPS 180-4) and verified against published
//!   test vectors; no crypto crate exists in the offline dependency budget.
//! * [`fingerprint`] — [`ContentId`] (a page's logical content identity, as
//!   carried by the FIU-style traces) and [`Fingerprint`] (160 bits: the
//!   SHA-1 of page bytes where bytes exist, an injective few-nanosecond
//!   embedding of the `ContentId` in simulated replays — the *simulated*
//!   cost of hashing lives in [`engine`]).
//! * [`index`] — [`FingerprintIndex`], the fingerprint → (PPN, refcount)
//!   store with a PPN-keyed reverse map, the metadata heart of CAFTL-style
//!   dedup FTLs. Reference counts follow the paper's Sec. III-A semantics:
//!   a physical page becomes invalid only when its count reaches zero.
//! * [`refstats`] — [`RefCountStats`], the Fig. 6 measurement (invalidations
//!   bucketed by peak refcount).
//! * [`fpcache`] — [`FingerprintCache`], unused: kept compiling for one
//!   `benchmark/` probe until that package can drop it.
//! * [`engine`] — [`HashEngine`], the 14 µs/page hash-unit *timing* model
//!   (Table I), and [`ParallelHasher`], a real multi-threaded page hasher
//!   for benches and real-content runs.
//!
//! ## Reference-count lifecycle
//!
//! A physical page enters the index at refcount 1 when its fingerprint
//! is first stored ([`FingerprintIndex::insert`]). Each later write of
//! the same content maps another LPN to the same PPN and bumps the
//! count ([`FingerprintIndex::add_refs`]). References drop one of two
//! ways, and the distinction is what the trim study measures:
//!
//! * **Overwrite** — the host rewrites an LPN with new content;
//!   [`FingerprintIndex::release_ppn`] decrements the old PPN's count.
//! * **Trim** — the host deallocates the LPN;
//!   [`FingerprintIndex::release_ppn_trimmed`] is `release_ppn` plus
//!   attribution: [`RefCountStats`] counts the drop in
//!   `trim_releases()` without disturbing the Fig. 6 buckets.
//!
//! Either way the page stays live while the count is positive — a trim
//! of a shared page must *not* deallocate flash state, because other
//! LPNs still resolve to it. Only the release that takes the count to
//! zero invalidates the physical page (the caller then tells the flash
//! layer, with the cause preserved: invalidate for overwrite,
//! deallocate for trim — see `docs/TRIM.md`). [`RefCountStats`] buckets
//! each zero-crossing by the page's *peak* refcount, which is exactly
//! the Fig. 6 motivation measurement: pages that were ever shared die
//! slower, so migrating them blindly is the waste CAGC removes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod engine;
pub mod fingerprint;
pub mod fpcache;
pub mod index;
pub mod refstats;
pub mod sha1;

pub use engine::{HashEngine, ParallelHasher};
pub use fingerprint::{ContentId, Fingerprint};
pub use fpcache::FingerprintCache;
pub use index::{FingerprintIndex, FpEntry, IndexStats};
pub use refstats::RefCountStats;
pub use sha1::Sha1;
