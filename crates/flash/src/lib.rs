//! # cagc-flash — NAND flash device model
//!
//! The physical-device substrate of the CAGC reproduction: the part of
//! FlashSim that models NAND geometry, page/block state, operation latencies
//! and per-die/per-channel contention. The FTL (`cagc-ftl`) and the schemes
//! (`cagc-core`) sit on top of this crate.
//!
//! ## Model
//!
//! * **Geometry** ([`Geometry`]): channels × dies × planes × blocks × pages,
//!   with a flat physical page number ([`Ppn`]) address space and cheap
//!   address arithmetic.
//! * **State machine** ([`Block`], [`PageState`]): every page is `Free`,
//!   `Valid` or `Invalid`; programs must land on free pages **in sequential
//!   page order within a block** (the NAND program constraint), and only a
//!   whole block can be erased. A block is one `Copy` record whose page
//!   validity is a single `u64`, so a block holds at most
//!   [`Block::MAX_PAGES`] = 64 pages ([`Geometry::new`] enforces it;
//!   Table I's block is 64 pages). Every per-block fact — validity, write
//!   pointer, wear, trim attribution, sealed, retired — lives in that
//!   record and nowhere else.
//! * **Timing** ([`Timing`], [`UllConfig`]): Table I of the paper — 12 µs
//!   read, 16 µs program, 1.5 ms erase, 4 KiB pages, 64-page (256 KiB)
//!   blocks, 7 % over-provisioning, 20 % GC watermark — plus a conventional
//!   NVMe preset for contrast experiments.
//! * **Contention** ([`FlashDevice`]): each die is a single-server
//!   [`cagc_sim::Timeline`]; reads/programs/erases serialize per die while
//!   different dies proceed in parallel, which is exactly how GC interferes
//!   with foreground traffic in the paper.
//!
//! * **Faults** ([`FaultConfig`], [`FlashError`]): a seeded, deterministic
//!   fault plan injects program/erase failures, read ECC errors, per-block
//!   wear-out and a power-loss point. While a plan is armed the device
//!   keeps the durable metadata (per-page OOB, mapping-delta journal) a
//!   recovery pass rebuilds the FTL from; with the default (empty) config
//!   it keeps neither — it can never crash, so nothing would read them —
//!   and is bit-identical to the fault-free model. The bad-block table is
//!   the retired flag on each block record, kept either way.
//!
//! ```
//! use cagc_flash::{FaultConfig, FlashDevice, PageOob, UllConfig};
//!
//! let cfg = UllConfig::tiny_for_tests();
//! let mut dev = FlashDevice::new(cfg.geometry(), cfg.timing());
//! // Program block 0's next page on behalf of logical page 9.
//! let (reservation, ppn) = dev.program_next(0, 0, PageOob::host(9, None)).unwrap();
//! assert_eq!(reservation.end, 16_000); // 16us program, idle die
//! assert_eq!(ppn, dev.geometry().ppn(0, 0));
//!
//! // Armed with a power-loss point, the device stamps the binding into
//! // the page's OOB, where recovery finds it.
//! let armed = FaultConfig { crash_at_op: Some(1_000), ..FaultConfig::none() };
//! let mut dev = FlashDevice::with_faults(cfg.geometry(), cfg.timing(), armed);
//! let (_, ppn) = dev.program_next(0, 0, PageOob::host(9, None)).unwrap();
//! assert_eq!(dev.oob(ppn).lpn, Some(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod addr;
pub mod block;
pub mod config;
pub mod device;
pub mod fault;
pub mod geometry;
pub mod stats;
pub mod timing;
mod victim_index;

pub use addr::{BlockId, PageOffset, Ppn, NO_PPN};
pub use block::{Block, PageState};
pub use config::UllConfig;
pub use device::{FlashDevice, OpKind};
pub use fault::{FaultConfig, FaultPlan, FlashError, JournalEntry, JournalOp, PageOob};
pub use geometry::Geometry;
pub use stats::DeviceStats;
pub use timing::Timing;
