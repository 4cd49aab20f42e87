//! Deterministic fault injection, bad-block bookkeeping and the durable
//! metadata a power-loss recovery pass reads back.
//!
//! Real NAND fails: programs abort, erases wear a block out, reads return
//! uncorrectable ECC errors, and power can disappear between any two
//! operations. The paper simulates a fault-free FlashSim; this module adds
//! the device half of the robustness story:
//!
//! * [`FlashError`] — the structured error every fallible device operation
//!   returns, distinguishing *injected faults* (program/erase/read
//!   failures, power loss) from *caller bugs* (bad PPN, programming a full
//!   block) that used to be panics.
//! * [`FaultConfig`] / [`FaultPlan`] — a seeded, deterministic fault
//!   schedule driven by [`cagc_sim::SimRng`]: per-operation failure
//!   probabilities, explicit per-ordinal schedules and a `crash_at_op`
//!   power-loss point counted in *durable operations*.
//! * [`PageOob`] — the out-of-band metadata stamped on every page at
//!   program time (logical page, fingerprint stamp, durable sequence
//!   number). Real controllers keep exactly this in the page spare area;
//!   recovery rebuilds the LPN→PPN mapping from it.
//! * [`JournalOp`] / [`JournalEntry`] — the mapping-delta journal: dedup
//!   remaps and trims change the mapping *without* programming a page, so
//!   the controller persists them in a small metadata log (as production
//!   FTLs do for their L2P delta). Sequence numbers are shared with
//!   [`PageOob::seq`], giving recovery one total order over all durable
//!   mapping mutations.
//!
//! OOB and journal are recovery metadata, and recovery only follows a
//! crash, which only an armed plan can cause: the device keeps both
//! exactly when [`FaultConfig::is_active`] holds
//! ([`crate::FlashDevice::faults_active`]) and pays nothing for them
//! otherwise.
//!
//! Everything here is deterministic: the same [`FaultConfig`] (seed,
//! probabilities, schedules, crash point) against the same workload yields
//! a byte-identical run.

use cagc_sim::time::Nanos;
use cagc_sim::SimRng;
use std::collections::HashSet;

use crate::addr::{BlockId, Ppn};

/// Structured error for every fallible flash-device operation.
///
/// Injected faults (program, erase and read failures, unrecoverable
/// recovery, power loss) model the device misbehaving and have recovery
/// policies in the FTL; the remaining variants are caller bugs — an FTL
/// that triggers one is broken, and callers are expected to `panic!` on
/// them at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// The physical page number is outside the device.
    BadPpn {
        /// The offending address.
        ppn: Ppn,
    },
    /// The block id is outside the device.
    BadBlock {
        /// The offending block.
        block: BlockId,
    },
    /// Program issued to a block with no free pages left.
    BlockFull {
        /// The full block.
        block: BlockId,
    },
    /// Read of a page that was never programmed since the last erase.
    ReadFree {
        /// The free page.
        ppn: Ppn,
    },
    /// Erase issued while the block still holds valid pages.
    EraseValid {
        /// The block.
        block: BlockId,
        /// How many valid pages it still holds.
        valid: u32,
    },
    /// Operation issued to a block already retired to the bad-block table.
    Retired {
        /// The retired block.
        block: BlockId,
    },
    /// Injected program failure: the target page is spoiled (consumed and
    /// unreadable) and the FTL must retry on another block.
    ProgramFailed {
        /// The page the failed program consumed.
        ppn: Ppn,
        /// When the failed attempt completed on the die.
        at: Nanos,
    },
    /// Injected erase failure: the device retired the block to the
    /// bad-block table; its pages are gone from the usable pool.
    EraseFailed {
        /// The block that failed to erase (now retired).
        block: BlockId,
        /// When the failed attempt completed on the die.
        at: Nanos,
    },
    /// Injected uncorrectable-ECC read error for this attempt (a re-read
    /// may succeed; the FTL decides the retry policy).
    ReadEcc {
        /// The page whose read failed.
        ppn: Ppn,
        /// When the failed attempt completed on the die.
        at: Nanos,
    },
    /// Injected failure of a *last-resort* recovery action (the heroic
    /// ECC decode after re-reads, the forced program after retries): the
    /// FTL has nothing left to try and the host sees an NVMe-style error
    /// completion. Raised by the FTL from
    /// [`FaultPlan::roll_unrecoverable`]; the device itself never returns
    /// it.
    Unrecoverable {
        /// When the failed recovery attempt completed.
        at: Nanos,
    },
    /// Power was lost: the device is down until
    /// [`crate::FlashDevice::power_cycle`]; every operation fails with
    /// this error and nothing more becomes durable.
    PowerLoss,
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::BadPpn { ppn } => write!(f, "ppn {ppn} out of range"),
            FlashError::BadBlock { block } => write!(f, "block {block} out of range"),
            FlashError::BlockFull { block } => write!(f, "program on full block {block}"),
            FlashError::ReadFree { ppn } => write!(f, "read of free (unwritten) page ppn={ppn}"),
            FlashError::EraseValid { block, valid } => {
                write!(f, "erase of block {block} with {valid} valid pages")
            }
            FlashError::Retired { block } => write!(f, "operation on retired block {block}"),
            FlashError::ProgramFailed { ppn, at } => {
                write!(f, "injected program failure at ppn {ppn} (t={at})")
            }
            FlashError::EraseFailed { block, at } => {
                write!(f, "injected erase failure on block {block} (t={at})")
            }
            FlashError::ReadEcc { ppn, at } => {
                write!(f, "injected read ECC error at ppn {ppn} (t={at})")
            }
            FlashError::Unrecoverable { at } => {
                write!(f, "injected unrecoverable recovery failure (t={at})")
            }
            FlashError::PowerLoss => write!(f, "power loss"),
        }
    }
}

impl std::error::Error for FlashError {}

/// Fault-injection configuration (all-zero default = no faults, and the
/// device behaves bit-identically to a build without this subsystem).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability that any single program attempt fails.
    pub program_fail_prob: f64,
    /// Probability that any single erase attempt fails.
    pub erase_fail_prob: f64,
    /// Probability that any single read attempt returns an ECC error.
    pub read_ecc_prob: f64,
    /// Probability that a *last-resort* recovery action fails: the heroic
    /// ECC decode a host read falls back to after exhausting re-reads, or
    /// the forced program a host write falls back to after exhausting
    /// retries. When it fires the FTL has nothing left to try and the
    /// host sees an NVMe-style error completion (media read error /
    /// write fault) instead of a latency. Drawn from its own PRNG stream
    /// (`"unrecoverable"`), so enabling it never perturbs the
    /// program/erase/read fault sequence of an existing seed.
    pub unrecoverable_prob: f64,
    /// Seed for the fault plan's own PRNG stream (independent of every
    /// other stream in the simulation).
    pub seed: u64,
    /// Power loss after this many *durable operations* (programs, erases,
    /// journal appends): the N-th durable op and everything after it never
    /// happens. `None` = never.
    pub crash_at_op: Option<u64>,
    /// Explicit schedule: 0-based ordinals of program attempts that fail
    /// regardless of probability.
    pub fail_program_ops: Vec<u64>,
    /// Explicit schedule: 0-based ordinals of erase attempts that fail.
    pub fail_erase_ops: Vec<u64>,
    /// Explicit schedule: 0-based ordinals of read attempts that fail.
    pub fail_read_ops: Vec<u64>,
}

impl FaultConfig {
    /// No faults at all (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault source is configured. When `false`, the device
    /// takes the exact pre-fault-subsystem fast paths: no PRNG draws, no
    /// schedule probes, and no OOB or journal kept.
    pub fn is_active(&self) -> bool {
        self.program_fail_prob > 0.0
            || self.erase_fail_prob > 0.0
            || self.read_ecc_prob > 0.0
            || self.unrecoverable_prob > 0.0
            || self.crash_at_op.is_some()
            || !self.fail_program_ops.is_empty()
            || !self.fail_erase_ops.is_empty()
            || !self.fail_read_ops.is_empty()
    }

    /// Sanity-check the probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("program_fail_prob", self.program_fail_prob),
            ("erase_fail_prob", self.erase_fail_prob),
            ("read_ecc_prob", self.read_ecc_prob),
            ("unrecoverable_prob", self.unrecoverable_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// Runtime state of the fault injector: the configuration, its PRNG
/// stream, per-class operation ordinals and the power-loss latch.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    active: bool,
    rng: SimRng,
    // Separate stream for unrecoverable-recovery rolls: the main
    // `"fault-plan"` stream's draw sequence must not shift when
    // `unrecoverable_prob` is enabled on an existing seed.
    unrecoverable_rng: SimRng,
    programs_seen: u64,
    erases_seen: u64,
    reads_seen: u64,
    durable_ops: u64,
    crashed: bool,
    fail_program_ops: HashSet<u64>,
    fail_erase_ops: HashSet<u64>,
    fail_read_ops: HashSet<u64>,
}

impl FaultPlan {
    /// A plan from its configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        let active = cfg.is_active();
        Self {
            rng: SimRng::for_stream(cfg.seed, "fault-plan"),
            unrecoverable_rng: SimRng::for_stream(cfg.seed, "unrecoverable"),
            fail_program_ops: cfg.fail_program_ops.iter().copied().collect(),
            fail_erase_ops: cfg.fail_erase_ops.iter().copied().collect(),
            fail_read_ops: cfg.fail_read_ops.iter().copied().collect(),
            active,
            cfg,
            programs_seen: 0,
            erases_seen: 0,
            reads_seen: 0,
            durable_ops: 0,
            crashed: false,
        }
    }

    /// Whether any fault source is configured.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the simulated power-loss point has been reached.
    #[inline]
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Durable operations performed so far (programs, erases, journal
    /// appends) — the clock `crash_at_op` counts in.
    #[inline]
    pub fn durable_ops(&self) -> u64 {
        self.durable_ops
    }

    /// Clear the power-loss latch (the crash point is consumed: it will
    /// not fire again after the cycle).
    pub fn power_cycle(&mut self) {
        self.crashed = false;
        self.cfg.crash_at_op = None;
    }

    /// Account one durable operation; trips the power-loss latch when the
    /// configured crash point is reached (that operation does not happen).
    pub fn note_durable_op(&mut self) -> Result<(), FlashError> {
        if self.crashed {
            return Err(FlashError::PowerLoss);
        }
        if let Some(limit) = self.cfg.crash_at_op {
            if self.durable_ops >= limit {
                self.crashed = true;
                return Err(FlashError::PowerLoss);
            }
        }
        self.durable_ops += 1;
        Ok(())
    }

    /// Should the next program attempt fail? Advances the program ordinal.
    pub fn roll_program(&mut self) -> bool {
        if !self.active {
            return false;
        }
        let ordinal = self.programs_seen;
        self.programs_seen += 1;
        let drawn = self.rng.gen_bool(self.cfg.program_fail_prob);
        self.fail_program_ops.contains(&ordinal) || drawn
    }

    /// Should the next erase attempt fail? Advances the erase ordinal.
    pub fn roll_erase(&mut self) -> bool {
        if !self.active {
            return false;
        }
        let ordinal = self.erases_seen;
        self.erases_seen += 1;
        let drawn = self.rng.gen_bool(self.cfg.erase_fail_prob);
        self.fail_erase_ops.contains(&ordinal) || drawn
    }

    /// Should the next read attempt return an ECC error? Advances the
    /// read ordinal.
    pub fn roll_read(&mut self) -> bool {
        if !self.active {
            return false;
        }
        let ordinal = self.reads_seen;
        self.reads_seen += 1;
        let drawn = self.rng.gen_bool(self.cfg.read_ecc_prob);
        self.fail_read_ops.contains(&ordinal) || drawn
    }

    /// Should a *last-resort* recovery action (heroic ECC decode, forced
    /// program) fail, surfacing an unrecoverable error to the host? Draws
    /// from the dedicated `"unrecoverable"` stream only — the main fault
    /// stream's sequence is untouched, so existing fault runs stay
    /// byte-identical when this knob is zero.
    pub fn roll_unrecoverable(&mut self) -> bool {
        if !self.active || self.cfg.unrecoverable_prob <= 0.0 {
            return false;
        }
        self.unrecoverable_rng.gen_bool(self.cfg.unrecoverable_prob)
    }
}

/// Out-of-band metadata stamped on a page when it is programmed — the
/// durable breadcrumbs recovery rebuilds the mapping from. The FTL passes
/// one with every program; the device keeps it only while a fault plan is
/// armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageOob {
    /// The logical page bound to this physical page at program time.
    /// `None` for GC relocation programs (their sharers are journalled as
    /// [`JournalOp::Remap`] records instead) and for torn/failed programs.
    pub lpn: Option<u64>,
    /// Fingerprint stamp (the fingerprint's first 8 bytes) when this page is a
    /// tracked stored copy in the dedup index; `None` for untracked pages.
    pub fp: Option<u64>,
    /// Durable sequence number assigned by the device at program time;
    /// shares one counter with [`JournalEntry::seq`], so sorting all
    /// records by `seq` yields the exact durability order.
    pub seq: u64,
}

impl PageOob {
    /// OOB for a foreground (host) program binding `lpn`, optionally a
    /// fingerprint-tracked copy (inline dedup schemes stamp every program).
    pub fn host(lpn: u64, fp: Option<u64>) -> Self {
        Self { lpn: Some(lpn), fp, seq: 0 }
    }

    /// OOB for a GC relocation program: no single bound LPN (every sharer
    /// is journalled), optionally a fingerprint stamp.
    pub fn gc(fp: Option<u64>) -> Self {
        Self { lpn: None, fp, seq: 0 }
    }
}

/// A mapping mutation that does not program a page, persisted in the
/// controller's metadata journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// `lpn` now maps to `ppn` (dedup hit, GC relocation of a sharer).
    Remap {
        /// The logical page.
        lpn: u64,
        /// Its new physical page.
        ppn: Ppn,
    },
    /// `lpn` is unmapped (host trim honored).
    Unmap {
        /// The logical page.
        lpn: u64,
    },
}

/// One journalled mapping mutation with its durable sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Position in the total durable order (shared with [`PageOob::seq`]).
    pub seq: u64,
    /// The mutation.
    pub op: JournalOp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive() {
        let cfg = FaultConfig::none();
        assert!(!cfg.is_active());
        cfg.validate().unwrap();
        let mut plan = FaultPlan::new(cfg);
        assert!(!plan.roll_program());
        assert!(!plan.roll_erase());
        assert!(!plan.roll_read());
        assert!(!plan.crashed());
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let cfg = FaultConfig { program_fail_prob: 1.5, ..FaultConfig::none() };
        assert!(cfg.validate().is_err());
        let cfg = FaultConfig { erase_fail_prob: -0.1, ..FaultConfig::none() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn explicit_schedules_fire_on_exact_ordinals() {
        let cfg = FaultConfig { fail_program_ops: vec![0, 2], ..FaultConfig::none() };
        assert!(cfg.is_active());
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.roll_program()); // ordinal 0
        assert!(!plan.roll_program()); // ordinal 1
        assert!(plan.roll_program()); // ordinal 2
        assert!(!plan.roll_program());
    }

    #[test]
    fn probability_rolls_are_seed_deterministic() {
        let cfg = FaultConfig { program_fail_prob: 0.3, seed: 42, ..FaultConfig::none() };
        let mut a = FaultPlan::new(cfg.clone());
        let mut b = FaultPlan::new(cfg);
        let xs: Vec<bool> = (0..256).map(|_| a.roll_program()).collect();
        let ys: Vec<bool> = (0..256).map(|_| b.roll_program()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x) && xs.iter().any(|&x| !x));
    }

    #[test]
    fn crash_point_counts_durable_ops_and_latches() {
        let cfg = FaultConfig { crash_at_op: Some(2), ..FaultConfig::none() };
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.note_durable_op().is_ok());
        assert!(plan.note_durable_op().is_ok());
        assert_eq!(plan.note_durable_op(), Err(FlashError::PowerLoss));
        assert!(plan.crashed());
        // Latched: everything after fails too.
        assert_eq!(plan.note_durable_op(), Err(FlashError::PowerLoss));
        plan.power_cycle();
        assert!(!plan.crashed());
        // The crash point is consumed: durable ops flow again.
        assert!(plan.note_durable_op().is_ok());
    }

    #[test]
    fn unrecoverable_rolls_use_their_own_stream() {
        // Same seed, same probability rolls on the main stream, with and
        // without the unrecoverable knob: the main stream must not shift.
        let base = FaultConfig { program_fail_prob: 0.3, seed: 42, ..FaultConfig::none() };
        let with = FaultConfig { unrecoverable_prob: 0.5, ..base.clone() };
        let mut a = FaultPlan::new(base);
        let mut b = FaultPlan::new(with);
        let xs: Vec<bool> = (0..256).map(|_| a.roll_program()).collect();
        let ys: Vec<bool> = (0..256)
            .map(|_| {
                let _ = b.roll_unrecoverable(); // interleave draws
                b.roll_program()
            })
            .collect();
        assert_eq!(xs, ys, "unrecoverable rolls must not perturb the main stream");
    }

    #[test]
    fn unrecoverable_prob_activates_and_rolls_deterministically() {
        let off = FaultConfig::none();
        assert!(!FaultPlan::new(off).roll_unrecoverable());
        let cfg = FaultConfig { unrecoverable_prob: 1.0, seed: 9, ..FaultConfig::none() };
        assert!(cfg.is_active());
        cfg.validate().unwrap();
        let mut plan = FaultPlan::new(cfg.clone());
        assert!(plan.roll_unrecoverable(), "prob 1.0 must always fire");
        let mut a = FaultPlan::new(FaultConfig { unrecoverable_prob: 0.4, ..cfg.clone() });
        let mut b = FaultPlan::new(FaultConfig { unrecoverable_prob: 0.4, ..cfg });
        let xs: Vec<bool> = (0..128).map(|_| a.roll_unrecoverable()).collect();
        let ys: Vec<bool> = (0..128).map(|_| b.roll_unrecoverable()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x) && xs.iter().any(|&x| !x));
        let bad = FaultConfig { unrecoverable_prob: 2.0, ..FaultConfig::none() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn errors_render_something_human_readable() {
        assert!(format!("{}", FlashError::EraseFailed { block: 2, at: 5 }).contains("block 2"));
    }
}
