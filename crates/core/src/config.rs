//! Scheme selection and full simulator configuration.

use cagc_flash::{FaultConfig, UllConfig};
use cagc_ftl::VictimKind;
use cagc_sim::time::{us, Nanos};

/// Which FTL scheme the SSD runs — the three systems the paper compares,
/// plus the CAFTL-style sampled variant from its related work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No deduplication anywhere (the paper's "Baseline").
    Baseline,
    /// Dedup on the foreground write path: every written page is hashed and
    /// looked up *before* it is programmed ("Inline-Dedupe").
    InlineDedup,
    /// CAFTL-style inline dedup with pre-hashing (Chen et al., FAST'11,
    /// discussed in the paper's Sec. I/V): a cheap pre-hash screens every
    /// write, and only pages whose pre-hash matches a previously stored
    /// page pay the full fingerprint. First copies of duplicated content
    /// are stored unfingerprinted — CAFTL's deliberate coverage loss in
    /// exchange for taking most hashing off the critical path.
    InlineSampled,
    /// The contribution: dedup embedded in GC migration with hash/erase
    /// overlap, plus reference-count-based hot/cold placement ("CAGC").
    Cagc,
}

impl Scheme {
    /// The paper's three schemes, in the order Fig. 11 presents them.
    pub const ALL: [Scheme; 3] = [Scheme::InlineDedup, Scheme::Baseline, Scheme::Cagc];

    /// Every implemented scheme (the paper's three plus the CAFTL-style
    /// comparator).
    pub const EXTENDED: [Scheme; 4] =
        [Scheme::InlineDedup, Scheme::InlineSampled, Scheme::Baseline, Scheme::Cagc];

    /// Display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::InlineDedup => "Inline-Dedupe",
            Scheme::InlineSampled => "Inline-Sampled",
            Scheme::Cagc => "CAGC",
        }
    }
}

/// Complete configuration of one simulated SSD.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Device shape and timing (Table I).
    pub flash: UllConfig,
    /// FTL scheme under test.
    pub scheme: Scheme,
    /// Victim-selection policy (paper default: Greedy).
    pub victim: VictimKind,
    /// Seed for the Random victim policy.
    pub victim_seed: u64,
    /// Reference-count threshold for cold placement (Sec. III-C, "e.g. 1"):
    /// pages with refcount strictly greater go to the cold region.
    pub cold_threshold: u32,
    /// Honor host trim (deallocate) hints. When true (default), a trim
    /// releases each logical page immediately: the mapping clears, the
    /// backing page's reference count drops, and a page whose last
    /// reference disappears is invalidated in place — attributed as trim
    /// garbage for victim scoring (dynamic overprovisioning, Frankie
    /// et al.). When false the trim is acknowledged (counted, charged
    /// [`Self::TRIM_NS`]) but ignored: data stays live and GC keeps
    /// migrating it — the trim-blind device the `repro sweep-trim` study
    /// compares against.
    pub honor_trim: bool,
    /// CAGC ablation: when false, GC hashing is serialized into the
    /// migration pipeline instead of overlapping on the hash engine
    /// (isolates the parallelization claim of Sec. III-B).
    pub overlap_hash: bool,
    /// CAGC ablation: when false, all pages go to the hot region regardless
    /// of refcount (isolates the placement claim of Sec. III-C).
    pub placement: bool,
    /// Background GC in idle periods (Sec. III-B: "flash-based SSDs
    /// utilize the system idle periods to conduct GC"). When the gap since
    /// the last request exceeds [`Self::IDLE_THRESHOLD_NS`] and free space
    /// is below the high watermark, victims are collected inside the idle
    /// window instead of on the foreground's clock.
    pub idle_gc: bool,
    /// Fault-injection plan for the flash device. The default
    /// ([`FaultConfig::none`]) injects nothing and draws nothing from the
    /// RNG, so fault-free runs stay bit-identical to builds without the
    /// fault subsystem.
    pub faults: FaultConfig,
    /// Program-failure handling: how many fresh frontier blocks to try
    /// before falling back to a forced program on the last one.
    pub max_program_retries: u32,
    /// Read-only degradation floor: when bad-block retirement shrinks the
    /// usable pool to the GC reserve ([`GcThresholds::reserve_blocks`])
    /// plus this many blocks or fewer, the device stops accepting writes
    /// and trims.
    pub read_only_floor_blocks: u32,
    /// Preemptible GC scheduling (time-efficient GC, Nagel et al.). When
    /// true, victim collection is sliced into [`Self::gc_slice_pages`]-page
    /// quanta: each foreground write that trips the low watermark advances
    /// the in-flight victim by one quantum and then *yields* back to host
    /// commands instead of migrating the whole block inline. The remainder
    /// is carried as a suspended GC job, resumed on later triggers, idle
    /// windows ([`Self::idle_gc`]) or explicit [`crate::Ssd::gc_pump`]
    /// calls. When false (default) GC is the paper's run-to-completion
    /// loop — byte-identical behavior to builds without this knob.
    pub gc_preempt: bool,
    /// Pages migrated per preemption quantum (only with
    /// [`Self::gc_preempt`]). Smaller slices mean finer-grained yielding —
    /// lower foreground tail latency but more scheduling overhead.
    pub gc_slice_pages: u32,
    /// Urgency escalation floor for preemptible GC: when the free-block
    /// fraction falls below this, preemption is suspended and GC runs
    /// whole victims to completion until the low watermark clears (guards
    /// against the foreground outrunning sliced reclamation). Defaults to
    /// [`GcThresholds::urgent_fraction`]; must not exceed the low
    /// watermark.
    pub gc_urgent_fraction: f64,
}

/// The GC trigger thresholds a flash configuration implies — a function of
/// [`UllConfig`], never a setting: [`crate::Ssd::new`] derives them once
/// from [`SsdConfig::flash`], so changing `flash.gc_watermark` moves the
/// trigger.
///
/// The Table I "GC Watermark 20 %" is applied to the **over-provisioning
/// pool**: GC starts when the free-block count falls to the reserve plus
/// 20 % of the OP blocks. (Applied to the whole device, a 20 % free-space
/// trigger would be unreachable on a drive whose logical space — 93 % of
/// physical — is nearly full, which is exactly the regime the paper's
/// evaluation exercises.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcThresholds {
    /// GC trigger: collect when the free-block fraction drops below this.
    pub low: f64,
    /// GC hysteresis: keep collecting until the free fraction reaches this.
    pub high: f64,
    /// Free blocks withheld from foreground allocation for GC migration
    /// (deadlock guard).
    pub reserve_blocks: u32,
    /// Default [`SsdConfig::gc_urgent_fraction`]: halfway between the hard
    /// reserve and the low watermark — enough headroom that whole-victim
    /// catch-up can still clear the trigger before the allocator stalls.
    pub urgent_fraction: f64,
}

impl GcThresholds {
    /// The thresholds of `flash`.
    pub fn of(flash: &UllConfig) -> Self {
        let geom = flash.geometry();
        let total_blocks = geom.total_blocks();
        // Blocks needed to hold the full logical space, and what remains.
        let logical_blocks =
            (flash.logical_pages() as f64 / geom.pages_per_block as f64).ceil() as u32;
        let op_blocks = total_blocks.saturating_sub(logical_blocks).max(4);
        // 1% of blocks, at least 4: enough to absorb one worst-case
        // victim's valid pages plus rotation of both GC frontiers.
        let reserve_blocks = (total_blocks / 100).max(4);
        let low_blocks = reserve_blocks as f64 + flash.gc_watermark * op_blocks as f64;
        let high_blocks = low_blocks + (0.1 * op_blocks as f64).max(3.0);
        Self {
            low: (low_blocks / total_blocks as f64).min(0.90),
            high: (high_blocks / total_blocks as f64).min(0.95),
            reserve_blocks,
            urgent_fraction: ((reserve_blocks as f64 + 0.05 * op_blocks as f64)
                / total_blocks as f64)
                .min(0.85),
        }
    }
}

impl SsdConfig {
    /// Controller-only service for a read of an unmapped LPN.
    pub const READ_MISS_NS: Nanos = us(1);
    /// Fingerprint index probe/update cost on the critical path.
    pub const LOOKUP_NS: Nanos = us(1);
    /// Controller metadata cost to service one trim request (no die work:
    /// a trim touches mapping tables only, never NAND).
    pub const TRIM_NS: Nanos = us(1);
    /// Gap since the last completion that counts as "the system is idle"
    /// ([`Self::idle_gc`]).
    pub const IDLE_THRESHOLD_NS: Nanos = us(500);
    /// Per-page pre-hash cost for [`Scheme::InlineSampled`] (a cheap CRC
    /// computed by the controller; CAFTL-style).
    pub const PREHASH_NS: Nanos = us(2);
    /// Simulated controller time charged per program retry (frontier
    /// close + re-allocate + re-issue).
    pub const PROGRAM_RETRY_BACKOFF_NS: Nanos = us(20);
    /// Read ECC handling: device re-reads attempted before the heroic
    /// soft-decode path.
    pub const MAX_READ_RETRIES: u32 = 2;
    /// Simulated cost of the heroic ECC soft-decode invoked when re-reads
    /// keep failing (the data is always recovered; only time is lost).
    pub const ECC_DECODE_NS: Nanos = us(5);

    /// The paper's configuration for a given scheme at the given device
    /// scale. Its GC trigger is [`GcThresholds::of`] the flash config.
    pub fn paper(flash: UllConfig, scheme: Scheme) -> Self {
        Self {
            flash,
            scheme,
            victim: VictimKind::Greedy,
            victim_seed: 0xCA6C,
            cold_threshold: 1,
            honor_trim: true,
            overlap_hash: true,
            placement: true,
            idle_gc: false,
            faults: FaultConfig::none(),
            max_program_retries: 4,
            read_only_floor_blocks: 4,
            gc_preempt: false,
            gc_slice_pages: 8,
            gc_urgent_fraction: GcThresholds::of(&flash).urgent_fraction,
        }
    }

    /// Paper config on the tiny test device.
    pub fn tiny(scheme: Scheme) -> Self {
        Self::paper(UllConfig::tiny_for_tests(), scheme)
    }

    /// Sanity-check the configuration; called by the simulator constructor.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..).contains(&self.flash.gc_watermark) {
            return Err(format!("gc_watermark {} must be >= 0", self.flash.gc_watermark));
        }
        let gc = GcThresholds::of(&self.flash);
        let blocks = self.flash.geometry().total_blocks();
        if gc.reserve_blocks + 2 >= blocks {
            return Err(format!(
                "{blocks} blocks are too few for a GC reserve of {} plus two write frontiers",
                gc.reserve_blocks
            ));
        }
        if self.scheme == Scheme::Cagc && self.cold_threshold == 0 {
            return Err("cold_threshold 0 would send every page cold".into());
        }
        if self.gc_preempt {
            if self.gc_slice_pages == 0 {
                return Err("gc_slice_pages must be >= 1".into());
            }
            if !(0.0 < self.gc_urgent_fraction && self.gc_urgent_fraction <= gc.low) {
                return Err(format!(
                    "gc_urgent_fraction {} must sit in (0, low watermark {}]",
                    self.gc_urgent_fraction, gc.low
                ));
            }
        }
        self.faults.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SsdConfig::tiny(Scheme::Cagc);
        assert_eq!(c.victim, VictimKind::Greedy);
        assert_eq!(c.cold_threshold, 1);
        assert!(c.overlap_hash && c.placement);
        // The 20% watermark applies to the OP pool: the low trigger sits
        // between the GC reserve and the reserve plus all OP blocks.
        let gc = GcThresholds::of(&c.flash);
        let total = c.flash.geometry().total_blocks() as f64;
        let low_blocks = gc.low * total;
        assert!(low_blocks > gc.reserve_blocks as f64);
        assert!(low_blocks < total * c.flash.op_ratio + gc.reserve_blocks as f64 + 2.0);
        assert!(gc.high > gc.low);
        assert_eq!(c.gc_urgent_fraction, gc.urgent_fraction);
        c.validate().unwrap();
    }

    #[test]
    fn trims_are_honored_by_default() {
        let c = SsdConfig::tiny(Scheme::Baseline);
        assert!(c.honor_trim, "paper config honors trim hints");
        const { assert!(SsdConfig::TRIM_NS > 0, "trim service has an explicit metadata cost") };
    }

    #[test]
    fn scheme_names_match_figures() {
        assert_eq!(Scheme::Baseline.name(), "Baseline");
        assert_eq!(Scheme::InlineDedup.name(), "Inline-Dedupe");
        assert_eq!(Scheme::Cagc.name(), "CAGC");
    }

    #[test]
    fn validation_catches_a_negative_watermark() {
        let mut c = SsdConfig::tiny(Scheme::Baseline);
        c.flash.gc_watermark = -0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_a_geometry_too_small_for_its_reserve() {
        // Six blocks: the 4-block reserve plus two frontiers leave nothing.
        let mut c = SsdConfig::tiny(Scheme::Baseline);
        (c.flash.channels, c.flash.dies_per_channel, c.flash.blocks_per_plane) = (1, 1, 6);
        let err = c.validate().unwrap_err();
        assert!(err.contains("too few"), "{err}");
        c.flash.blocks_per_plane = 7;
        c.validate().unwrap();
    }

    #[test]
    fn default_config_has_no_faults() {
        let c = SsdConfig::tiny(Scheme::Cagc);
        assert!(!c.faults.is_active(), "paper config is fault-free");
        assert!(c.faults.crash_at_op.is_none());
        assert!(c.max_program_retries >= 1);
        c.validate().unwrap();
    }

    #[test]
    fn preempt_knobs_default_off_and_validate() {
        let mut c = SsdConfig::tiny(Scheme::Cagc);
        assert!(!c.gc_preempt, "preemption must default off (byte-identical baseline)");
        c.gc_preempt = true;
        c.validate().unwrap();
        let low = GcThresholds::of(&c.flash).low;
        assert!(0.0 < c.gc_urgent_fraction && c.gc_urgent_fraction <= low);
        c.gc_slice_pages = 0;
        assert!(c.validate().is_err());
        c.gc_slice_pages = 8;
        c.gc_urgent_fraction = low + 0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_fault_probabilities() {
        let mut c = SsdConfig::tiny(Scheme::Baseline);
        c.faults.program_fail_prob = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_threshold_for_cagc() {
        let mut c = SsdConfig::tiny(Scheme::Cagc);
        c.cold_threshold = 0;
        assert!(c.validate().is_err());
        let mut b = SsdConfig::tiny(Scheme::Baseline);
        b.cold_threshold = 0; // irrelevant for baseline
        assert!(b.validate().is_ok());
    }
}
