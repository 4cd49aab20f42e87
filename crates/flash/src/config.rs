//! Table I device configurations.

use crate::geometry::Geometry;
use crate::timing::Timing;

/// The paper's SSD configuration (Table I), parameterized by scale.
///
/// Table I specifies: 4 KB pages, 256 KB blocks (→ 64 pages/block), 7 %
/// over-provisioning, 80 GB capacity, 12/16 µs read/write, 1.5 ms erase,
/// 14 µs hash, 20 % GC watermark. The full 80 GB shape needs ~20 M pages of
/// state; experiments in this repository default to a scaled-down device
/// with identical block shape, OP ratio and timing — all reported results
/// are ratios, which EXPERIMENTS.md shows are insensitive to this scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UllConfig {
    /// Channels.
    pub channels: u32,
    /// Dies per channel.
    pub dies_per_channel: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block (Table I: 64).
    pub pages_per_block: u32,
    /// Page size in bytes (Table I: 4096).
    pub page_size: u32,
    /// Over-provisioning ratio (Table I: 0.07).
    pub op_ratio: f64,
    /// GC trigger watermark (Table I: 0.20), as a fraction of the
    /// over-provisioning pool: `cagc_core::GcThresholds` derives the GC
    /// trigger from it.
    pub gc_watermark: f64,
    /// Per-page hash (fingerprint) latency (Table I: 14 µs).
    pub hash_ns: u64,
    /// NAND timing.
    pub timing: Timing,
}

impl UllConfig {
    /// Table I at full 80 GB scale: 8 channels × 4 dies × 1 plane ×
    /// 10240 blocks/plane × 64 pages × 4 KB = 80 GB. Heavy (≈20 M pages);
    /// prefer [`UllConfig::scaled_gb`] for routine runs.
    pub fn table1_full() -> Self {
        Self {
            channels: 8,
            dies_per_channel: 4,
            planes_per_die: 1,
            blocks_per_plane: 10240,
            pages_per_block: 64,
            page_size: 4096,
            op_ratio: 0.07,
            gc_watermark: 0.20,
            hash_ns: 14_000,
            timing: Timing::ull(),
        }
    }

    /// Table I shape scaled to roughly `gb` gigabytes (same channels/dies,
    /// fewer blocks per plane). `gb` is clamped to at least 1.
    pub fn scaled_gb(gb: u32) -> Self {
        let gb = gb.max(1);
        let mut c = Self::table1_full();
        // 80 GB ⇒ 10240 blocks/plane, linear in capacity.
        c.blocks_per_plane = (10240u64 * gb as u64 / 80).max(8) as u32;
        c
    }

    /// A small config for unit/integration tests: 2 ch × 2 dies × 64
    /// blocks/plane × 32 pages = 32 MiB, same ratios and timing as Table I.
    pub fn tiny_for_tests() -> Self {
        Self {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 32,
            page_size: 4096,
            op_ratio: 0.07,
            gc_watermark: 0.20,
            hash_ns: 14_000,
            timing: Timing::ull(),
        }
    }

    /// The geometry this configuration describes.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(
            self.channels,
            self.dies_per_channel,
            self.planes_per_die,
            self.blocks_per_plane,
            self.pages_per_block,
            self.page_size,
        )
    }

    /// The NAND timing.
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Number of logical pages exported to the host:
    /// `total_pages × (1 − op_ratio)`, rounded down.
    pub fn logical_pages(&self) -> u64 {
        let total = self.geometry().total_pages();
        (total as f64 * (1.0 - self.op_ratio)).floor() as u64
    }

    /// Raw physical capacity in bytes.
    pub fn physical_bytes(&self) -> u64 {
        self.geometry().capacity_bytes()
    }

    /// Logical (host-visible) capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages() * self.page_size as u64
    }
}

impl Default for UllConfig {
    fn default() -> Self {
        // Default scale for experiments: ~2 GB keeps per-run memory modest
        // while leaving thousands of blocks for GC dynamics.
        Self::scaled_gb(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_full_is_80_gb() {
        let c = UllConfig::table1_full();
        assert_eq!(c.physical_bytes(), 80 * 1024 * 1024 * 1024);
        assert_eq!(c.pages_per_block * c.page_size, 256 * 1024); // 256KB blocks
    }

    #[test]
    fn logical_capacity_reflects_op() {
        let c = UllConfig::tiny_for_tests();
        let total = c.geometry().total_pages();
        let logical = c.logical_pages();
        let op = 1.0 - logical as f64 / total as f64;
        assert!((op - 0.07).abs() < 0.01, "OP ratio drifted: {op}");
    }

    #[test]
    fn scaled_config_preserves_ratios() {
        let c = UllConfig::scaled_gb(2);
        assert_eq!(c.pages_per_block, 64);
        assert_eq!(c.page_size, 4096);
        assert!((c.op_ratio - 0.07).abs() < 1e-12);
        assert!((c.gc_watermark - 0.20).abs() < 1e-12);
        let gb = c.physical_bytes() as f64 / (1u64 << 30) as f64;
        assert!((gb - 2.0).abs() < 0.1, "scaled to {gb} GB");
    }

    #[test]
    fn scaled_gb_clamps_to_minimum() {
        let c = UllConfig::scaled_gb(0);
        assert!(c.blocks_per_plane >= 8);
    }

    #[test]
    fn tiny_config_is_actually_tiny() {
        let c = UllConfig::tiny_for_tests();
        assert!(c.physical_bytes() <= 64 * 1024 * 1024);
        assert!(c.geometry().total_blocks() >= 128); // still enough for GC
    }

    #[test]
    fn hash_latency_matches_table1() {
        assert_eq!(UllConfig::table1_full().hash_ns, 14_000);
    }
}
