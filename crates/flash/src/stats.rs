//! Device-level operation counters.

use cagc_sim::time::Nanos;

/// Counters maintained by [`crate::FlashDevice`] across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Page reads issued.
    pub reads: u64,
    /// Page programs issued.
    pub programs: u64,
    /// Block erases issued.
    pub erases: u64,
    /// Pages invalidated by host trim (deallocations; metadata-only, so
    /// they contribute no busy time — see `FlashDevice::deallocate`).
    pub trimmed_pages: u64,
    /// Total die-busy time consumed by reads.
    pub read_busy_ns: Nanos,
    /// Total die-busy time consumed by programs.
    pub program_busy_ns: Nanos,
    /// Total die-busy time consumed by erases.
    pub erase_busy_ns: Nanos,
    /// Injected program failures (the attempt consumed a page and die time
    /// but stored nothing readable).
    pub program_failures: u64,
    /// Injected erase failures (each one retired its block).
    pub erase_failures: u64,
    /// Injected uncorrectable-ECC read errors (per attempt; retries that
    /// fail again count again).
    pub read_ecc_errors: u64,
    /// Blocks retired to the bad-block table.
    pub blocks_retired: u64,
    /// Mapping-delta records appended to the metadata journal.
    pub journal_appends: u64,
}

impl DeviceStats {
    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.programs + self.erases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let s = DeviceStats {
            reads: 2,
            programs: 3,
            erases: 1,
            trimmed_pages: 4,
            ..DeviceStats::default()
        };
        // Trims are metadata-only: they do not count as ops.
        assert_eq!(s.total_ops(), 6);
    }
}
