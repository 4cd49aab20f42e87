//! NAND operation latencies.

use cagc_sim::time::{ms, us, Nanos};

/// Latency parameters for one flash class.
///
/// The defaults mirror Table I of the paper (Samsung Z-NAND class,
/// ultra-low-latency): 12 µs page read, 16 µs page program, 1.5 ms block
/// erase. `bus_xfer_ns` models the channel transfer of one page and is kept
/// at zero by default (Table I folds transfer into the read/write service
/// times); it is exposed so channel-contention experiments can enable it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Page read latency (cell array → page register).
    pub read_ns: Nanos,
    /// Page program latency.
    pub program_ns: Nanos,
    /// Block erase latency.
    pub erase_ns: Nanos,
    /// Per-page channel transfer latency (0 = folded into read/program).
    pub bus_xfer_ns: Nanos,
}

impl Timing {
    /// Table I (ultra-low-latency, Z-NAND class): 12 µs / 16 µs / 1.5 ms.
    pub const fn ull() -> Self {
        Self { read_ns: us(12), program_ns: us(16), erase_ns: ms(1) + us(500), bus_xfer_ns: 0 }
    }

    /// A conventional high-performance NVMe SSD (for contrast experiments):
    /// ~50 µs read, ~500 µs program, 3.5 ms erase (cf. Sec. II-A, \[42\]).
    pub const fn conventional_nvme() -> Self {
        Self { read_ns: us(50), program_ns: us(500), erase_ns: ms(3) + us(500), bus_xfer_ns: 0 }
    }

    /// Flash time of a read: the cell read, then the page's transfer out.
    #[inline]
    pub const fn read_service(&self) -> Nanos {
        self.read_ns + self.bus_xfer_ns
    }
}

impl Default for Timing {
    fn default() -> Self {
        Self::ull()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ull_matches_table1() {
        let t = Timing::ull();
        assert_eq!(t.read_ns, 12_000);
        assert_eq!(t.program_ns, 16_000);
        assert_eq!(t.erase_ns, 1_500_000);
        assert_eq!(t.bus_xfer_ns, 0);
    }

    #[test]
    fn erase_is_orders_of_magnitude_above_page_ops() {
        // The paper's premise: erase is ms-scale vs us-scale page ops.
        let t = Timing::ull();
        assert!(t.erase_ns >= 50 * t.program_ns);
        assert!(t.erase_ns >= 100 * t.read_ns);
    }

    #[test]
    fn conventional_is_slower_than_ull_everywhere() {
        let c = Timing::conventional_nvme();
        let u = Timing::ull();
        assert!(c.read_ns > u.read_ns);
        assert!(c.program_ns > u.program_ns);
        assert!(c.erase_ns > u.erase_ns);
    }

    #[test]
    fn service_times_include_bus_transfer() {
        let t = Timing { bus_xfer_ns: 1_000, ..Timing::ull() };
        assert_eq!(t.read_service(), 13_000);
    }
}
