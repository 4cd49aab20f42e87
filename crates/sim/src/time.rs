//! Simulated time base.
//!
//! All simulated time in this workspace is expressed in **nanoseconds** as a
//! plain `u64` ([`Nanos`]). A `u64` nanosecond clock wraps after ~584 years
//! of simulated time, far beyond any trace replay, and keeps arithmetic in
//! the hot path branch-free and cheap (no checked newtype).

/// Simulated time or duration, in nanoseconds.
pub type Nanos = u64;

/// `n` nanoseconds.
#[inline]
pub const fn ns(n: u64) -> Nanos {
    n
}

/// `n` microseconds as [`Nanos`].
#[inline]
pub const fn us(n: u64) -> Nanos {
    n * 1_000
}

/// `n` milliseconds as [`Nanos`].
#[inline]
pub const fn ms(n: u64) -> Nanos {
    n * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_scale() {
        assert_eq!(ns(7), 7);
        assert_eq!(us(1), 1_000);
        assert_eq!(us(12), 12_000);
        assert_eq!(ms(1), 1_000_000);
    }

    #[test]
    fn table1_latencies_in_nanos() {
        // The paper's Table I parameters, sanity-checked in nanoseconds.
        assert_eq!(us(12), 12_000); // read
        assert_eq!(us(16), 16_000); // write
        assert_eq!(ms(1) + us(500), 1_500_000); // erase 1.5ms
        assert_eq!(us(14), 14_000); // hash
    }
}
