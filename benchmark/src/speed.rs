//! Machine-speed reference.
//!
//! The sandbox is a small shared VM whose speed shifts by 10-35 % in bursts
//! of seconds to minutes. Raw host times taken in a fast and in a slow
//! spell cannot be compared, so every timed section is bracketed by a fixed
//! reference kernel and reported at *reference speed*: wall x (nominal
//! kernel time / measured kernel time).
//!
//! The kernel is this file and nothing else: no code of the repository
//! runs in it, so no change to the repository can move it. Like the
//! simulator it is bound by dependent random accesses to a working set
//! that outgrows the private caches (16 MiB), with a little arithmetic per
//! access. Over four sessions of ten runs per workload, normalising cut
//! the run-to-run spread of `req_per_s` from 0.08-0.31 to 0.04-0.17 and
//! the drift of a workload's median between sessions from 15-21 % to
//! 2-12 % (`../README.md`, "Reference machine speed").

use std::time::Instant;

/// Kernel time that counts as speed 1. The value only fixes the unit of
/// the normalised figures (it is what this sandbox takes on a quiet day).
pub const NOMINAL_MS: f64 = 40.0;

const WORDS: usize = 1 << 21;
const STEPS: u32 = 6_000_000;

pub struct Kernel {
    buf: Vec<u64>,
    state: u64,
}

impl Kernel {
    pub fn new() -> Self {
        Self {
            buf: (0..WORDS as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Wall time of one kernel run in milliseconds: the median of `reps`
    /// runs, which a blip shorter than a run cannot move.
    pub fn sample_ms(&mut self, reps: usize) -> f64 {
        let runs: Vec<f64> = (0..reps).map(|_| self.run_ms()).collect();
        crate::stats::median(&runs)
    }

    fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc ^ x;
        }
        self.state = x ^ std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel runs on each side of a timed section of `wall_s` seconds: about
/// 4 % of its length, at least one. Two 40 ms samples say little about the
/// machine during a 3 s `paper_grid` iteration; over 16 runs of it, three
/// on each side cut the run-to-run spread from 12 % to 7-9 %.
pub fn reps_for(wall_s: f64) -> usize {
    (wall_s.round() as usize).clamp(1, 5)
}

/// Factor that turns a wall time into a wall time at reference speed,
/// given the kernel times measured just before and just after it.
pub fn to_reference(before_ms: f64, after_ms: f64) -> f64 {
    NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_machine_shrinks_walls_and_a_fast_one_stretches_them() {
        assert_eq!(to_reference(NOMINAL_MS, NOMINAL_MS), 1.0);
        assert_eq!(to_reference(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS), 0.5);
        assert_eq!(to_reference(0.5 * NOMINAL_MS, 0.5 * NOMINAL_MS), 2.0);
        assert_eq!(to_reference(30.0, 50.0), 1.0);
    }

    #[test]
    fn longer_sections_get_more_kernel_runs() {
        assert_eq!(reps_for(0.28), 1);
        assert_eq!(reps_for(1.2), 1);
        assert_eq!(reps_for(2.9), 3);
        assert_eq!(reps_for(60.0), 5);
    }

    #[test]
    fn the_kernel_takes_time_and_keeps_walking() {
        let mut kernel = Kernel::new();
        let first = kernel.state;
        assert!(kernel.sample_ms(2) > 0.0);
        assert_ne!(kernel.state, first);
    }
}
