//! The device-size gate: GC cost per round must not grow with the device.
//!
//! The same 256 GC rounds (select the Greedy victim, drain it, erase it,
//! refill it, invalidate as many pages elsewhere) run on a 4 096-block
//! (1 GB) and a 32 768-block (8 GB) [`FlashDevice`] held at 85 % valid.
//! Nothing in a round may walk the blocks, so the two medians differ by
//! what the larger arrays cost in cache misses and by the tie-break over a
//! fuller lowest bucket; a victim search that walks the device shows up as
//! a multiple on the 8 GB case. The gate is the ratio of the two medians
//! inside one run, so machine speed cancels and no baseline is kept
//! (docs/PERFORMANCE.md, "Gates"). Competing load only ever inflates wall
//! time, so one quiet attempt in three is proof enough.
//!
//! ```bash
//! cargo bench --offline -p cagc-flash --bench device_size
//! ```

use cagc_flash::{FlashDevice, PageOob, PageState, UllConfig};
use cagc_sim::SimRng;
use std::time::Instant;

const ROUNDS: usize = 256;
const WARMUPS: usize = 3;
const SAMPLES: usize = 10;
const ATTEMPTS: usize = 3;
/// The 8 GB median may cost at most this multiple of the 1 GB median.
const MAX_RATIO: f64 = 3.3;

struct Churn {
    dev: FlashDevice,
    rng: SimRng,
}

impl Churn {
    /// A `gb`-sized device with every block full and 15 % of the pages invalid.
    fn aged(gb: u32) -> Self {
        let cfg = UllConfig::scaled_gb(gb);
        let geom = cfg.geometry();
        let mut churn = Churn {
            dev: FlashDevice::new(geom, cfg.timing()),
            rng: SimRng::seed_from_u64(u64::from(gb)),
        };
        for b in 0..geom.total_blocks() {
            for _ in 0..geom.pages_per_block {
                churn.dev.program_next(b, 0, PageOob::gc(None)).expect("fresh block");
            }
        }
        for _ in 0..geom.total_pages() * 15 / 100 {
            churn.invalidate_random_valid_page();
        }
        churn
    }

    fn invalidate_random_valid_page(&mut self) {
        loop {
            let ppn = self.rng.gen_range_u64(0..self.dev.geometry().total_pages());
            if self.dev.page_state(ppn) == PageState::Valid {
                return self.dev.invalidate(ppn, 0);
            }
        }
    }

    fn rounds(&mut self) {
        let geom = *self.dev.geometry();
        for _ in 0..ROUNDS {
            let victim = self.dev.greedy_full_victim().expect("an aged device has a victim");
            let base = geom.ppn(victim, 0);
            let mut moved = 0;
            for page in 0..geom.pages_per_block {
                if self.dev.page_state(base + u64::from(page)) == PageState::Valid {
                    self.dev.invalidate(base + u64::from(page), 0);
                    moved += 1;
                }
            }
            self.dev.erase(victim, 0).expect("drained victim");
            // The block takes the `moved` migrated pages plus host writes,
            // each of which overwrites a page somewhere else: the valid
            // population is stationary.
            for _ in 0..geom.pages_per_block {
                self.dev.program_next(victim, 0, PageOob::gc(None)).expect("erased block");
            }
            for _ in moved..geom.pages_per_block {
                self.invalidate_random_valid_page();
            }
        }
    }

    /// Median wall time of [`SAMPLES`] runs of [`Churn::rounds`], in µs.
    fn median_us(&mut self) -> f64 {
        for _ in 0..WARMUPS {
            self.rounds();
        }
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                self.rounds();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 2]
    }
}

fn main() {
    let (mut small, mut large) = (Churn::aged(1), Churn::aged(8));
    for attempt in 1..=ATTEMPTS {
        let (small_us, large_us) = (small.median_us(), large.median_us());
        let ratio = large_us / small_us;
        println!(
            "device_size attempt {attempt}: {ROUNDS} rounds at 1 GB {small_us:.0} us, \
             at 8 GB {large_us:.0} us, ratio {ratio:.2} (bound {MAX_RATIO})"
        );
        if ratio <= MAX_RATIO {
            println!("device_size: OK");
            return;
        }
    }
    eprintln!("FAIL: GC round cost grows with device size (docs/PERFORMANCE.md, \"Gates\")");
    std::process::exit(1);
}
