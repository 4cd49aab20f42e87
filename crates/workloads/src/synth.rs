//! Synthetic deduplicating workload generator.
//!
//! The FIU SyLab traces the paper replays are not redistributable, so this
//! generator synthesizes traces that match their *published aggregate
//! characteristics* (Table II): write ratio, dedup ratio and mean request
//! size — plus the two skews that drive FTL dynamics: LPN access locality
//! (hot logical pages are overwritten repeatedly) and content popularity
//! (a few contents are shared by many logical pages, accumulating high
//! reference counts, per Fig. 6).
//!
//! ## Content model
//!
//! Every written page draws its content as follows: with probability
//! `dedup_ratio` it *reuses* an already-written content, sampled Zipf-style
//! over the contents in first-appearance order (early contents stay popular);
//! otherwise it is a fresh, globally unique content. The realized
//! write-stream redundancy therefore converges to `dedup_ratio` by
//! construction, and reference-count skew emerges naturally — exactly the
//! two properties the CAGC experiments depend on.

use crate::trace::{RequestView, Requests, Trace};
use crate::zipf::Zipf;
use cagc_dedup::ContentId;
use cagc_sim::SimRng;

/// Parameters of a synthetic workload.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Workload name carried into the trace.
    pub name: String,
    /// Requests to generate *after* the prefill phase.
    pub requests: usize,
    /// Logical page space addressed by the trace.
    pub logical_pages: u64,
    /// Fraction of non-trim requests that are writes (Table II).
    pub write_ratio: f64,
    /// Target fraction of written pages whose content already exists
    /// (Table II "Dedup. Ratio").
    pub dedup_ratio: f64,
    /// Mean request size in pages (geometric; Table II "Aver. Req. Size").
    pub mean_req_pages: f64,
    /// Upper clamp on request size.
    pub max_req_pages: u32,
    /// Zipf skew of logical page access (overwrite locality).
    pub lpn_theta: f64,
    /// Zipf skew of duplicate-content choice (reference-count skew).
    pub content_theta: f64,
    /// Fraction of all requests that are trims (file deletions).
    pub trim_ratio: f64,
    /// Long-run mean interarrival gap (bursts redistribute arrivals within
    /// this budget; they do not change the average rate).
    pub mean_interarrival_ns: u64,
    /// Mean burst length in requests (geometric). Real block traces arrive
    /// in dense bursts separated by idle gaps; 1 disables bursting and
    /// yields plain exponential arrivals.
    pub burst_mean: f64,
    /// Gap between consecutive requests inside a burst.
    pub burst_gap_ns: u64,
    /// Fraction of the logical space written once, sequentially, before the
    /// timed phase (brings the device to steady state so GC is active).
    pub prefill_fraction: f64,
    /// Prefill pacing in ns per page. The default (35 µs) sits below the
    /// slowest ULL write path (inline dedup: hash 14 + lookup 1 + program
    /// 16 µs serialized); raise it when simulating slower media so the
    /// bulk load doesn't queue into the timed phase.
    pub prefill_gap_ns_per_page: u64,
    /// PRNG seed — same seed, same trace, bit for bit.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            name: "synthetic".into(),
            requests: 50_000,
            logical_pages: 1 << 16,
            write_ratio: 0.75,
            dedup_ratio: 0.5,
            mean_req_pages: 4.0,
            max_req_pages: 64,
            lpn_theta: 0.9,
            content_theta: 0.85,
            trim_ratio: 0.02,
            mean_interarrival_ns: 100_000,
            burst_mean: 8.0,
            burst_gap_ns: 5_000,
            prefill_fraction: 0.95,
            prefill_gap_ns_per_page: 35_000,
            seed: 42,
        }
    }
}

impl SynthConfig {
    /// Check the parameters [`Self::generate`] needs: a non-empty space,
    /// ratios in `[0, 1]`, a mean request of at least one page, and both
    /// Zipf skews in `[0, 1)`. The error names the first bad field.
    pub fn validate(&self) -> Result<(), String> {
        let name = &self.name;
        if self.logical_pages == 0 {
            return Err(format!("synthetic trace `{name}`: empty logical space"));
        }
        for (field, v) in [
            ("write_ratio", self.write_ratio),
            ("dedup_ratio", self.dedup_ratio),
            ("trim_ratio", self.trim_ratio),
            ("prefill_fraction", self.prefill_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("synthetic trace `{name}`: {field} {v} outside [0,1]"));
            }
        }
        let v = self.mean_req_pages;
        if !(1.0..).contains(&v) {
            return Err(format!("synthetic trace `{name}`: mean_req_pages {v} must be >= 1"));
        }
        for (field, v) in [("lpn_theta", self.lpn_theta), ("content_theta", self.content_theta)] {
            if !(0.0..1.0).contains(&v) {
                return Err(format!("synthetic trace `{name}`: {field} {v} outside [0,1)"));
            }
        }
        Ok(())
    }

    /// Generate the trace.
    ///
    /// # Panics
    /// Panics with [`Self::validate`]'s message on nonsensical parameters.
    pub fn generate(&self) -> Trace {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }

        let mut rng = SimRng::seed_from_u64(self.seed);
        let lpn_zipf = Zipf::new(self.lpn_theta);
        let content_zipf = Zipf::new(self.content_theta);
        let mut gen = ContentGen::new(self.dedup_ratio, content_zipf);
        let prefill_pages = (self.logical_pages as f64 * self.prefill_fraction) as u64;
        let mut requests = self.reserve(prefill_pages);
        let mut now: u64 = 0;
        let fits = |pushed: Result<(), String>| {
            pushed.unwrap_or_else(|e| panic!("synthetic trace `{}`: {e}", self.name))
        };

        // ---- Prefill: sequential first write of the working set, using
        // the workload's own request-size distribution so trace-level
        // statistics (Table II) aren't skewed by oversized bulk chunks. ----
        let mut lpn = 0u64;
        while lpn < prefill_pages {
            let pages = (self.draw_len(&mut rng) as u64).min(prefill_pages - lpn) as u32;
            let contents = (0..pages).map(|_| gen.next_content(&mut rng));
            fits(requests.push_write(now, lpn, pages, contents));
            now += pages as u64 * self.prefill_gap_ns_per_page;
            lpn += pages as u64;
        }

        // ---- Timed phase. ----
        // Arrivals are bursty: a geometric number of requests arrive
        // `burst_gap_ns` apart, then an idle period restores the long-run
        // mean rate. `remaining_in_burst == 0` starts a new burst.
        let mut remaining_in_burst = 0u32;
        for _ in 0..self.requests {
            if remaining_in_burst == 0 {
                let len = geometric(self.burst_mean.max(1.0), &mut rng);
                // Idle gap sized so the burst's requests still average
                // `mean_interarrival_ns` apiece over burst + idle.
                let budget = self.mean_interarrival_ns * len as u64;
                let in_burst = self.burst_gap_ns * (len as u64 - 1);
                now += exp_gap(budget.saturating_sub(in_burst).max(1), &mut rng);
                remaining_in_burst = len;
            } else {
                now += self.burst_gap_ns;
            }
            remaining_in_burst -= 1;
            let pages = self.draw_len(&mut rng);
            let start = self.draw_lpn(pages, &lpn_zipf, &mut rng);
            let r = rng.next_f64();
            fits(if r < self.trim_ratio {
                requests.push(RequestView::trim(now, start, pages))
            } else if r < self.trim_ratio + self.write_share() {
                let contents = (0..pages).map(|_| gen.next_content(&mut rng));
                requests.push_write(now, start, pages, contents)
            } else {
                requests.push(RequestView::read(now, start, pages))
            });
        }

        Trace::from_requests(self.name.clone(), self.logical_pages, requests)
            .unwrap_or_else(|e| panic!("invalid trace `{}`: {e}", self.name))
    }

    /// Fraction of all timed requests that are writes.
    fn write_share(&self) -> f64 {
        (1.0 - self.trim_ratio) * self.write_ratio
    }

    /// An arena sized from the configuration's expected request and page
    /// counts plus a little slack, so synthesis fills it without
    /// reallocating; [`Trace::from_requests`] returns what is left over.
    fn reserve(&self, prefill_pages: u64) -> Requests {
        // `draw_len` is a geometric draw with success probability p,
        // clamped at `cap` (never below its first page): its mean is
        // (1 - (1 - p)^cap) / p.
        let p = 1.0 / self.mean_req_pages;
        let cap = self.max_req_pages.max(1).min(self.logical_pages as u32).max(1);
        let mean_len = (1.0 - (1.0 - p).powi(cap as i32)) / p;
        let with_slack = |n: f64| (n * 1.03) as usize + 64;
        let prefill_requests = prefill_pages as f64 / mean_len;
        let timed_pages = self.requests as f64 * self.write_share() * mean_len;
        Requests::with_capacity(
            with_slack(prefill_requests + self.requests as f64),
            with_slack(prefill_pages as f64 + timed_pages),
        )
    }

    fn draw_len(&self, rng: &mut SimRng) -> u32 {
        // Geometric with mean `mean_req_pages`, clamped to the space.
        let p = 1.0 / self.mean_req_pages;
        let mut len = 1u32;
        let cap = self.max_req_pages.max(1).min(self.logical_pages as u32);
        while len < cap && rng.next_f64() > p {
            len += 1;
        }
        len
    }

    fn draw_lpn(&self, pages: u32, zipf: &Zipf, rng: &mut SimRng) -> u64 {
        // Zipf rank, scattered across the space by a multiplicative hash so
        // hot pages do not clump into a few physical blocks artificially.
        let rank = zipf.sample(self.logical_pages, rng);
        let base = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.logical_pages;
        base.min(self.logical_pages - pages as u64)
    }
}

/// Draws page contents with a target duplicate probability.
struct ContentGen {
    dedup_ratio: f64,
    zipf: Zipf,
    /// Contents issued so far are ids `0..next_unique`: a Zipf rank is an id.
    next_unique: u64,
}

impl ContentGen {
    fn new(dedup_ratio: f64, zipf: Zipf) -> Self {
        Self { dedup_ratio, zipf, next_unique: 0 }
    }

    fn next_content(&mut self, rng: &mut SimRng) -> ContentId {
        if self.next_unique > 0 && rng.next_f64() < self.dedup_ratio {
            ContentId(self.zipf.sample(self.next_unique, rng))
        } else {
            self.next_unique += 1;
            ContentId(self.next_unique - 1)
        }
    }
}

fn exp_gap(mean_ns: u64, rng: &mut SimRng) -> u64 {
    if mean_ns == 0 {
        return 0;
    }
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    (-u.ln() * mean_ns as f64) as u64
}

/// Geometric draw with the given mean (support `1..`).
fn geometric(mean: f64, rng: &mut SimRng) -> u32 {
    let p = 1.0 / mean.max(1.0);
    let mut n = 1u32;
    while n < 10_000 && rng.next_f64() > p {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpKind, Record};
    use std::collections::HashSet;
    use std::mem::size_of;

    fn quick(cfg: SynthConfig) -> Trace {
        cfg.generate()
    }

    #[test]
    fn generates_requested_volume() {
        let t = quick(SynthConfig { requests: 1000, ..Default::default() });
        // prefill + timed phase
        assert!(t.len() > 1000);
        t.validate().unwrap();
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SynthConfig { requests: 500, ..Default::default() };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = SynthConfig { seed: 43, ..cfg.clone() };
        assert_ne!(other.generate(), cfg.generate());
    }

    #[test]
    fn write_ratio_is_respected() {
        let t = quick(SynthConfig {
            requests: 20_000,
            write_ratio: 0.7,
            trim_ratio: 0.0,
            prefill_fraction: 0.0,
            ..Default::default()
        });
        let writes = t.requests.iter().filter(|r| r.kind == OpKind::Write).count();
        let ratio = writes as f64 / t.len() as f64;
        assert!((ratio - 0.7).abs() < 0.02, "write ratio {ratio}");
    }

    #[test]
    fn dedup_ratio_converges_to_target() {
        for target in [0.3, 0.5, 0.893] {
            let t = quick(SynthConfig {
                requests: 15_000,
                dedup_ratio: target,
                prefill_fraction: 0.0,
                ..Default::default()
            });
            let mut seen = HashSet::new();
            let mut dup = 0u64;
            let mut total = 0u64;
            for r in &t.requests {
                for c in r.contents {
                    total += 1;
                    if !seen.insert(*c) {
                        dup += 1;
                    }
                }
            }
            let realized = dup as f64 / total as f64;
            assert!(
                (realized - target).abs() < 0.03,
                "target {target}, realized {realized}"
            );
        }
    }

    #[test]
    fn mean_request_size_tracks_config() {
        let t = quick(SynthConfig {
            requests: 20_000,
            mean_req_pages: 3.7,
            prefill_fraction: 0.0,
            ..Default::default()
        });
        let mean =
            t.requests.iter().map(|r| r.pages as f64).sum::<f64>() / t.len() as f64;
        assert!((mean - 3.7).abs() < 0.25, "mean req pages {mean}");
    }

    #[test]
    fn prefill_covers_the_working_set() {
        let t = quick(SynthConfig {
            requests: 0,
            prefill_fraction: 0.5,
            logical_pages: 10_000,
            ..Default::default()
        });
        let covered: u64 = t.requests.iter().map(|r| r.pages as u64).sum();
        assert!((covered as f64 - 5_000.0).abs() < 64.0);
        // Prefill is sequential and non-overlapping.
        let mut seen = HashSet::new();
        for r in &t.requests {
            for l in r.lpns() {
                assert!(seen.insert(l), "prefill overlapped lpn {l}");
            }
        }
    }

    #[test]
    fn extents_always_in_range() {
        let t = quick(SynthConfig {
            requests: 5_000,
            logical_pages: 257, // awkward size
            max_req_pages: 64,
            ..Default::default()
        });
        for r in &t.requests {
            assert!(r.lpn + r.pages as u64 <= 257);
        }
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let t = quick(SynthConfig { requests: 2_000, ..Default::default() });
        assert!(t.requests.iter().zip(t.requests.iter().skip(1)).all(|(a, b)| a.at_ns <= b.at_ns));
    }

    #[test]
    fn the_reservation_covers_the_trace_it_is_made_for() {
        // Synthesis must fill its arena without growing it, then give the
        // slack back: the finished trace holds exactly its bytes.
        for (requests, write_ratio, prefill_fraction) in
            [(0, 0.75, 0.95), (3_000, 0.02, 0.6), (20_000, 1.0, 0.0)]
        {
            let cfg = SynthConfig { requests, write_ratio, prefill_fraction, ..Default::default() };
            let t = cfg.generate();
            let exact = size_of::<Record>() * t.len()
                + size_of::<ContentId>() * t.requests.contents_len();
            let prefill_pages = (cfg.logical_pages as f64 * prefill_fraction) as u64;
            assert!(cfg.reserve(prefill_pages).heap_bytes() >= exact, "{requests} requests");
            assert!(t.heap_bytes() <= exact + t.requests.run_table_bytes());
        }
    }

    #[test]
    fn hot_lpns_are_rewritten() {
        // With high skew, some LPN must be written many times.
        let t = quick(SynthConfig {
            requests: 10_000,
            lpn_theta: 0.95,
            prefill_fraction: 0.0,
            logical_pages: 1 << 14,
            ..Default::default()
        });
        let mut counts = std::collections::HashMap::new();
        for r in t.requests.iter().filter(|r| r.kind == OpKind::Write) {
            for l in r.lpns() {
                *counts.entry(l).or_insert(0u32) += 1;
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "no hot page found (max rewrites {max})");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_ratio_rejected() {
        quick(SynthConfig { dedup_ratio: 1.5, ..Default::default() });
    }

    #[test]
    fn validate_names_every_input_generate_cannot_take() {
        let ok = SynthConfig { requests: 10, ..Default::default() };
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (SynthConfig { logical_pages: 0, ..ok.clone() }, "empty logical space"),
            (SynthConfig { write_ratio: -0.1, ..ok.clone() }, "write_ratio -0.1 outside [0,1]"),
            (SynthConfig { dedup_ratio: 1.5, ..ok.clone() }, "dedup_ratio 1.5 outside [0,1]"),
            (SynthConfig { trim_ratio: f64::NAN, ..ok.clone() }, "trim_ratio NaN outside [0,1]"),
            (SynthConfig { prefill_fraction: 2.0, ..ok.clone() }, "prefill_fraction 2 outside"),
            (SynthConfig { mean_req_pages: 0.5, ..ok.clone() }, "mean_req_pages 0.5 must be"),
            (SynthConfig { mean_req_pages: f64::NAN, ..ok.clone() }, "mean_req_pages NaN"),
            (SynthConfig { lpn_theta: 1.0, ..ok.clone() }, "lpn_theta 1 outside [0,1)"),
            (SynthConfig { lpn_theta: -0.5, ..ok.clone() }, "lpn_theta -0.5 outside"),
            (SynthConfig { content_theta: 1.0, ..ok.clone() }, "content_theta 1 outside [0,1)"),
        ];
        for (cfg, want) in cases {
            let err = cfg.validate().expect_err(want);
            assert!(err.contains(want), "`{err}` does not name `{want}`");
            assert!(err.starts_with("synthetic trace `synthetic`"), "{err}");
            // `generate` panics with the same message, never a deeper one.
            let panic = std::panic::catch_unwind(|| cfg.generate()).expect_err(want);
            assert_eq!(panic.downcast_ref::<String>(), Some(&err));
        }
    }
}
