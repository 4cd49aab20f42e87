//! Victim-block selection policies (Sec. II-C, Sec. IV-C).
//!
//! Every policy scores the same snapshot, one [`VictimCandidate`] per
//! collectible block (valid / invalid / trimmed / stranded page counts,
//! erase count, last-modified time). The paper evaluates three:
//!
//! * **Random** — uniform over candidates (cheap, naturally wear-even)
//!   \[29\]; the floor every other policy is measured against (Fig. 13);
//! * **Greedy** — the most reclaimable pages \[10\]; the paper's default
//!   for all main experiments. Ties go by `cagc_flash::greedy_tie_break`:
//!   most *trimmed* pages (trim garbage cannot be re-validated, while
//!   overwrite garbage keeps accruing, so waiting is worth more there),
//!   then fewest erases, then lowest block id;
//! * **Cost-Benefit** — maximize `age × (1 − u) / 2u` where `u` is the
//!   valid-page utilization (Kawaguchi et al. \[16\]); age rewards cold
//!   blocks whose garbage has stopped growing, so it needs no trim term.
//!
//! Extensions ([`VictimKind::EXTENDED`]): **FIFO** (oldest last-modified)
//! and **D-Choices** (Greedy's key over a seeded sample of *d*
//! candidates — the scalable approximation). The full trim data path,
//! host op to victim score, is in `docs/TRIM.md`.

use cagc_flash::{greedy_tie_break, Block, BlockId};
use cagc_sim::time::Nanos;
use cagc_sim::SimRng;
use std::cmp::Reverse;

/// Snapshot of one candidate block at selection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCandidate {
    /// The block.
    pub block: BlockId,
    /// Currently valid pages (these must be migrated).
    pub valid: u32,
    /// Invalid pages (this is what erasing reclaims beyond free ones).
    pub invalid: u32,
    /// Invalid pages whose invalidation came from a host trim (always
    /// ≤ `invalid`). Trim garbage is *stable*: a trimmed page can never
    /// turn valid again, whereas an overwrite-hot block keeps gaining
    /// invalid pages if collection is deferred — so among equally-invalid
    /// blocks, the one with more trimmed pages is the better victim.
    pub trimmed: u32,
    /// Never-written pages stranded behind a closed write pointer. Zero in
    /// fault-free operation (frontiers close only when full), but program
    /// failures abandon suspect blocks mid-write and recovery re-closes
    /// every frontier, and those pages come back only through an erase —
    /// so they count toward the reclaim gain exactly like invalid ones.
    pub stranded: u32,
    /// Pages per block (for utilization).
    pub pages: u32,
    /// Times the block has been erased.
    pub erase_count: u32,
    /// Last time the block was written/invalidated.
    pub last_modified: Nanos,
}

impl VictimCandidate {
    /// The snapshot of block `block`, whose record is `blk`.
    pub fn of(block: BlockId, blk: &Block) -> Self {
        Self {
            block,
            valid: blk.valid_count(),
            invalid: blk.invalid_count(),
            trimmed: blk.trimmed_count(),
            stranded: blk.free_count(),
            pages: blk.pages(),
            erase_count: blk.erase_count(),
            last_modified: blk.last_modified(),
        }
    }

    /// Greedy ordering: the *smallest* key is the best victim. Max reclaim
    /// gain (invalid + stranded) first, then the device's
    /// [`greedy_tie_break`], which its victim index orders by too.
    fn greedy_key(&self) -> (Reverse<u32>, (Reverse<u32>, u32, BlockId)) {
        (
            Reverse(self.invalid + self.stranded),
            greedy_tie_break(self.trimmed, self.erase_count, self.block),
        )
    }
}

/// Which victim-selection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimKind {
    /// Uniform random over candidates.
    Random,
    /// Most invalid pages first (paper default).
    Greedy,
    /// Kawaguchi cost-benefit: `age (1-u) / 2u`.
    CostBenefit,
    /// Oldest block first (by last modification) — the log-structured
    /// baseline; cheap and naturally wear-even, but blind to utilization.
    Fifo,
    /// Power-of-d-choices greedy: sample `D_CHOICES` random candidates and
    /// take the most invalid. O(d) instead of O(n) per selection with
    /// near-greedy reclaim efficiency — the practical compromise used by
    /// production FTLs with very large block counts.
    DChoices,
}

impl VictimKind {
    /// The three algorithms the paper evaluates, in the order Fig. 13
    /// presents them.
    pub const ALL: [VictimKind; 3] =
        [VictimKind::Random, VictimKind::Greedy, VictimKind::CostBenefit];

    /// Every implemented algorithm (paper's three plus extensions).
    pub const EXTENDED: [VictimKind; 5] = [
        VictimKind::Random,
        VictimKind::Greedy,
        VictimKind::CostBenefit,
        VictimKind::Fifo,
        VictimKind::DChoices,
    ];

    /// Sample size for [`VictimKind::DChoices`].
    pub const D_CHOICES: usize = 8;

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            VictimKind::Random => "Random",
            VictimKind::Greedy => "Greedy",
            VictimKind::CostBenefit => "Cost-Benefit",
            VictimKind::Fifo => "FIFO",
            VictimKind::DChoices => "D-Choices",
        }
    }
}

/// A stateful victim selector (Random carries its RNG).
#[derive(Debug, Clone)]
pub struct VictimSelector {
    kind: VictimKind,
    rng: SimRng,
}

impl VictimSelector {
    /// A selector of the given kind; `seed` only matters for `Random`.
    pub fn new(kind: VictimKind, seed: u64) -> Self {
        Self { kind, rng: SimRng::seed_from_u64(seed) }
    }

    /// The algorithm this selector runs.
    pub fn kind(&self) -> VictimKind {
        self.kind
    }

    /// Choose a victim among `candidates` (the device's collectible blocks,
    /// `FlashDevice::collectible_blocks`). Returns `None` when there is
    /// nothing to reclaim.
    pub fn select(&mut self, candidates: &[VictimCandidate], now: Nanos) -> Option<BlockId> {
        if candidates.is_empty() {
            return None;
        }
        match self.kind {
            VictimKind::Random => {
                let i = self.rng.gen_range_usize(0..candidates.len());
                Some(candidates[i].block)
            }
            VictimKind::Greedy => {
                candidates.iter().min_by_key(|c| c.greedy_key()).map(|c| c.block)
            }
            VictimKind::CostBenefit => candidates
                .iter()
                .map(|c| (Self::cost_benefit_score(c, now), c))
                // max score; ties broken deterministically by id.
                .min_by(|(sa, ca), (sb, cb)| {
                    sb.partial_cmp(sa)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(ca.block.cmp(&cb.block))
                })
                .map(|(_, c)| c.block),
            VictimKind::Fifo => candidates
                .iter()
                .min_by_key(|c| (c.last_modified, c.block))
                .map(|c| c.block),
            VictimKind::DChoices => {
                let d = VictimKind::D_CHOICES.min(candidates.len());
                (0..d)
                    .map(|_| &candidates[self.rng.gen_range_usize(0..candidates.len())])
                    .min_by_key(|c| c.greedy_key())
                    .map(|c| c.block)
            }
        }
    }

    /// Kawaguchi benefit/cost: `age * (1 - u) / (2u)`, with `u` the valid
    /// utilization. A block with zero valid pages is free to reclaim —
    /// score +∞.
    fn cost_benefit_score(c: &VictimCandidate, now: Nanos) -> f64 {
        let u = c.valid as f64 / c.pages as f64;
        if u == 0.0 {
            return f64::INFINITY;
        }
        let age = now.saturating_sub(c.last_modified) as f64 + 1.0;
        age * (1.0 - u) / (2.0 * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(block: BlockId, valid: u32, invalid: u32, erases: u32, last: Nanos) -> VictimCandidate {
        VictimCandidate {
            block,
            valid,
            invalid,
            trimmed: 0,
            stranded: 0,
            pages: 64,
            erase_count: erases,
            last_modified: last,
        }
    }

    #[test]
    fn empty_candidates_give_none() {
        for kind in VictimKind::EXTENDED {
            let mut s = VictimSelector::new(kind, 1);
            assert_eq!(s.select(&[], 0), None);
        }
    }

    #[test]
    fn fifo_picks_the_oldest_block() {
        let mut s = VictimSelector::new(VictimKind::Fifo, 0);
        let cands = [cand(0, 10, 20, 0, 5_000), cand(1, 60, 4, 0, 1_000), cand(2, 5, 59, 0, 9_000)];
        // Block 1 is oldest despite being nearly full of valid data.
        assert_eq!(s.select(&cands, 10_000), Some(1));
    }

    #[test]
    fn d_choices_returns_a_candidate_and_tracks_greedy() {
        // Skewed invalid counts: d-choices should usually land near the
        // top of the distribution.
        let cands: Vec<VictimCandidate> = (0..200).map(|b| cand(b, 64 - (b % 65), b % 65, 0, 0)).collect();
        let mut s = VictimSelector::new(VictimKind::DChoices, 3);
        let mut total_invalid = 0u64;
        for _ in 0..200 {
            let pick = s.select(&cands, 0).expect("candidates exist");
            total_invalid += cands.iter().find(|c| c.block == pick).unwrap().invalid as u64;
        }
        let mean_pick = total_invalid as f64 / 200.0;
        let mean_all: f64 =
            cands.iter().map(|c| c.invalid as f64).sum::<f64>() / cands.len() as f64;
        assert!(
            mean_pick > mean_all * 1.5,
            "d-choices mean {mean_pick:.1} should beat uniform mean {mean_all:.1}"
        );
    }

    #[test]
    fn d_choices_is_seed_deterministic() {
        let cands: Vec<VictimCandidate> = (0..50).map(|b| cand(b, 32, 32, 0, 0)).collect();
        let run = |seed| {
            let mut s = VictimSelector::new(VictimKind::DChoices, seed);
            (0..20).map(|_| s.select(&cands, 0).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn greedy_picks_most_invalid() {
        let mut s = VictimSelector::new(VictimKind::Greedy, 0);
        let cands = [cand(0, 60, 4, 0, 0), cand(1, 2, 62, 0, 0), cand(2, 30, 34, 0, 0)];
        assert_eq!(s.select(&cands, 100), Some(1));
    }

    #[test]
    fn greedy_breaks_ties_by_wear_then_id() {
        let mut s = VictimSelector::new(VictimKind::Greedy, 0);
        let cands = [cand(5, 10, 20, 7, 0), cand(3, 10, 20, 2, 0), cand(4, 10, 20, 2, 0)];
        assert_eq!(s.select(&cands, 0), Some(3)); // least worn, lowest id
    }

    #[test]
    fn d_choices_breaks_ties_by_wear_like_greedy() {
        // All candidates tie on invalid and trimmed counts; block 3 is the
        // only low-wear block. D-choices samples with replacement, so block
        // 3 is in the sample ~67 % of the time (1 − (4/5)^5) — and whenever
        // it is, the wear tie-break must make it win. Far above the 20 %
        // a wear-blind tie-break (uniform over the sample) would give.
        let mut s = VictimSelector::new(VictimKind::DChoices, 13);
        let cands: Vec<VictimCandidate> =
            (0..5).map(|b| cand(b, 10, 20, if b == 3 { 1 } else { 9 }, 0)).collect();
        let picks_of_3 =
            (0..200).filter(|_| s.select(&cands, 0) == Some(3)).count();
        assert!(
            picks_of_3 > 100,
            "least-worn block won only {picks_of_3}/200 tied selections"
        );
    }

    #[test]
    fn greedy_counts_stranded_pages_as_reclaim_gain() {
        let mut s = VictimSelector::new(VictimKind::Greedy, 0);
        // Block 1 was abandoned mid-write after a program failure: only 4
        // invalid pages, but 40 stranded free ones behind the closed write
        // pointer. Erasing it reclaims 44 pages — more than block 0's 30.
        let abandoned = VictimCandidate { stranded: 40, ..cand(1, 20, 4, 0, 0) };
        let cands = [cand(0, 34, 30, 0, 0), abandoned];
        assert_eq!(s.select(&cands, 0), Some(1));
    }

    #[test]
    fn greedy_prefers_trim_garbage_among_equal_invalid() {
        let mut s = VictimSelector::new(VictimKind::Greedy, 0);
        // Same invalid count everywhere; block 7's garbage is mostly trimmed
        // pages, which can never revert to valid — collect it first.
        let trim_heavy = VictimCandidate { trimmed: 18, ..cand(7, 10, 20, 9, 0) };
        let cands = [cand(2, 10, 20, 0, 0), trim_heavy, cand(4, 10, 20, 0, 0)];
        assert_eq!(s.select(&cands, 0), Some(7));
    }

    #[test]
    fn greedy_still_ranks_invalid_above_trimmed() {
        let mut s = VictimSelector::new(VictimKind::Greedy, 0);
        // More reclaimable pages beats better-attributed garbage.
        let trim_heavy = VictimCandidate { trimmed: 20, ..cand(1, 40, 20, 0, 0) };
        let cands = [cand(0, 30, 30, 0, 0), trim_heavy];
        assert_eq!(s.select(&cands, 0), Some(0));
    }

    #[test]
    fn cost_benefit_prefers_empty_blocks_absolutely() {
        let mut s = VictimSelector::new(VictimKind::CostBenefit, 0);
        let cands = [cand(0, 0, 64, 0, 1_000_000), cand(1, 1, 63, 0, 0)];
        assert_eq!(s.select(&cands, 2_000_000), Some(0));
    }

    #[test]
    fn cost_benefit_weighs_age_against_utilization() {
        let mut s = VictimSelector::new(VictimKind::CostBenefit, 0);
        // Block 0: half utilized but ancient. Block 1: slightly emptier but
        // just written. Age should dominate here.
        let cands = [cand(0, 32, 32, 0, 0), cand(1, 30, 34, 0, 99_999_000)];
        assert_eq!(s.select(&cands, 100_000_000), Some(0));
    }

    #[test]
    fn random_is_seed_deterministic_and_covers_candidates() {
        let cands: Vec<VictimCandidate> = (0..10).map(|b| cand(b, 1, 63, 0, 0)).collect();
        let picks1: Vec<_> = {
            let mut s = VictimSelector::new(VictimKind::Random, 42);
            (0..50).map(|_| s.select(&cands, 0).unwrap()).collect()
        };
        let picks2: Vec<_> = {
            let mut s = VictimSelector::new(VictimKind::Random, 42);
            (0..50).map(|_| s.select(&cands, 0).unwrap()).collect()
        };
        assert_eq!(picks1, picks2, "same seed, same picks");
        let distinct: std::collections::HashSet<_> = picks1.iter().collect();
        assert!(distinct.len() > 3, "random policy should spread picks");
    }

    #[test]
    fn greedy_beats_random_on_reclaim_efficiency() {
        // Sanity: over a skewed candidate set, greedy reclaims strictly more
        // invalid pages per pick than random on average.
        let cands: Vec<VictimCandidate> =
            (0..16).map(|b| cand(b, 64 - b * 4, b * 4, 0, 0)).collect();
        let mut greedy = VictimSelector::new(VictimKind::Greedy, 0);
        let g = greedy.select(&cands, 0).unwrap();
        assert_eq!(g, 15); // most invalid
        let mut random = VictimSelector::new(VictimKind::Random, 7);
        let mut total = 0u32;
        for _ in 0..100 {
            let r = random.select(&cands, 0).unwrap();
            total += cands[r as usize].invalid;
        }
        assert!(total / 100 < cands[g as usize].invalid);
    }
}
