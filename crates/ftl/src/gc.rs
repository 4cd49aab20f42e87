//! GC accounting.

use cagc_sim::time::Nanos;

/// Counters describing all GC activity of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// GC activations. Under run-to-completion GC this is the number of
    /// watermark *trigger firings* (counted even when no block was
    /// reclaimable) plus victims started by forced or idle-window rounds;
    /// under preemptible GC it is the number of *victims started* (by a
    /// slice, the urgent catch-up leg or a forced round — resuming a
    /// suspended victim is not counted again).
    pub invocations: u64,
    /// Victim blocks erased (the Fig. 9 metric).
    pub blocks_erased: u64,
    /// Valid pages copied out of victims (the Fig. 10 metric). For CAGC
    /// this counts only pages actually *written* to a new location; dedup
    /// hits that resolve to metadata updates are counted in `dedup_hits`.
    pub pages_migrated: u64,
    /// Valid pages read out of victims (reads happen even on dedup hits).
    pub pages_scanned: u64,
    /// Migration writes avoided because the page's content was already
    /// stored (CAGC only).
    pub dedup_hits: u64,
    /// Pages moved hot → cold because their refcount crossed the threshold.
    pub promotions: u64,
    /// Pages moved cold → hot because their refcount fell to the threshold
    /// or below.
    pub demotions: u64,
    /// Trim-invalidated pages reclaimed by victim erases. Each such page is
    /// a migration GC never had to perform: had the host not trimmed it,
    /// the page would still be valid at collection time and would have been
    /// copied out (counted in `pages_migrated`) before the erase.
    pub trim_reclaimed_pages: u64,
    /// Total simulated time spent inside GC rounds.
    pub busy_ns: Nanos,
}
