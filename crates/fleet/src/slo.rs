//! Per-tenant SLO tracking: one fleet-wide latency objective, tracked
//! per tenant with rolling compliance windows and burn-rate counters.
//!
//! An SLO here is "at least `goal_permille` of a tenant's requests
//! complete within `target_ns`". Violations are recorded as a 0/1
//! indicator series into [`TimeSeries`] windows at each request's
//! completion time, so a window's mean *is* its violation rate and
//! windows merge exactly across devices (integer accumulators, device
//! order) — the fleet-level compliance view is byte-deterministic at
//! any worker count.
//!
//! The burn rate is the classic SRE ratio: observed violation rate over
//! the error budget (`1 - goal`). Burn 1000 (milli) means the tenant is
//! consuming its budget exactly as fast as the objective allows; 2000
//! means twice as fast.

use cagc_harness::{Json, ToJson};
use cagc_metrics::TimeSeries;

/// Fleet-wide SLO policy: one objective for every tenant.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Rolling compliance window width (simulated ns).
    pub window_ns: u64,
    /// Fraction of requests that must meet the target, in permille
    /// (e.g. `990` = 99.0%).
    pub goal_permille: u64,
    /// Latency objective every tenant is held to.
    pub target_ns: u64,
}

impl SloConfig {
    /// Every tenant gets `target_ns` at `goal_permille`, windowed at
    /// `window_ns`.
    pub fn uniform(target_ns: u64, goal_permille: u64, window_ns: u64) -> Self {
        assert!(goal_permille < 1000, "a 100% goal leaves no error budget");
        assert!(window_ns > 0, "zero-width compliance window");
        Self { window_ns, goal_permille, target_ns }
    }
}

/// One tenant's SLO ledger on one device (raw, mergeable).
#[derive(Debug, Clone)]
pub struct TenantSloTrack {
    /// Tenant label.
    pub tenant: String,
    /// Latency objective applied.
    pub target_ns: u64,
    /// Compliance goal, in permille.
    pub goal_permille: u64,
    /// Requests observed.
    pub requests: u64,
    /// Requests over target.
    pub violations: u64,
    /// 0/1 violation indicator per completion, windowed.
    pub series: TimeSeries,
}

impl TenantSloTrack {
    /// A fresh ledger for `tenant` under `cfg`.
    pub fn new(tenant: &str, cfg: &SloConfig) -> Self {
        Self {
            tenant: tenant.to_string(),
            target_ns: cfg.target_ns,
            goal_permille: cfg.goal_permille,
            requests: 0,
            violations: 0,
            series: TimeSeries::new(cfg.window_ns),
        }
    }

    /// Record one completion at `end_ns` with end-to-end `latency_ns`.
    pub fn record(&mut self, end_ns: u64, latency_ns: u64) {
        let violated = u64::from(latency_ns > self.target_ns);
        self.requests += 1;
        self.violations += violated;
        self.series.record(end_ns, violated);
    }

    /// Fold another device's ledger for the same tenant into this one.
    pub fn merge(&mut self, other: &TenantSloTrack) {
        self.requests += other.requests;
        self.violations += other.violations;
        self.series.merge(&other.series);
    }

    /// Overall violation rate, permille.
    pub fn violation_permille(&self) -> u64 {
        (self.violations * 1000).checked_div(self.requests).unwrap_or(0)
    }

    /// Overall compliance, permille.
    pub fn compliance_permille(&self) -> u64 {
        1000 - self.violation_permille()
    }

    /// Error-budget burn rate, milli (1000 = burning exactly at budget).
    pub fn burn_rate_milli(&self) -> u64 {
        let budget = (1000 - self.goal_permille).max(1);
        self.violation_permille() * 1000 / budget
    }

    /// Worst rolling window's violation rate, permille. The indicator
    /// values are 0/1, so a window's `mean × count` recovers its exact
    /// violation count.
    pub fn worst_window_permille(&self) -> u64 {
        self.series
            .windows()
            .iter()
            .map(|w| {
                let violations = (w.mean * w.count as f64).round() as u64;
                violations * 1000 / w.count.max(1)
            })
            .max()
            .unwrap_or(0)
    }

    /// Does the overall rate meet the objective?
    pub fn met(&self) -> bool {
        self.compliance_permille() >= self.goal_permille
    }
}

impl ToJson for TenantSloTrack {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::Str(self.tenant.clone())),
            ("target_ns", Json::U64(self.target_ns)),
            ("goal_permille", Json::U64(self.goal_permille)),
            ("requests", Json::U64(self.requests)),
            ("violations", Json::U64(self.violations)),
            ("compliance_permille", Json::U64(self.compliance_permille())),
            ("burn_rate_milli", Json::U64(self.burn_rate_milli())),
            ("worst_window_permille", Json::U64(self.worst_window_permille())),
            ("met", Json::Bool(self.met())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig::uniform(100, 900, 1_000)
    }

    #[test]
    #[should_panic(expected = "error budget")]
    fn perfect_goal_is_rejected() {
        SloConfig::uniform(1, 1000, 1);
    }

    #[test]
    fn ledger_counts_violations_and_windows() {
        let mut t = TenantSloTrack::new("Mail[0]", &cfg());
        // Window 0: 1 of 2 violated; window 2: 1 of 1 violated.
        t.record(100, 80);
        t.record(900, 150);
        t.record(2_500, 400);
        assert_eq!(t.requests, 3);
        assert_eq!(t.violations, 2);
        assert_eq!(t.violation_permille(), 666);
        assert_eq!(t.compliance_permille(), 334);
        // Budget is 100‰; violating 666‰ burns 6.66x.
        assert_eq!(t.burn_rate_milli(), 6_660);
        assert_eq!(t.worst_window_permille(), 1000);
        assert!(!t.met());
    }

    #[test]
    fn merge_is_exact() {
        let c = cfg();
        let mut a = TenantSloTrack::new("Mail[0]", &c);
        a.record(100, 10);
        a.record(200, 10);
        let mut b = TenantSloTrack::new("Mail[0]", &c);
        b.record(150, 500);
        a.merge(&b);
        assert_eq!(a.requests, 3);
        assert_eq!(a.violations, 1);
        assert_eq!(a.violation_permille(), 333);
        assert_eq!(a.worst_window_permille(), 333);
        assert!(!a.met());
        let mut clean = TenantSloTrack::new("Mail[0]", &c);
        clean.record(10, 5);
        assert!(clean.met());
        assert!(clean.to_json().render().contains("\"met\":true"));
    }
}
