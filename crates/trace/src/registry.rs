//! Counter/gauge registry: named scalar series sampled over simulated
//! time into [`cagc_metrics::TimeSeries`] windows.
//!
//! Gauges are `u64`-valued. Ratios (write amplification, dedup hit rate)
//! follow a naming convention instead of a float type: sample them scaled
//! ×1000 under a `*_milli` name, so `waf_milli = 1340` means WA ≈ 1.34.
//! Keeping the registry integer-only means every sample aggregates
//! exactly and the exported JSON never depends on float summation order.

use cagc_harness::{Json, ToJson};
use cagc_metrics::{TimeSeries, Window};

use crate::names::Names;

/// A set of named gauges, each a windowed [`TimeSeries`].
///
/// Registration is implicit: the first `record` for a name creates the
/// series. Insertion order is preserved so every export is deterministic.
#[derive(Debug, Clone)]
pub struct GaugeRegistry {
    window_ns: u64,
    /// A gauge's id is its position in `gauges`: both count first
    /// appearances.
    ids: Names,
    gauges: Vec<(&'static str, TimeSeries)>,
}

impl GaugeRegistry {
    /// A registry whose gauges aggregate into windows of `window_ns`.
    pub fn new(window_ns: u64) -> Self {
        Self { window_ns, ids: Names::default(), gauges: Vec::new() }
    }

    /// Record `value` for gauge `name` at simulated time `at_ns`.
    pub fn record(&mut self, name: &'static str, at_ns: u64, value: u64) {
        let id = self.ids.intern_static(name).expect("the simulator samples a handful of gauges");
        let id = usize::from(id);
        if id == self.gauges.len() {
            self.gauges.push((name, TimeSeries::new(self.window_ns)));
        }
        self.gauges[id].1.record(at_ns, value);
    }

    /// Gauge window width.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of registered gauges.
    pub fn len(&self) -> usize {
        self.gauges.len()
    }

    /// True when no gauge has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.gauges.is_empty()
    }

    /// Every gauge with its aggregated windows, in registration order.
    pub fn snapshot(&self) -> Vec<(&'static str, Vec<Window>)> {
        self.gauges.iter().map(|(n, s)| (*n, s.windows())).collect()
    }

    /// Every gauge with its raw [`TimeSeries`], in registration order.
    /// Fleet merging folds these exactly ([`TimeSeries::merge`]) instead
    /// of re-aggregating the derived per-window floats.
    pub fn series(&self) -> impl Iterator<Item = (&'static str, &TimeSeries)> {
        self.gauges.iter().map(|(n, s)| (*n, s))
    }
}

impl ToJson for GaugeRegistry {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.snapshot()
                .into_iter()
                .map(|(name, windows)| (name.to_string(), windows.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_register_on_first_record_and_keep_order() {
        let mut reg = GaugeRegistry::new(1_000);
        reg.record("free_pages", 10, 500);
        reg.record("waf_milli", 10, 1000);
        reg.record("free_pages", 1_500, 400);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "free_pages");
        assert_eq!(snap[0].1.len(), 2);
        assert_eq!(snap[1].0, "waf_milli");
        assert_eq!(snap[1].1[0].max, 1000);
    }

    /// A sample resolves its series by where the literal sits; the same
    /// spelling at another address is still the same gauge.
    #[test]
    fn a_gauge_is_its_spelling_wherever_the_literal_sits() {
        let mut reg = GaugeRegistry::new(1_000);
        reg.record("free_pages", 10, 500);
        reg.record("waf_milli", 10, 1000);
        let elsewhere: &'static str = String::from("free_pages").leak();
        reg.record(elsewhere, 20, 300);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].0, snap[0].1[0].count, snap[0].1[0].max), ("free_pages", 2, 500));
        assert_eq!(reg.series().map(|(n, _)| n).collect::<Vec<_>>(), ["free_pages", "waf_milli"]);
    }

    #[test]
    fn json_is_deterministic_across_identical_inputs() {
        let build = || {
            let mut reg = GaugeRegistry::new(100);
            reg.record("a", 0, 1);
            reg.record("b", 250, 7);
            reg.record("a", 50, 3);
            reg.to_json().render()
        };
        assert_eq!(build(), build());
        assert!(build().starts_with(r#"{"a":[{"start_ns":0,"count":2"#));
    }
}
