//! Windowed time series: how a metric evolves over simulated time.
//!
//! Used to visualize GC interference — per-window mean/max latency spikes
//! line up with GC rounds — and to verify steady state was reached before
//! reading end-of-run counters.

use cagc_harness::{Json, ToJson};

/// One aggregated window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Window start (ns).
    pub start_ns: u64,
    /// Samples recorded in the window.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Maximum value.
    pub max: u64,
}

impl ToJson for Window {
    fn to_json(&self) -> Json {
        Json::obj([
            ("start_ns", Json::U64(self.start_ns)),
            ("count", Json::U64(self.count)),
            ("mean", Json::F64(self.mean)),
            ("max", Json::U64(self.max)),
        ])
    }
}

/// Fixed-width windowed aggregation over `(time, value)` samples.
///
/// Samples may arrive in any time order (late events from overlapping
/// operations are fine); memory is one slot per touched window.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window_ns: u64,
    // Dense from window 0; simulations start at t=0 anyway.
    slots: Vec<(u64, u128, u64)>, // (count, sum, max)
}

impl TimeSeries {
    /// A series with the given window width.
    ///
    /// # Panics
    /// Panics on a zero-width window.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "zero-width window");
        Self { window_ns, slots: Vec::new() }
    }

    /// Window width.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Record `value` at simulated time `at_ns`.
    pub fn record(&mut self, at_ns: u64, value: u64) {
        let idx = (at_ns / self.window_ns) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, (0, 0, 0));
        }
        let slot = &mut self.slots[idx];
        slot.0 += 1;
        slot.1 += value as u128;
        slot.2 = slot.2.max(value);
    }

    /// Fold `other` into this series, window by window: counts and sums
    /// add, maxima take the max. Exact — merging operates on the raw
    /// integer accumulators, never on the derived float means, so a
    /// fleet-level merge is byte-deterministic regardless of how many
    /// devices contribute or in what order their samples were recorded.
    ///
    /// # Panics
    /// Panics if the window widths differ (windows would not line up).
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge series with different window widths"
        );
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), (0, 0, 0));
        }
        for (dst, src) in self.slots.iter_mut().zip(&other.slots) {
            dst.0 += src.0;
            dst.1 += src.1;
            dst.2 = dst.2.max(src.2);
        }
    }

    /// Total samples recorded across all windows.
    pub fn sample_count(&self) -> u64 {
        self.slots.iter().map(|&(c, _, _)| c).sum()
    }

    /// Sum of all recorded values across all windows.
    pub fn sample_sum(&self) -> u128 {
        self.slots.iter().map(|&(_, s, _)| s).sum()
    }

    /// Aggregated windows, ascending in time (empty windows skipped).
    pub fn windows(&self) -> Vec<Window> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &(c, _, _))| c > 0)
            .map(|(i, &(count, sum, max))| Window {
                start_ns: i as u64 * self.window_ns,
                count,
                mean: sum as f64 / count as f64,
                max,
            })
            .collect()
    }

    /// ASCII sparkline of per-window means (log-scaled), for terminal
    /// diagnostics. Empty windows render as spaces.
    pub fn sparkline(&self, width: usize) -> String {
        const LEVELS: &[u8] = b" .:-=+*#%@";
        if self.slots.is_empty() || width == 0 {
            return String::new();
        }
        let chunk = self.slots.len().div_ceil(width);
        let means: Vec<f64> = self
            .slots
            .chunks(chunk)
            .map(|c| {
                let (n, s) = c.iter().fold((0u64, 0u128), |(n, s), &(cn, cs, _)| {
                    (n + cn, s + cs)
                });
                if n == 0 {
                    0.0
                } else {
                    s as f64 / n as f64
                }
            })
            .collect();
        let peak = means.iter().cloned().fold(0.0f64, f64::max);
        means
            .iter()
            .map(|&m| {
                if m <= 0.0 || peak <= 0.0 {
                    ' '
                } else {
                    // log scale: one level per factor of peak^(1/9).
                    let frac = (m.ln() - (peak / 1e4).max(1.0).ln())
                        / (peak.ln() - (peak / 1e4).max(1.0).ln()).max(1e-12);
                    let lvl = (frac.clamp(0.0, 1.0) * (LEVELS.len() - 1) as f64).round();
                    LEVELS[lvl as usize] as char
                }
            })
            .collect()
    }
}

impl ToJson for TimeSeries {
    /// `{"window_ns":…,"windows":[…]}` with empty windows skipped.
    fn to_json(&self) -> Json {
        Json::obj([
            ("window_ns", Json::U64(self.window_ns)),
            (
                "windows",
                Json::Arr(self.windows().iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_correctly() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(100, 10);
        ts.record(900, 30);
        ts.record(1_500, 100);
        let w = ts.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start_ns, 0);
        assert_eq!(w[0].count, 2);
        assert!((w[0].mean - 20.0).abs() < 1e-12);
        assert_eq!(w[0].max, 30);
        assert_eq!(w[1].start_ns, 1_000);
        assert_eq!(w[1].count, 1);
    }

    #[test]
    fn out_of_order_samples_are_fine() {
        let mut ts = TimeSeries::new(100);
        ts.record(950, 1);
        ts.record(50, 2);
        assert_eq!(ts.windows().len(), 2);
        assert_eq!(ts.windows()[0].start_ns, 0);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut ts = TimeSeries::new(10);
        ts.record(5, 1);
        ts.record(95, 1);
        let w = ts.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].start_ns, 90);
    }

    #[test]
    fn sparkline_has_requested_width_bound() {
        let mut ts = TimeSeries::new(10);
        for i in 0..1_000 {
            ts.record(i * 10, (i % 97) + 1);
        }
        let s = ts.sparkline(40);
        assert!(s.chars().count() <= 40);
        assert!(!s.trim().is_empty());
    }

    #[test]
    fn window_renders_stable_json() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(100, 10);
        ts.record(900, 30);
        assert_eq!(
            ts.windows()[0].to_json().render(),
            r#"{"start_ns":0,"count":2,"mean":20,"max":30}"#
        );
    }

    #[test]
    fn json_dump_agrees_with_windows() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(100, 10);
        ts.record(900, 30);
        ts.record(2_500, 7);
        assert_eq!(
            ts.to_json().render(),
            r#"{"window_ns":1000,"windows":[{"start_ns":0,"count":2,"mean":20,"max":30},{"start_ns":2000,"count":1,"mean":7,"max":7}]}"#
        );
    }

    #[test]
    fn empty_series_dumps_header_only() {
        let ts = TimeSeries::new(10);
        assert_eq!(ts.to_json().render(), r#"{"window_ns":10,"windows":[]}"#);
    }

    #[test]
    fn sparkline_of_empty_series_is_empty() {
        assert_eq!(TimeSeries::new(10).sparkline(20), "");
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_window_rejected() {
        TimeSeries::new(0);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let mut a = TimeSeries::new(100);
        a.record(50, 10);
        a.record(250, 4);
        let mut b = TimeSeries::new(100);
        b.record(60, 20);
        b.record(950, 7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json().render(), ba.to_json().render());
        let w = ab.windows();
        assert_eq!(w[0].count, 2);
        assert!((w[0].mean - 15.0).abs() < 1e-12);
        assert_eq!(w[0].max, 20);
        assert_eq!(ab.sample_count(), 4);
        assert_eq!(ab.sample_sum(), 41);
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn merge_rejects_mismatched_windows() {
        let mut a = TimeSeries::new(100);
        a.merge(&TimeSeries::new(200));
    }
}
