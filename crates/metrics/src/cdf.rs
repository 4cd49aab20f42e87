//! Cumulative distribution functions over latency histograms (Fig. 12).

use crate::hist::Histogram;
use cagc_harness::{Json, ToJson};

/// One CDF point: `fraction` of samples are ≤ `value_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Latency (ns).
    pub value_ns: u64,
    /// Cumulative fraction in `[0, 1]`.
    pub fraction: f64,
}

/// A cumulative distribution extracted from a [`Histogram`].
#[derive(Debug, Clone)]
pub struct Cdf {
    points: Vec<CdfPoint>,
}

impl ToJson for CdfPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("value_ns", Json::U64(self.value_ns)),
            ("fraction", Json::F64(self.fraction)),
        ])
    }
}

impl ToJson for Cdf {
    fn to_json(&self) -> Json {
        Json::obj([("points", self.points.to_json())])
    }
}

impl Cdf {
    /// Build the CDF of `hist` (one point per non-empty bucket, ascending).
    pub fn from_histogram(hist: &Histogram) -> Self {
        let total = hist.count();
        let mut points = Vec::new();
        if total == 0 {
            return Self { points };
        }
        let mut cum = 0u64;
        for (value_ns, count) in hist.iter_buckets() {
            cum += count;
            points.push(CdfPoint { value_ns, fraction: cum as f64 / total as f64 });
        }
        Self { points }
    }

    /// The CDF points, ascending in value.
    pub fn points(&self) -> &[CdfPoint] {
        &self.points
    }

    /// Smallest recorded value whose cumulative fraction reaches `q`.
    pub fn value_at(&self, q: f64) -> u64 {
        self.points
            .iter()
            .find(|p| p.fraction >= q)
            .or(self.points.last())
            .map(|p| p.value_ns)
            .unwrap_or(0)
    }

    /// Downsample to at most `n` points (always keeps the last point),
    /// for plotting / compact printing.
    pub fn downsample(&self, n: usize) -> Vec<CdfPoint> {
        let n = n.max(2);
        if self.points.len() <= n {
            return self.points.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        (0..n).map(|i| self.points[(i as f64 * step).round() as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn empty_histogram_gives_empty_cdf() {
        let c = Cdf::from_histogram(&Histogram::new());
        assert!(c.points().is_empty());
        assert_eq!(c.value_at(0.5), 0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let c = Cdf::from_histogram(&hist_of(&[10, 20, 20, 30, 1_000_000]));
        let pts = c.points();
        assert!(pts.windows(2).all(|w| w[0].value_ns < w[1].value_ns));
        assert!(pts.windows(2).all(|w| w[0].fraction <= w[1].fraction));
        assert!((pts.last().unwrap().fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_finds_the_first_value_reaching_q() {
        let c = Cdf::from_histogram(&hist_of(&[10, 20, 30, 40]));
        assert_eq!(c.value_at(0.25), 10);
        assert_eq!(c.value_at(0.5), 20);
        assert_eq!(c.value_at(1.0), 40);
    }

    #[test]
    fn downsample_preserves_endpoints() {
        let values: Vec<u64> = (1..500).map(|i| i * 97).collect();
        let c = Cdf::from_histogram(&hist_of(&values));
        let d = c.downsample(10);
        assert!(d.len() <= 10);
        assert_eq!(d.last().unwrap().value_ns, c.points().last().unwrap().value_ns);
        assert!(d.windows(2).all(|w| w[0].value_ns <= w[1].value_ns));
    }

    #[test]
    fn cdf_renders_stable_json() {
        let c = Cdf::from_histogram(&hist_of(&[10, 10, 30, 30]));
        assert_eq!(
            c.to_json().render(),
            r#"{"points":[{"value_ns":10,"fraction":0.5},{"value_ns":30,"fraction":1}]}"#
        );
    }

    #[test]
    fn downsample_of_short_cdf_is_identity() {
        let c = Cdf::from_histogram(&hist_of(&[5, 6]));
        assert_eq!(c.downsample(10).len(), c.points().len());
    }
}
