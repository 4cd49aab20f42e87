//! Order statistics over a run's samples.

use cagc_harness::Json;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) computes
/// them — the driver judges spreads with that function, so the numbers
/// printed here are the numbers it sees. A single sample is its own
/// quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can push `j` past the cut point, and Python
        // then extrapolates with a negative (or > 4) weight.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// What one metric measured over a run: the median is the reported value,
/// the quartiles and sample count say how far to trust it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let [q1, median, q3] = quartiles(samples);
        Self {
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value measured once (a count, a probe, a peak).
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::Str(unit.to_string())),
            ("median", Json::F64(self.median)),
            ("q1", Json::F64(self.q1)),
            ("q3", Json::F64(self.q3)),
            ("n", Json::U64(self.n as u64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            median: crate::jsonx::num(j, "median")?,
            q1: crate::jsonx::num(j, "q1")?,
            q3: crate::jsonx::num(j, "q3")?,
            n: crate::jsonx::num(j, "n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
        let seven = [12.0, 15.0, 11.0, 19.0, 13.0, 18.0, 14.0];
        assert_eq!(quartiles(&seven), [12.0, 14.0, 18.0]);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.0, 6.0, 7));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.25, 9.0]);
        let j = Json::parse(&s.to_json("ms").render()).unwrap();
        assert_eq!(Summary::from_json(&j), Some(s));
    }
}
