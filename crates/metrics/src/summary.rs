//! Normalization helpers.

/// `value / baseline`, the normalization used by Figs. 2 and 11.
/// Returns 0 when the baseline is 0 (empty run).
pub fn normalize(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

/// Percentage reduction relative to a baseline, the metric of Figs. 9, 10,
/// 13: `(baseline - value) / baseline * 100`. Returns 0 when baseline is 0.
pub fn reduction_pct(baseline: f64, value: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - value) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_and_reduction_are_consistent() {
        // CAGC erases 0.134x of baseline <=> 86.6% reduction (Fig. 9 Mail).
        let norm = normalize(13_400.0, 100_000.0);
        let red = reduction_pct(100_000.0, 13_400.0);
        assert!((norm - 0.134).abs() < 1e-12);
        assert!((red - 86.6).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_does_not_divide() {
        assert_eq!(normalize(5.0, 0.0), 0.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }
}
