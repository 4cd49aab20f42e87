//! Normalization helper.

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
    fn reduction_matches_fig9_mail() {
        // CAGC erases 0.134x of baseline <=> 86.6% reduction (Fig. 9 Mail).
        let red = reduction_pct(100_000.0, 13_400.0);
        assert!((red - 86.6).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_does_not_divide() {
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }
}
