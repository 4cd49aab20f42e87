//! Property-based tests for the metrics substrate.

use cagc_harness::prop::*;
use cagc_harness::{Json, ToJson};
use cagc_metrics::{Cdf, Histogram, TimeSeries};
use cagc_sim::SimRng;

harness_proptest! {
    /// The histogram's count/mean/min/max are exact for any input.
    #[test]
    fn histogram_exact_moments(values in vec(0u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    /// Quantiles are monotone in q and bounded by [min, max].
    #[test]
    fn histogram_quantiles_monotone(values in vec(1u64..100_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile regressed at q={q}");
            prop_assert!(v >= h.min() && v <= h.max());
            prev = v;
        }
    }

    /// Quantile relative error is bounded by the bucket design (~3.2%).
    #[test]
    fn histogram_quantile_error_bounded(values in vec(1u64..1_000_000_000, 10..300)) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        for &v in &values {
            h.record(v);
        }
        sorted.sort_unstable();
        for q in [0.25, 0.5, 0.75, 0.9] {
            let exact = sorted[((q * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];
            let approx = h.quantile(q);
            // approx is an upper bucket edge near some sample; allow the
            // bucket's relative width both ways around the exact value.
            prop_assert!(approx as f64 >= exact as f64 * 0.95 - 2.0,
                "q={q}: {approx} far below exact {exact}");
            prop_assert!(approx as f64 <= exact as f64 * 1.05 + 2.0,
                "q={q}: {approx} far above exact {exact}");
        }
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(a in vec(0u64..1_000_000, 0..200),
                                 b in vec(0u64..1_000_000, 0..200)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a { ha.record(v); hc.record(v); }
        for &v in &b { hb.record(v); hc.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        prop_assert_eq!(ha.min(), hc.min());
        prop_assert_eq!(ha.max(), hc.max());
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    /// A CDF built from any histogram is monotone, in [0,1], ends at 1.
    #[test]
    fn cdf_is_a_distribution(values in vec(0u64..50_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let c = Cdf::from_histogram(&h);
        let pts = c.points();
        prop_assert!(!pts.is_empty());
        prop_assert!((pts.last().unwrap().fraction - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            prop_assert!(w[0].value_ns < w[1].value_ns);
            prop_assert!(w[0].fraction <= w[1].fraction + 1e-12);
        }
        for p in pts {
            prop_assert!(p.fraction > 0.0 && p.fraction <= 1.0 + 1e-12);
        }
    }

    /// The documented worst-case quantile error of the log-bucket design
    /// (one part in 32, ≈3.2 %) holds for SimRng-generated value sets
    /// spread across every bucket tier the simulator can produce.
    #[test]
    fn histogram_quantile_error_bound_holds_for_simrng_values(seed in any::<u64>(),
                                                             n in 16usize..400) {
        let mut rng = SimRng::for_stream(seed, "hist-error-bound");
        let mut h = Histogram::new();
        // Log-uniform draws: pick a tier, then a value inside it, so tiny
        // (exact) buckets and wide high-tier buckets are both exercised.
        let mut sorted: Vec<u64> = (0..n)
            .map(|_| {
                let bits = rng.gen_range_u64(0..40);
                let base = 1u64 << bits;
                base + rng.gen_range_u64(0..base)
            })
            .collect();
        for &v in &sorted {
            h.record(v);
        }
        sorted.sort_unstable();
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let target = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = sorted[target - 1];
            let approx = h.quantile(q);
            // quantile() reports the upper edge of the bucket holding the
            // target-th sample: never below the sample, and above it by at
            // most the bucket's relative width (1/32 beyond tier 0).
            prop_assert!(approx >= exact,
                "q={q}: approx {approx} below exact {exact}");
            prop_assert!(approx as f64 <= exact as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "q={q}: approx {approx} violates the 3.2% bound vs exact {exact}");
        }
    }

    /// A sample stamped exactly on a window boundary lands in the window
    /// that *starts* there, never the one that ends there.
    #[test]
    fn window_boundary_sample_lands_in_starting_window(k in 0u64..1_000,
                                                       width in 1u64..100_000,
                                                       value in 0u64..1_000_000) {
        let mut ts = TimeSeries::new(width);
        ts.record(k * width, value);
        let w = ts.windows();
        prop_assert_eq!(w.len(), 1);
        prop_assert_eq!(w[0].start_ns, k * width);
        prop_assert_eq!(w[0].count, 1);
    }

    /// A single sample's window is degenerate: mean == max == the sample.
    #[test]
    fn single_sample_window_is_degenerate(at in 0u64..10_000_000,
                                          value in 0u64..1_000_000_000) {
        let mut ts = TimeSeries::new(1_000);
        ts.record(at, value);
        let w = ts.windows();
        prop_assert_eq!(w.len(), 1);
        prop_assert_eq!(w[0].max, value);
        prop_assert!((w[0].mean - value as f64).abs() < 1e-9);
        // The JSON dump agrees with the aggregation.
        prop_assert_eq!(ts.to_json().render().matches("\"start_ns\"").count(), w.len());
    }

    /// Empty windows never appear in the aggregation or its dump; the
    /// JSON dump round-trips through the harness parser.
    #[test]
    fn sparse_series_skips_empty_windows(times in vec(0u64..1_000_000, 0..50)) {
        let mut ts = TimeSeries::new(1_000);
        for &t in &times {
            ts.record(t, 1);
        }
        let distinct: std::collections::BTreeSet<u64> =
            times.iter().map(|t| t / 1_000).collect();
        let w = ts.windows();
        prop_assert_eq!(w.len(), distinct.len());
        let rendered = ts.to_json().render();
        prop_assert_eq!(rendered.matches("\"start_ns\"").count(), w.len());
        let parsed = Json::parse(&rendered).expect("dump must be valid JSON");
        prop_assert_eq!(parsed.render(), rendered);
    }
}
