//! `compare A.json B.json [--strict]`: one row per (metric, workload) of
//! two full-run outputs, A being the base. Outputs taken on machines of
//! different shape are not compared at all.

use std::path::Path;

use cagc_harness::Json;

use crate::catalog::{self, Better, END_TO_END, PER_LAYER};
use crate::jsonx;
use crate::stats::Summary;

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How B's median relates to A's for one metric.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Exact metric, same bits.
    Identical,
    /// Exact metric that moved: a model change, never noise.
    Differs,
    /// Within the bound.
    Within,
    /// Worse than the base by more than the bound.
    Worse,
    /// Better than the base by more than the bound.
    Better,
    /// No bound: reported, not judged.
    Info,
}

impl Verdict {
    /// The two outputs disagree about this metric.
    fn disagrees(&self) -> bool {
        matches!(self, Verdict::Differs | Verdict::Worse | Verdict::Better)
    }
}

/// A side's own interquartile spread exceeds the bound: whatever the
/// medians say, the metric is unresolved, not unchanged.
fn unresolved(a: &Summary, b: &Summary, bound: f64) -> bool {
    a.spread() > bound || b.spread() > bound
}

fn verdict(a: &Summary, b: &Summary, better: Better, bound: Option<f64>, exact: bool) -> Verdict {
    if exact {
        return if a.median == b.median {
            Verdict::Identical
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let change = (b.median - a.median) / a.median.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn row(
    workload: &str,
    name: &str,
    unit: &str,
    better: Better,
    a: &Summary,
    b: &Summary,
    verdict: &str,
) {
    let ratio = if a.median == 0.0 {
        f64::NAN
    } else {
        b.median / a.median
    };
    println!(
        "{workload:<18} {name:<36} {unit:>8} ({:<6} is better)  base {:>14.4} [{:>14.4} {:>14.4}] n={:<3} new {:>14.4} [{:>14.4} {:>14.4}] n={:<3} ratio {ratio:>7.4} of {:>14.4}  {}",
        better.as_str(),
        a.median,
        a.q1,
        a.q3,
        a.n,
        b.median,
        b.q1,
        b.q3,
        b.n,
        a.median,
        verdict,
    );
}

/// Returns the process exit code: 2 when the outputs cannot be compared,
/// 1 when `strict` and the outputs disagree: an end-to-end median beyond
/// its bound in either direction, or a simulated result or count that is
/// not bit-identical.
pub fn run(a_path: &Path, b_path: &Path, strict: bool) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let stamp = |doc: &Json, key: &str| {
        jsonx::get(doc, "provenance")
            .and_then(|p| jsonx::get(p, key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    if stamp(&a, "nproc") != stamp(&b, "nproc") {
        println!(
            "refusing to compare: base ran at nproc {:?}, new at nproc {:?}",
            stamp(&a, "nproc"),
            stamp(&b, "nproc")
        );
        return Ok(2);
    }
    for key in ["rustc", "profile_release", "seed", "run_seconds"] {
        if stamp(&a, key) != stamp(&b, key) {
            println!(
                "note: {key} differs: {:?} vs {:?}",
                stamp(&a, key),
                stamp(&b, key)
            );
        }
    }

    let mut failed = 0usize;
    let workloads = jsonx::get(&a, "workloads")
        .map(jsonx::entries)
        .unwrap_or_default();
    for (workload, wa) in workloads {
        let Some(wb) = jsonx::get(&b, "workloads").and_then(|w| jsonx::get(w, workload)) else {
            println!("{workload}: missing from the new output");
            failed += 1;
            continue;
        };
        let summaries = |section: &str, name: &str| {
            let of =
                |w: &Json| jsonx::get(jsonx::get(w, section)?, name).and_then(Summary::from_json);
            Some((of(wa)?, of(wb)?))
        };
        for m in &END_TO_END {
            let Some((sa, sb)) = summaries("end_to_end", m.name) else {
                continue;
            };
            let exact = catalog::is_exact(m.name);
            let v = verdict(&sa, &sb, m.better, Some(m.bound), exact);
            let mut label = format!("{v:?}").to_lowercase();
            if !exact && unresolved(&sa, &sb, m.bound) {
                label.push_str(", unresolved (spread exceeds the bound)");
            }
            row(workload, m.name, m.unit, m.better, &sa, &sb, &label);
            failed += usize::from(v.disagrees());
        }
        for m in &PER_LAYER {
            let Some((sa, sb)) = summaries("per_layer", m.name) else {
                continue;
            };
            let v = verdict(&sa, &sb, m.better, None, m.unit == "count");
            row(
                workload,
                m.name,
                m.unit,
                m.better,
                &sa,
                &sb,
                &format!("{v:?}").to_lowercase(),
            );
            failed += usize::from(v.disagrees());
        }
        if jsonx::get(wa, "failed") != jsonx::get(wb, "failed") {
            println!(
                "{workload}: failed differs: {:?} vs {:?}",
                jsonx::get(wa, "failed"),
                jsonx::get(wb, "failed")
            );
            failed += 1;
        }
    }
    println!("{failed} (metric, workload) pair(s) disagree");
    Ok(if strict && failed > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = s(99.0, 100.0, 101.0);
        let v = |b: &Summary, better| verdict(&base, b, better, Some(0.10), false);
        assert_eq!(v(&s(104.0, 105.0, 106.0), Better::Lower), Verdict::Within);
        assert_eq!(v(&s(114.0, 115.0, 116.0), Better::Lower), Verdict::Worse);
        assert_eq!(v(&s(114.0, 115.0, 116.0), Better::Higher), Verdict::Better);
        assert_eq!(v(&s(84.0, 85.0, 86.0), Better::Higher), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = s(90.0, 100.0, 112.0);
        let quiet = s(99.0, 100.0, 101.0);
        assert!(unresolved(&noisy, &quiet, 0.10));
        assert!(unresolved(&quiet, &noisy, 0.10));
        assert!(!unresolved(&quiet, &quiet, 0.10));
        assert_eq!(
            verdict(&noisy, &quiet, Better::Lower, Some(0.10), false),
            Verdict::Within
        );
        assert_eq!(
            verdict(&noisy, &quiet, Better::Lower, None, false),
            Verdict::Info
        );
    }

    #[test]
    fn exact_metrics_must_not_move_at_all() {
        let a = Summary::single(29_121.0);
        assert_eq!(
            verdict(
                &a,
                &Summary::single(29_121.0),
                Better::Lower,
                Some(0.15),
                true
            ),
            Verdict::Identical
        );
        assert_eq!(
            verdict(
                &a,
                &Summary::single(29_120.0),
                Better::Lower,
                Some(0.15),
                true
            ),
            Verdict::Differs
        );
        assert!(
            Verdict::Differs.disagrees()
                && Verdict::Better.disagrees()
                && Verdict::Worse.disagrees()
        );
        assert!(
            !Verdict::Identical.disagrees()
                && !Verdict::Within.disagrees()
                && !Verdict::Info.disagrees()
        );
    }
}
