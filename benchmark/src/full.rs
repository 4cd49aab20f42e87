//! The full run: every workload, first the end-to-end pass and then the
//! traced pass, each in a fresh child process (so peak RSS and the
//! per-thread fingerprint memo are per workload and pass). Prints every
//! metric, writes them with a provenance stamp as one JSON file, and
//! fails if any output check failed.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use cagc_harness::Json;

use crate::catalog::WORKLOADS;
use crate::{jsonx, provenance};

/// What one child run reported.
struct Pass {
    /// The contract's result line.
    result: Json,
    /// The `#detail` line.
    detail: Json,
    wall_s: f64,
    succeeded: bool,
}

fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--detail")
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut result = None;
    for line in text.lines() {
        match line.strip_prefix("#detail ") {
            Some(json) => detail = Json::parse(json).ok(),
            None if line.starts_with('{') => result = Json::parse(line).ok(),
            None => println!("{line}"),
        }
    }
    match (result, detail) {
        (Some(result), Some(detail)) => Ok(Pass {
            result,
            detail,
            wall_s,
            succeeded: output.status.success(),
        }),
        _ => Err(format!(
            "{workload}: run printed no result ({})",
            output.status
        )),
    }
}

/// The two passes run in separate processes; both must have rendered the
/// same bytes.
fn digests_differ(e2e: &Json, traced: &Json) -> Option<String> {
    let (a, b) = (jsonx::get(e2e, "digest"), jsonx::get(traced, "digest"));
    (a.is_none() || a != b)
        .then(|| format!("output digest differs between the passes: {a:?} vs {b:?}"))
}

pub fn run(seed: u64, seconds: f64, out: &Path) -> Result<i32, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        println!("== {}: {}", w.name, w.why);
        let e2e = run_pass(w.name, seed, seconds, false, out)?;
        let traced = run_pass(w.name, seed, seconds, true, out)?;
        all_ok &= e2e.succeeded && traced.succeeded;

        let count = |key: &str| jsonx::num(&e2e.result, key).unwrap_or(0.0);
        let mut failures: Vec<Json> = [&e2e, &traced]
            .iter()
            .flat_map(|p| match jsonx::get(&p.detail, "failures") {
                Some(Json::Arr(items)) => items.clone(),
                _ => Vec::new(),
            })
            .collect();
        if let Some(failure) = digests_differ(&e2e.detail, &traced.detail) {
            println!("CHECK FAILED: {failure}");
            failures.push(Json::Str(failure));
            all_ok = false;
        }
        let failed_op_share = count("failed") / count("attempted").max(1.0);
        println!(
            "{}: failed_op_share {failed_op_share:e} ({} of {} requests)\n",
            w.name,
            count("failed"),
            count("attempted"),
        );
        let metrics = |p: &Pass| {
            jsonx::get(&p.detail, "metrics")
                .cloned()
                .unwrap_or(Json::Null)
        };
        let entry = Json::obj([
            (
                "correct",
                Json::Bool(failures.is_empty() && e2e.succeeded && traced.succeeded),
            ),
            ("attempted", Json::F64(count("attempted"))),
            ("failed", Json::F64(count("failed"))),
            ("failed_op_share", Json::F64(failed_op_share)),
            (
                "iterations",
                jsonx::get(&e2e.detail, "iterations")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
            ("e2e_wall_s", Json::F64(e2e.wall_s)),
            ("traced_wall_s", Json::F64(traced.wall_s)),
            ("failures", Json::Arr(failures)),
            ("end_to_end", metrics(&e2e)),
            ("per_layer", metrics(&traced)),
        ]);
        workloads.push((w.name.to_string(), entry));
    }
    let doc = Json::obj([
        ("provenance", provenance::stamp(seed, seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out.join(format!("benchmark_seed{seed}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !all_ok {
        println!("FAILED: at least one output check failed (see CHECK FAILED lines above)");
    }
    Ok(if all_ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_must_agree_on_the_output_digest() {
        let detail = |digest: &str| Json::obj([("digest", Json::Str(digest.into()))]);
        assert_eq!(digests_differ(&detail("00ab"), &detail("00ab")), None);
        assert!(digests_differ(&detail("00ab"), &detail("00ac")).is_some());
        assert!(digests_differ(&Json::Null, &Json::Null).is_some());
    }
}
