//! Every fleet golden, regenerated by `repro` and compared byte for byte:
//! the quick-scale `sweep-fleet` and `sweep-chaos` CSVs against
//! `results/quick/` at one worker and at two, and the default-scale
//! `sweep-fleet` — whose observability cell arms gauges and SLO tracking
//! — against `results/`. Both sweeps assert their own gates (the analytic
//! WAF curve, zero-fault cells equal to a fault-free fleet, harsh cells
//! degrading with attribution), so a run that exits cleanly passed them.

use std::path::Path;
use std::process::Command;

/// Run `repro` with `args` into a fresh directory, then compare each CSV
/// it wrote — exactly `want`, no more — with the same-named file in
/// `golden` (relative to the workspace root).
fn regenerates(tag: &str, args: &[&str], golden: &str, want: &[&str]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = std::env::temp_dir().join(format!("cagc_fleet_goldens_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create temp out dir");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--out")
        .arg(&out)
        .args(args)
        .output()
        .expect("run repro");
    let written = csvs(&out);
    let fresh: Vec<(String, Vec<u8>)> =
        written.iter().map(|name| (name.clone(), read(&out.join(name)))).collect();
    std::fs::remove_dir_all(&out).expect("remove temp out dir");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{tag}: repro {args:?} failed:\n{stderr}");
    assert_eq!(written, want, "{tag}: the CSVs repro {args:?} wrote");
    for (name, bytes) in fresh {
        let committed = read(&Path::new(root).join(golden).join(&name));
        assert!(bytes == committed, "{tag}: {name} differs from {golden}/{name}");
    }
}

/// The CSV file names in `dir`, sorted.
fn csvs(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read out dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort_unstable();
    names
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const QUICK: [&str; 4] = ["fleet_qos.csv", "fleet_timeline.csv", "sweep_chaos.csv", "sweep_fleet.csv"];

#[test]
fn quick_fleet_and_chaos_sweeps_match_results_quick_at_one_worker() {
    let args = ["--scale", "quick", "--workers", "1", "sweep-fleet", "sweep-chaos"];
    regenerates("quick_w1", &args, "results/quick", &QUICK);
}

#[test]
fn quick_fleet_and_chaos_sweeps_match_results_quick_at_two_workers() {
    let args = ["--scale", "quick", "--workers", "2", "sweep-fleet", "sweep-chaos"];
    regenerates("quick_w2", &args, "results/quick", &QUICK);
}

#[test]
fn default_scale_fleet_sweep_with_observability_armed_matches_results() {
    let want = ["fleet_qos.csv", "fleet_timeline.csv", "sweep_fleet.csv"];
    regenerates("default", &["--workers", "2", "sweep-fleet"], "results", &want);
}
