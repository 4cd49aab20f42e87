//! Where a result came from: machine shape, toolchain, commit, build
//! profile and run parameters, stamped into every full-run output.

use std::process::Command;

use cagc_harness::Json;

const MANIFEST: &str = include_str!("../Cargo.toml");

/// The `key = value` lines of a manifest's `[profile.release]` table.
pub fn release_profile(manifest: &str) -> Vec<(String, String)> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// Trimmed stdout of a command, or "unknown" when it cannot run (the
/// driver's checkout is not a git repository).
fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn stamp(seed: u64, seconds: f64) -> Json {
    let profile = release_profile(MANIFEST)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        (
            "load_threads",
            Json::U64(crate::workloads::workers() as u64),
        ),
        ("rustc", Json::Str(output_of("rustc", &["-V"]))),
        (
            "git_rev",
            Json::Str(output_of("git", &["rev-parse", "HEAD"])),
        ),
        ("profile_release", Json::Str(profile)),
        ("seed", Json::U64(seed)),
        ("run_seconds", Json::F64(seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_only_the_release_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# tuned\ncodegen-units = 1\nlto = \"thin\"\n\n[profile.bench]\nlto = \"fat\"\n";
        assert_eq!(
            release_profile(manifest),
            [
                ("codegen-units".to_string(), "1".to_string()),
                ("lto".to_string(), "\"thin\"".to_string())
            ]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    /// Build settings change speed without changing code: the benchmark
    /// must be built exactly like the workspace it measures.
    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let ours = release_profile(MANIFEST);
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(
            !root.is_empty(),
            "root manifest has a [profile.release] table"
        );
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml [profile.release] differs from the root's"
        );
    }
}
