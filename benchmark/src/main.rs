//! The repo's benchmark. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! cagc-benchmark [--seed N] [--seconds S] [--out DIR]
//!     full run: every workload, end-to-end pass then traced pass, each in
//!     a fresh child process; prints every metric and writes
//!     DIR/benchmark_seed<N>.json (default DIR: benchmark/out)
//! cagc-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload (what the driver invokes); the last line of
//!     stdout is {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//! cagc-benchmark compare A.json B.json [--strict]
//!     one row per (metric, workload); --strict fails on any metric that
//!     is worse beyond its bound, unresolved, or not bit-identical when it
//!     is a simulated result or a count (the A/A check of aa.sh)
//! ```

#![forbid(unsafe_code)]

mod attrib;
mod catalog;
mod compare;
mod full;
mod jsonx;
mod probes;
mod provenance;
mod rss;
mod run;
mod spans;
mod speed;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 20;
const DEFAULT_SEED: u64 = 7;

/// A run whose output checks failed exits non-zero.
fn exit_code(checks: &workloads::Checks) -> i32 {
    i32::from(!checks.all_passed())
}

fn usage() -> String {
    "usage: cagc-benchmark [--seed N] [--seconds S] [--out DIR]\n\
     \x20      cagc-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
     \x20      cagc-benchmark compare A.json B.json [--strict]"
        .to_string()
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}`"))
}

fn real_main() -> Result<i32, String> {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = args.skip(1).collect();
        let strict = rest.iter().any(|a| a == "--strict");
        let paths: Vec<&String> = rest.iter().filter(|a| *a != "--strict").collect();
        let [a, b] = paths[..] else {
            return Err(usage());
        };
        return compare::run(a.as_ref(), b.as_ref(), strict);
    }

    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, f64::from(RUN_SECONDS));
    let (mut trace, mut detail, mut setup_only, mut out) = (false, false, false, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(parse::<String>(&flag, args.next())?),
            "--seed" => seed = parse(&flag, args.next())?,
            "--seconds" => seconds = parse(&flag, args.next())?,
            "--trace" => trace = parse::<u8>(&flag, args.next())? != 0,
            "--out" => out = Some(parse::<PathBuf>(&flag, args.next())?),
            "--detail" => detail = true,
            "--setup-only" => setup_only = true,
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    match workload {
        None => {
            let out = out.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
            full::run(seed, seconds, &out)
        }
        Some(workload) => {
            let args = run::RunArgs {
                workload,
                seed,
                seconds,
                trace,
                detail,
                out,
            };
            if setup_only {
                run::setup_only(&args).map(|()| 0)
            } else {
                run::run(&args)
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
