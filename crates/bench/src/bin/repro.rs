//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|default|full] [--seed N] [--out DIR] [--workers N]
//!       [--trace PATH] [--trace-sample N] [--preempt]
//!       [--diff A B] [--smoke] CMD...
//!
//! CMD: an experiment from `cagc_bench::experiments::COMMANDS`, or
//!      all        (tables + every figure)
//!      ablations  (every ablation and extension study)
//!      smoke      (one seeded GC-heavy CAGC replay; with --trace, emits
//!                  a Chrome trace + JSONL event log — see docs/OBSERVABILITY.md)
//!      inspect    (trace analytics: span profile, GC-cycle anatomy, and
//!                  flamegraph from --trace PATH.jsonl or a fresh seeded
//!                  replay; --diff A B reports per-GC-phase time deltas
//!                  between two JSONL traces)
//! ```
//!
//! `repro --help` lists the experiments (generated from the registry).
//! Text results go to stdout; CSV series are written under `--out`
//! (default `results/`). `--smoke` is shorthand for the `smoke` command;
//! `--trace-sample N` records every Nth host request's spans (GC, fault
//! and gauge activity is always recorded). `--preempt` runs the seeded
//! smoke/inspect replay with preemptible (sliced) GC.

use cagc_bench::experiments as exp;
use cagc_bench::Scale;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

// The two commands implemented here rather than in the registry: they
// take the trace flags and print instead of returning `Artifacts`.
const SMOKE: &str = "smoke";
const INSPECT: &str = "inspect";

/// What a command-line name resolves to.
enum Step {
    Smoke,
    Inspect,
    Experiment(&'static exp::Command),
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale quick|default|full] [--seed N] [--out DIR] [--workers N]\n\
         \x20            [--trace PATH] [--trace-sample N] [--preempt]\n\
         \x20            [--diff A B] [--smoke] CMD...\n\
         CMD:\n{}  {SMOKE} | {INSPECT}",
        exp::command_usage()
    );
    std::process::exit(2);
}

/// The `smoke` command: one seeded, GC-heavy CAGC replay on the tiny
/// device. With `--trace` it emits the two deterministic trace artifacts
/// (Chrome trace-event JSON at `path`, JSONL next to it) and proves the
/// Chrome document round-trips through the harness JSON parser before
/// anything touches disk.
fn smoke(scale: &Scale, trace_out: Option<&std::path::Path>, sample: u64, preempt: bool) {
    let mut ssd = smoke_device(trace_out.is_some(), sample, preempt);
    let trace = smoke_trace(scale);
    let report = ssd.replay(&trace);
    let mut t = cagc_metrics::Table::new(vec![
        "scheme", "workload", "requests", "mean_us", "p99_us", "gc_rounds", "blocks_erased",
        "pages_migrated", "dedup_hits", "waf",
    ]);
    t.row(vec![
        report.scheme.clone(),
        report.workload.clone(),
        report.all.count.to_string(),
        format!("{:.2}", report.all.mean_ns / 1e3),
        format!("{:.2}", report.all.p99_ns as f64 / 1e3),
        report.gc.invocations.to_string(),
        report.gc.blocks_erased.to_string(),
        report.gc.pages_migrated.to_string(),
        report.index.hits.to_string(),
        format!("{:.3}", report.waf()),
    ]);
    print!("{}", t.render());
    if let Some(path) = trace_out {
        let chrome = ssd.chrome_trace();
        let parsed = cagc_harness::Json::parse(&chrome).expect("emitted trace must parse");
        assert_eq!(parsed.render(), chrome, "harness parser round-trip");
        checked(path, std::fs::write(path, &chrome));
        let jsonl_path = path.with_extension("jsonl");
        checked(&jsonl_path, std::fs::write(&jsonl_path, ssd.trace_jsonl()));
        println!(
            "  trace: {} events recorded, {} dropped, parser round-trip OK",
            ssd.tracer().events().len(),
            ssd.tracer().dropped_events()
        );
        println!("  -> {}", path.display());
        println!("  -> {}", jsonl_path.display());
    }
}

/// The shared seeded workload behind `smoke` and `inspect`.
fn smoke_trace(scale: &Scale) -> cagc_workloads::Trace {
    use cagc_workloads::FiuWorkload;
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    FiuWorkload::Mail
        .synth_config((flash.logical_pages() as f64 * 0.9) as u64, 6_000, scale.seed)
        .generate()
}

/// The shared seeded device behind `smoke` and `inspect`.
fn smoke_device(traced: bool, sample: u64, preempt: bool) -> cagc_core::Ssd {
    use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = preempt;
    let mut ssd = Ssd::new(cfg);
    if traced {
        ssd.enable_tracing(TraceConfig { sample, ..TraceConfig::default() });
    }
    ssd
}

/// The `inspect` command: in-tree trace analytics. With `--diff A B` it
/// compares two JSONL traces phase by phase (GC-anatomy deltas); with
/// `--trace PATH` it analyzes `PATH` (the JSONL the `smoke` command
/// writes); with neither it runs the seeded smoke replay (honoring
/// `--preempt`) and analyzes it live — the live span stream and its
/// JSONL round-trip are byte-equivalent (tested in `cagc-trace`).
fn inspect(
    scale: &Scale,
    out_dir: &std::path::Path,
    trace_in: Option<&std::path::Path>,
    diff: Option<(&std::path::Path, &std::path::Path)>,
    preempt: bool,
    sample: u64,
) {
    use cagc_trace::{from_tracer, parse_jsonl, GcAnatomy, ParsedTrace, SpanProfile};

    /// A trace file that cannot be read or parsed stops the run before
    /// anything is written: an error naming the file (and, from
    /// `parse_jsonl`, the line), never a panic.
    fn load(path: &std::path::Path) -> ParsedTrace<'static> {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|text| {
                parse_jsonl(&text).map_err(|e| format!("parse {}: {e}", path.display()))
            });
        parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }

    if let Some((a, b)) = diff {
        let an_a = GcAnatomy::from_spans(&load(a).spans);
        let an_b = GcAnatomy::from_spans(&load(b).spans);
        let diff = an_a.diff_table(&an_b);
        let (a, b) = (a.display(), b.display());
        println!("GC anatomy diff (A = {a}, B = {b}; simulated ns)\n\n{}", diff.render());
        let path = out_dir.join("inspect_diff.csv");
        checked(&path, std::fs::write(&path, diff.to_csv()));
        println!("  -> {}", path.display());
        return;
    }

    // Declared first: the live records borrow from the device's tracer.
    let ssd;
    let parsed = match trace_in {
        Some(p) => load(p),
        None => {
            let mut device = smoke_device(true, sample, preempt);
            let _ = device.replay(&smoke_trace(scale));
            ssd = device;
            from_tracer(ssd.tracer())
        }
    };
    if parsed.dropped_events > 0 {
        println!(
            "WARNING: {} events were dropped at the tracer cap — the profile and \
             anatomy below are truncated",
            parsed.dropped_events
        );
    }
    let profile = SpanProfile::from_spans(&parsed.spans);
    let (spans, phases) = (profile.table(), GcAnatomy::from_spans(&parsed.spans).table());
    println!("Span profile (simulated ns)\n\n{}", spans.render());
    println!("GC anatomy (simulated ns; the total row is the GC wall)\n\n{}", phases.render());
    for (name, content) in [
        ("inspect_profile.csv", spans.to_csv()),
        ("inspect_anatomy.csv", phases.to_csv()),
        ("inspect_flame.txt", profile.flamegraph()),
    ] {
        let path = out_dir.join(name);
        checked(&path, std::fs::write(&path, &content));
        println!("  -> {}", path.display());
    }
}

/// An output path that cannot be used stops the run with an error naming
/// it, never a panic.
fn checked<T>(path: &std::path::Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(1)
    })
}

/// The next argument — a flag's value — or usage.
fn value(args: &mut VecDeque<String>) -> String {
    args.pop_front().unwrap_or_else(|| usage())
}

/// The next argument parsed as a number, or usage.
fn number<T: std::str::FromStr>(args: &mut VecDeque<String>) -> T {
    value(args).parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut args: VecDeque<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_scale();
    let mut out_dir = PathBuf::from("results");
    let mut cmds: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_sample: u64 = 1;
    let mut preempt = false;
    let mut diff: Option<(PathBuf, PathBuf)> = None;

    while let Some(a) = args.pop_front() {
        match a.as_str() {
            "--preempt" => preempt = true,
            "--diff" => diff = Some((value(&mut args).into(), value(&mut args).into())),
            "--trace" => trace_out = Some(value(&mut args).into()),
            "--trace-sample" => trace_sample = number(&mut args),
            "--smoke" => cmds.push(SMOKE.to_string()),
            "--scale" => match value(&mut args).as_str() {
                "quick" => scale = Scale::quick(),
                "default" => scale = Scale::default_scale(),
                "full" => scale = Scale::full(),
                other => {
                    eprintln!("unknown scale `{other}`");
                    usage()
                }
            },
            "--seed" => scale.seed = number(&mut args),
            "--workers" => scale.workers = number(&mut args),
            "--out" => out_dir = value(&mut args).into(),
            "-h" | "--help" => usage(),
            cmd if !cmd.starts_with('-') => cmds.push(cmd.to_string()),
            _ => usage(),
        }
    }
    if cmds.is_empty() {
        usage();
    }

    // Expand meta-commands and resolve every name before the first command
    // runs: a typo at the end of the line must cost nothing but the usage text.
    let mut steps: Vec<(&str, Step)> = Vec::new();
    for c in &cmds {
        if let Some((_, group)) = exp::COMMANDS.iter().find(|(meta, _)| meta == c) {
            steps.extend(group.iter().map(|k| (k.name, Step::Experiment(k))));
        } else if c == SMOKE {
            steps.push((SMOKE, Step::Smoke));
        } else if c == INSPECT {
            steps.push((INSPECT, Step::Inspect));
        } else if let Some(k) = exp::commands().find(|k| k.name == c) {
            steps.push((k.name, Step::Experiment(k)));
        } else {
            eprintln!("unknown command `{c}`");
            usage()
        }
    }

    checked(&out_dir, std::fs::create_dir_all(&out_dir));
    println!(
        "# CAGC repro | device {}GB | requests {} (Mail {}) | seed {}\n",
        scale.device_gb, scale.requests, scale.mail_requests, scale.seed
    );

    let mut ctx = exp::Ctx::new(scale);
    for (cmd, step) in steps {
        let t = Instant::now();
        match step {
            Step::Smoke => smoke(&scale, trace_out.as_deref(), trace_sample, preempt),
            Step::Inspect => inspect(
                &scale,
                &out_dir,
                trace_out.as_deref(),
                diff.as_ref().map(|(a, b)| (a.as_path(), b.as_path())),
                preempt,
                trace_sample,
            ),
            Step::Experiment(command) => {
                let art = (command.run)(&mut ctx);
                assert!(
                    art.csv.iter().map(|(name, _)| name.as_str()).eq(command.csv.iter().copied()),
                    "`{cmd}` must write exactly the CSVs its registry row declares"
                );
                println!("{}", art.text);
                for (name, csv) in &art.csv {
                    let path = out_dir.join(name);
                    checked(&path, std::fs::write(&path, csv));
                    println!("  -> {}", path.display());
                }
            }
        }
        println!("  [{cmd} in {:.1?}]\n", t.elapsed());
    }
}
