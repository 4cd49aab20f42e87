//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale quick|default|full] [--seed N] [--out DIR] [--workers N]
//!       [--trace PATH] [--trace-sample N] [--resilient] [--preempt]
//!       [--diff A B] [--smoke] CMD...
//!
//! CMD: table1 table2 fig2 fig6 fig9 fig10 fig11 fig12 fig13
//!      ablate-placement ablate-overlap ablate-threshold ablate-watermark
//!      compare-inline sweep-utilization sweep-trim sweep-faults sweep-qd
//!      sweep-fleet sweep-chaos wear
//!      smoke      (one seeded GC-heavy CAGC replay; with --trace, emits
//!                  a Chrome trace + JSONL event log — see docs/OBSERVABILITY.md)
//!      inspect    (trace analytics: span profile, GC-cycle anatomy, and
//!                  flamegraph from --trace PATH.jsonl or a fresh seeded
//!                  replay; --diff A B reports per-GC-phase time deltas
//!                  between two JSONL traces)
//!      all        (tables + every figure)
//!      ablations  (every ablation and extension study)
//! ```
//!
//! Text results go to stdout; CSV series are written under `--out`
//! (default `results/`). `--smoke` is shorthand for the `smoke` command;
//! `--trace-sample N` records every Nth host request's spans (GC, fault
//! and gauge activity is always recorded). `--preempt` runs the seeded
//! smoke/inspect replay with preemptible (sliced) GC. `--resilient` arms
//! the host retry/deadline policy in `sweep-qd` — on fault-free devices
//! it must change nothing (the byte-identity gate `scripts/verify.sh`
//! runs).

use cagc_bench::experiments as exp;
use cagc_bench::{Artifacts, Scale};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale quick|default|full] [--seed N] [--out DIR] [--workers N]\n\
         \x20            [--trace PATH] [--trace-sample N] [--resilient] [--preempt]\n\
         \x20            [--diff A B] [--smoke] CMD...\n\
         CMD: table1 table2 fig2 fig6 fig9 fig10 fig11 fig12 fig13\n\
         \x20    ablate-placement ablate-overlap ablate-threshold ablate-watermark ablate-idle-gc\n\
         \x20    compare-inline sweep-utilization sweep-trim sweep-faults sweep-qd sweep-fleet\n\
         \x20    sweep-chaos wear\n\
         \x20    smoke | inspect | all | ablations"
    );
    std::process::exit(2);
}

/// The `smoke` command: one seeded, GC-heavy CAGC replay on the tiny
/// device. With `--trace` it emits the two deterministic trace artifacts
/// (Chrome trace-event JSON at `path`, JSONL next to it) and proves the
/// Chrome document round-trips through the harness JSON parser before
/// anything touches disk.
fn smoke(scale: &Scale, trace_out: Option<&std::path::Path>, sample: u64, preempt: bool) {
    let mut ssd = smoke_device(scale, trace_out.is_some(), sample, preempt);
    let trace = smoke_trace(scale);
    let report = ssd.replay(&trace);
    println!("{}", report.render());
    if let Some(path) = trace_out {
        let chrome = ssd.chrome_trace();
        let parsed = cagc_harness::Json::parse(&chrome).expect("emitted trace must parse");
        assert_eq!(parsed.render(), chrome, "harness parser round-trip");
        std::fs::write(path, &chrome).expect("write Chrome trace");
        let jsonl_path = path.with_extension("jsonl");
        std::fs::write(&jsonl_path, ssd.trace_jsonl()).expect("write JSONL log");
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
fn smoke_device(scale: &Scale, traced: bool, sample: u64, preempt: bool) -> cagc_core::Ssd {
    use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
    let _ = scale;
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

    fn load(path: &std::path::Path) -> ParsedTrace<'static> {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        parse_jsonl(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
    }

    if let Some((a, b)) = diff {
        let an_a = GcAnatomy::from_spans(&load(a).spans);
        let an_b = GcAnatomy::from_spans(&load(b).spans);
        let csv = an_a.diff_csv(&an_b);
        println!("GC anatomy diff (A = {}, B = {}):", a.display(), b.display());
        print!("{csv}");
        let path = out_dir.join("inspect_diff.csv");
        std::fs::write(&path, &csv).expect("write diff CSV");
        println!("  -> {}", path.display());
        return;
    }

    // Declared first: the live records borrow from the device's tracer.
    let ssd;
    let parsed = match trace_in {
        Some(p) => load(p),
        None => {
            let mut device = smoke_device(scale, true, sample, preempt);
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
    let anatomy = GcAnatomy::from_spans(&parsed.spans);
    println!("{}", profile.render());
    println!("{}", anatomy.render());
    for (name, content) in [
        ("inspect_profile.csv", profile.to_csv()),
        ("inspect_anatomy.csv", anatomy.to_csv()),
        ("inspect_flame.txt", profile.flamegraph()),
    ] {
        let path = out_dir.join(name);
        std::fs::write(&path, &content).expect("write inspect artifact");
        println!("  -> {}", path.display());
    }
}

fn main() {
    let mut args: VecDeque<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_scale();
    let mut out_dir = PathBuf::from("results");
    let mut cmds: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_sample: u64 = 1;
    let mut resilient = false;
    let mut preempt = false;
    let mut diff: Option<(PathBuf, PathBuf)> = None;

    while let Some(a) = args.pop_front() {
        match a.as_str() {
            "--resilient" => resilient = true,
            "--preempt" => preempt = true,
            "--diff" => {
                let a = PathBuf::from(args.pop_front().unwrap_or_else(|| usage()));
                let b = PathBuf::from(args.pop_front().unwrap_or_else(|| usage()));
                diff = Some((a, b));
            }
            "--trace" => {
                trace_out = Some(PathBuf::from(args.pop_front().unwrap_or_else(|| usage())))
            }
            "--trace-sample" => {
                trace_sample = args
                    .pop_front()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--smoke" => cmds.push("smoke".to_string()),
            "--scale" => match args.pop_front().as_deref() {
                Some("quick") => scale = Scale::quick(),
                Some("default") => scale = Scale::default_scale(),
                Some("full") => scale = Scale::full(),
                other => {
                    eprintln!("unknown scale {other:?}");
                    usage()
                }
            },
            "--seed" => {
                scale.seed = args
                    .pop_front()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--workers" => {
                scale.workers = args
                    .pop_front()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out_dir = PathBuf::from(args.pop_front().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            cmd if !cmd.starts_with('-') => cmds.push(cmd.to_string()),
            _ => usage(),
        }
    }
    if cmds.is_empty() {
        usage();
    }

    // Expand meta-commands.
    let mut expanded = Vec::new();
    for c in cmds {
        match c.as_str() {
            "all" => expanded.extend(
                ["table1", "table2", "fig2", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13"]
                    .map(String::from),
            ),
            "ablations" => expanded.extend(
                ["ablate-placement", "ablate-overlap", "ablate-threshold", "ablate-watermark", "ablate-idle-gc", "compare-inline", "sweep-utilization", "sweep-trim", "sweep-faults", "sweep-qd", "sweep-fleet", "sweep-chaos", "wear"]
                    .map(String::from),
            ),
            _ => expanded.push(c),
        }
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    println!(
        "# CAGC repro | device {}GB | requests {} (Mail {}) | seed {}\n",
        scale.device_gb, scale.requests, scale.mail_requests, scale.seed
    );

    // The aged grid is shared by fig6/9/10/11/12: run it lazily, once.
    let mut aged: Option<exp::AgedResults> = None;
    fn ensure_aged<'a>(
        aged: &'a mut Option<exp::AgedResults>,
        scale: &Scale,
    ) -> &'a exp::AgedResults {
        if aged.is_none() {
            let t = Instant::now();
            eprintln!("[aged grid: 3 workloads x 3 schemes ...]");
            *aged = Some(exp::run_aged(scale));
            eprintln!("[aged grid done in {:.1?}]", t.elapsed());
        }
        aged.as_ref().expect("just set")
    }

    for cmd in &expanded {
        let t = Instant::now();
        if cmd == "smoke" {
            smoke(&scale, trace_out.as_deref(), trace_sample, preempt);
            println!("  [smoke in {:.1?}]\n", t.elapsed());
            continue;
        }
        if cmd == "inspect" {
            inspect(
                &scale,
                &out_dir,
                trace_out.as_deref(),
                diff.as_ref().map(|(a, b)| (a.as_path(), b.as_path())),
                preempt,
                trace_sample,
            );
            println!("  [inspect in {:.1?}]\n", t.elapsed());
            continue;
        }
        let art: Artifacts = match cmd.as_str() {
            "table1" => exp::table1(&scale),
            "table2" => exp::table2(&scale),
            "fig2" => exp::fig2(&scale),
            "fig6" => exp::fig6(ensure_aged(&mut aged, &scale)),
            "fig9" => exp::fig9(ensure_aged(&mut aged, &scale)),
            "fig10" => exp::fig10(ensure_aged(&mut aged, &scale)),
            "fig11" => exp::fig11(ensure_aged(&mut aged, &scale)),
            "fig12" => exp::fig12(ensure_aged(&mut aged, &scale)),
            "fig13" => exp::fig13(&scale),
            "ablate-placement" => exp::ablate_placement(&scale),
            "ablate-overlap" => exp::ablate_overlap(&scale),
            "ablate-threshold" => exp::ablate_threshold(&scale),
            "ablate-watermark" => exp::ablate_watermark(&scale),
            "ablate-idle-gc" => exp::ablate_idle_gc(&scale),
            "compare-inline" => exp::compare_inline(&scale),
            "sweep-utilization" => exp::sweep_utilization(&scale),
            "sweep-trim" => exp::sweep_trim(&scale),
            "sweep-faults" => exp::sweep_faults(&scale),
            "sweep-qd" => exp::sweep_qd(&scale, resilient),
            "sweep-fleet" => exp::sweep_fleet(&scale),
            "sweep-chaos" => exp::sweep_chaos(&scale),
            "wear" => exp::wear_study(&scale),
            other => {
                eprintln!("unknown command `{other}`");
                usage()
            }
        };
        println!("{}", art.text);
        for (name, csv) in &art.csv {
            let path = out_dir.join(name);
            std::fs::write(&path, csv).expect("write CSV artifact");
            println!("  -> {}", path.display());
        }
        println!("  [{cmd} in {:.1?}]\n", t.elapsed());
    }
}
