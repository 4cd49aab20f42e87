//! One run of one workload: the end-to-end pass (`--trace 0`) or the
//! traced pass (`--trace 1`). This is the unit the driver invokes; the
//! full run invokes it once per workload and pass, in a fresh process.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use cagc_harness::Json;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::speed::{self, Kernel};
use crate::stats::{median, Summary};
use crate::workloads::{self, Checks, EstCounts, IterOutcome, Layers, Workload, ITER_SPAN};
use crate::{jsonx, probes, rss};

/// Set-ups per end-to-end run: this process's own plus fresh processes
/// that only set up (cold caches each time), so `setup_s` is a median.
const SETUP_REPS: usize = 3;
/// Timed iterations a run makes however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Reference-kernel runs on each side of a set-up (0.5 s to 3 s long).
const SETUP_KERNEL_REPS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Also print the `#detail` line (quartiles, sample counts, failures)
    /// the full run collects.
    pub detail: bool,
    /// Directory the traced pass writes its span log to.
    pub out: Option<PathBuf>,
}

/// Build the inputs and run the untimed warm-up iteration, which is also
/// the reference every later iteration must reproduce. Returns the
/// set-up time in seconds at reference machine speed.
fn set_up(
    args: &RunArgs,
    rec: &mut Spans,
    kernel: &mut Kernel,
) -> Result<(Box<dyn Workload>, IterOutcome, f64), String> {
    let before = kernel.sample_ms(SETUP_KERNEL_REPS);
    let start = Instant::now();
    let mut workload = workloads::build(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let reference = workload.iterate(rec);
    let raw_s = start.elapsed().as_secs_f64();
    let setup_s = raw_s * speed::to_reference(before, kernel.sample_ms(SETUP_KERNEL_REPS));
    Ok((workload, reference, setup_s))
}

/// `--setup-only`: set up in this (fresh) process and print the time.
pub fn setup_only(args: &RunArgs) -> Result<(), String> {
    let (_, _, setup_s) = set_up(args, &mut Spans::new(), &mut Kernel::new())?;
    println!("{}", Json::obj([("setup_s", Json::F64(setup_s))]).render());
    Ok(())
}

fn setup_in_fresh_process(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    Json::parse(last)
        .ok()
        .and_then(|j| jsonx::num(&j, "setup_s"))
        .ok_or_else(|| format!("set-up process printed `{last}`"))
}

/// One named result of a run.
struct Metric {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
}

/// What a run hands to [`report`].
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    unfinished: u64,
    iterations: usize,
    /// Output digest of the reference iteration; the full run requires the
    /// two passes (two processes) to agree on it.
    digest: u64,
    /// Lines for the reader that are not metrics.
    notes: Vec<String>,
    checks: Checks,
}

pub fn run(args: &RunArgs) -> Result<i32, String> {
    let outcome = if args.trace {
        traced(args)?
    } else {
        end_to_end(args)?
    };
    Ok(report(args, &outcome))
}

fn end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        setups.push(setup_in_fresh_process(args)?);
    }
    let mut rec = Spans::new();
    let mut kernel = Kernel::new();
    let (mut workload, reference, setup_s) = set_up(args, &mut rec, &mut kernel)?;
    setups.push(setup_s);

    // Closed loop, one client: the next iteration starts when the previous
    // one returns. Stop before an iteration that would overrun the budget.
    // Every iteration sits between two runs of the reference kernel and is
    // reported at reference machine speed (see `speed`).
    let kernel_reps = speed::reps_for(rec.last_s(ITER_SPAN));
    let started = Instant::now();
    let (mut walls, mut raw_walls, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mib = 0.0;
    kernel_ms.push(kernel.sample_ms(kernel_reps));
    while walls.len() < MIN_ITERATIONS
        || started.elapsed().as_secs_f64() + median(&raw_walls) <= args.seconds
    {
        let out = workload.iterate(&mut rec);
        checks.same_outcome(&format!("iteration {}", walls.len() + 1), &reference, &out);
        let raw = rec.last_s(ITER_SPAN);
        let (before, after) = (
            kernel_ms[kernel_ms.len() - 1],
            kernel.sample_ms(kernel_reps),
        );
        walls.push(raw * speed::to_reference(before, after));
        raw_walls.push(raw);
        kernel_ms.push(after);
        // Read after a fixed amount of work: a pool's fresh threads let the
        // heap creep from iteration to iteration, and how many of them fit
        // in `--seconds` depends on the machine's speed.
        if walls.len() == MIN_ITERATIONS {
            peak_rss_mib = rss::peak_rss_mib()?;
        }
    }
    workload.finish(&mut checks);

    let n = walls.len();
    let per_iter = |f: fn(f64, &IterOutcome) -> f64| {
        Summary::of(
            &walls
                .iter()
                .map(|&wall| f(wall, &reference))
                .collect::<Vec<_>>(),
        )
    };
    let exact = |v: f64| Summary {
        n,
        ..Summary::single(v)
    };
    let sim = reference.sim;
    let summaries = [
        Summary::of(&setups),
        per_iter(|wall, it| it.requests as f64 / wall),
        per_iter(|wall, it| wall * 1e9 / it.flash_ops as f64),
        Summary::single(peak_rss_mib),
        exact(sim.read_p99_us),
        exact(sim.gc_mean_us),
        exact(sim.waf),
        exact(sim.blocks_erased),
        exact(sim.pages_migrated),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(summaries)
        .map(|(m, summary)| Metric {
            name: m.name,
            unit: m.unit,
            summary,
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: reference.requests * n as u64,
        unfinished: reference.unfinished * n as u64,
        iterations: n,
        digest: reference.digest,
        notes: vec![format!(
            "machine speed {:.3} x nominal (reference kernel {:.1} ms); raw median iteration {:.1} ms, \
             {:.0} req/s",
            speed::NOMINAL_MS / median(&kernel_ms),
            median(&kernel_ms),
            median(&raw_walls) * 1e3,
            reference.requests as f64 / median(&raw_walls),
        )],
        checks,
    })
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut rec = Spans::new();
    let mut kernel = Kernel::new();
    let (mut workload, reference, _) = set_up(args, &mut rec, &mut kernel)?;
    let mut layers = Layers::default();
    let kernel_before = kernel.sample_ms(SETUP_KERNEL_REPS);
    let counts = workload.traced(&mut rec, &mut layers, &mut checks);
    workload.finish(&mut checks);
    probes::run_all(&mut layers);
    // Per-layer host times are raw; this says how fast the machine was.
    let speed_x = speed::to_reference(kernel_before, kernel.sample_ms(SETUP_KERNEL_REPS));
    layers.set("bench.machine_speed_x", speed_x);
    if let Some(counts) = counts {
        estimate_shares(&mut layers, &counts);
    }

    println!("self time by span (ms):");
    for (name, ms) in rec.self_ms_by_name() {
        println!("  {name:<28} {ms:>12.3}");
    }
    if let Some(dir) = &args.out {
        let path = dir.join(format!("spans_{}.json", args.workload));
        std::fs::write(&path, rec.to_json().render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            // 0 = does not apply to this workload.
            summary: Summary::single(layers.get(m.name).unwrap_or(0.0)),
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: reference.requests,
        unfinished: reference.unfinished,
        iterations: 1,
        digest: reference.digest,
        notes: Vec::new(),
        checks,
    })
}

/// `est.*_share`: operation counts of the replay times the probes' cost
/// per operation, over the replay's wall. With one thread and nothing
/// contending, a faster layer saves at most its share.
fn estimate_shares(layers: &mut Layers, c: &EstCounts) {
    let probe = |name: &str| layers.get(name).expect("probes ran");
    let s = &c.stats;
    // The flash probes reserve die time too; count that under `sim`.
    let sim = s.total_ops() as f64 * probe("sim.timeline_reserve_ns");
    let flash = s.reads as f64 * probe("flash.read_ns")
        + s.programs as f64 * probe("flash.program_ns")
        + s.erases as f64 * probe("flash.erase_ns")
        + c.invalidations as f64 * probe("flash.invalidate_ns")
        + c.gc_rounds as f64 * probe("flash.greedy_victim_ns")
        - sim;
    // One map read per host page read, a read and a write per host page
    // written, a write per migration; the probe times a set + get pair.
    let map_pairs = (c.host_pages_read + 2 * c.host_pages_written + c.pages_migrated) as f64 / 2.0;
    let ftl = map_pairs * probe("ftl.map_set_get_ns")
        + s.programs as f64 * (probe("ftl.rmap_add_remove_ns") + probe("ftl.alloc_page_ns"))
        + c.pages_migrated as f64 * probe("ftl.rmap_relocate_ns");
    let dedup = c.index_lookups as f64 * probe("dedup.fp_cached_ns")
        + c.index_hits as f64 * probe("dedup.index_hit_ns")
        + (c.index_lookups - c.index_hits) as f64 * probe("dedup.index_miss_ns")
        + c.index_inserts as f64 * probe("dedup.index_insert_release_ns");
    // Three histogram records per request, a fourth inside GC periods;
    // five quantile sets and one CDF per report.
    let metrics = (3 * c.requests + c.gc_period_requests) as f64 * probe("metrics.hist_record_ns")
        + (5.0 * probe("metrics.quantiles_us") + probe("metrics.cdf_us")) * 1e3;
    let shares = [flash, ftl, dedup, sim, metrics].map(|ns| ns / c.wall_ns);
    let names = [
        "est.flash_share",
        "est.ftl_share",
        "est.dedup_share",
        "est.sim_share",
        "est.metrics_share",
    ];
    for (name, share) in names.into_iter().zip(shares) {
        layers.set(name, share);
    }
    layers.set("est.unattributed_share", 1.0 - shares.iter().sum::<f64>());
}

/// Print every metric, then the contract's result line. Returns the
/// process exit code.
fn report(args: &RunArgs, o: &Outcome) -> i32 {
    let pass = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "{} seed {} {pass} pass, {} iteration(s)",
        args.workload, args.seed, o.iterations
    );
    println!(
        "  {:<36} {:>10} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &o.metrics {
        let s = &m.summary;
        println!(
            "  {:<36} {:>10} {:>16.4} {:>16.4} {:>16.4} {:>4}",
            m.name, m.unit, s.median, s.q1, s.q3, s.n
        );
    }
    for note in &o.notes {
        println!("{note}");
    }
    if args.trace {
        // Simulated results are only as good as the model: say how far it
        // is from a reference, or that this workload has none.
        let errors: Vec<String> = o
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("accuracy.") && m.summary.median != 0.0)
            .map(|m| format!("{} {:.2} {}", m.name, m.summary.median, m.unit))
            .collect();
        let errors = if errors.is_empty() {
            "unvalidated (no reference)".into()
        } else {
            errors.join(", ")
        };
        println!("simulated results against a reference: {errors}");
    }
    for failure in &o.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed = o.unfinished + o.checks.failures.len() as u64;
    if args.detail {
        let detail = Json::obj([
            ("iterations", Json::U64(o.iterations as u64)),
            ("digest", Json::Str(format!("{:016x}", o.digest))),
            (
                "failures",
                Json::Arr(o.checks.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    o.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), m.summary.to_json(m.unit)))
                        .collect(),
                ),
            ),
        ]);
        println!("#detail {}", detail.render());
    }
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj([
                ("value", Json::F64(m.summary.median)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(o.checks.all_passed())),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    crate::exit_code(&o.checks)
}
