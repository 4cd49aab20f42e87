//! Byte-identity pins for the migration and host-write paths.
//!
//! The digests below were recorded on the commit *before* the GC migration
//! loop was restructured into gather → warm → apply passes
//! (docs/PERFORMANCE.md). That restructuring only reorders host-side memory
//! accesses, so every rendered report — and, where tracing is on, every
//! byte of the JSONL event log — must come out exactly as before, on the
//! paths the repo's benchmark workloads do not reach directly: all three
//! paper schemes × run-to-completion / sliced GC × fault-free / fault plan
//! armed × untraced / traced.
//!
//! A second table, `PINNED_COLLECTOR`, pins the GC entry points and
//! victim policies those cells do not reach; it was recorded before the
//! entry points were folded into one collector.
//!
//! Both tables also pin the fold of the blind migrator into the per-page
//! step every scheme's GC now takes: the Baseline, Inline-Dedupe and
//! Inline-Sampled cells were recorded while blind migration was still a
//! batched pass of its own (all programs, then all remaps), and they
//! reproduce unchanged with each page relocated in turn.
//!
//! A mismatch prints the whole freshly-computed table, so an *intended*
//! behaviour change can re-pin by pasting it over the table that moved.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_ftl::VictimKind;
use cagc_harness::ToJson;
use cagc_trace::TraceConfig;
use cagc_workloads::{SynthConfig, Trace};

/// Overwrite- and duplicate-heavy churn with multi-page writes and trims:
/// GC runs hundreds of rounds on the tiny device and CAGC sees dedup hits,
/// stored-copy relocations, first-time inserts and promotions.
fn churn_trace() -> Trace {
    SynthConfig {
        name: "identity".into(),
        requests: 6_000,
        logical_pages: (UllConfig::tiny_for_tests().logical_pages() as f64 * 0.93) as u64,
        write_ratio: 0.8,
        dedup_ratio: 0.4,
        mean_req_pages: 2.5,
        max_req_pages: 8,
        mean_interarrival_ns: 200_000,
        seed: 7,
        ..Default::default()
    }
    .generate()
}

/// FNV-1a, 64-bit: enough to pin bytes, no dependency.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The fault plan of the `faulted` cells.
fn fault_plan() -> FaultConfig {
    FaultConfig {
        program_fail_prob: 0.002,
        erase_fail_prob: 0.0005,
        read_ecc_prob: 0.05,
        seed: 11,
        ..FaultConfig::none()
    }
}

/// How a cell drives the device.
#[derive(Clone, Copy, PartialEq)]
enum Drive {
    /// `Ssd::replay`.
    Replay,
    /// `Ssd::process` per request, with the host pump (`gc_pump`) after
    /// every 5th and a forced round (`force_gc`) after every 37th, both on
    /// the last completion's clock — on a `gc_preempt` device every entry
    /// point gets to resume a job another one suspended.
    Scripted,
}

/// One cell's `(report digest, JSONL trace digest)`; the trace digest is 0
/// when tracing is off.
fn run_cfg(cfg: SsdConfig, traced: bool, drive: Drive, trace: &Trace) -> (u64, u64) {
    let scheme = cfg.scheme;
    let mut ssd = Ssd::new(cfg);
    if traced {
        ssd.enable_tracing(TraceConfig::default());
    }
    let report = match drive {
        Drive::Replay => ssd.replay(trace),
        Drive::Scripted => {
            for (i, req) in trace.requests.iter().enumerate() {
                ssd.process(req);
                if i % 5 == 4 {
                    ssd.gc_pump(ssd.last_completion());
                }
                if i % 37 == 36 {
                    ssd.force_gc(ssd.last_completion());
                }
            }
            ssd.report(&trace.name)
        }
    };
    ssd.audit()
        .unwrap_or_else(|e| panic!("{scheme:?} audit: {e}"));
    let trace_digest = if traced {
        digest(ssd.trace_jsonl().as_bytes())
    } else {
        0
    };
    (digest(report.to_json().render().as_bytes()), trace_digest)
}

fn run_cell(
    scheme: Scheme,
    preempt: bool,
    faulted: bool,
    traced: bool,
    trace: &Trace,
) -> (u64, u64) {
    let mut cfg = SsdConfig::tiny(scheme);
    cfg.gc_preempt = preempt;
    if faulted {
        cfg.faults = fault_plan();
    }
    run_cfg(cfg, traced, Drive::Replay, trace)
}

/// `(scheme, gc_preempt, faults armed, traced, report digest, trace digest)`.
type Pin = (Scheme, bool, bool, bool, u64, u64);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    (Scheme::Baseline, false, false, false, 0xc603814a725c0c9c, 0x0000000000000000),
    (Scheme::Baseline, false, false, true, 0x6c5650c76a39f52d, 0x6472f6ade8eb22ff),
    (Scheme::Baseline, false, true, false, 0x4f69f215000e4b9b, 0x0000000000000000),
    (Scheme::Baseline, false, true, true, 0xd2f62e03227e638e, 0xea71f7b2240e194f),
    (Scheme::Baseline, true, false, false, 0x2f21cafd325cc614, 0x0000000000000000),
    (Scheme::Baseline, true, false, true, 0x993bca0c4fa01145, 0x5257b117e08eb329),
    (Scheme::Baseline, true, true, false, 0x6e3b34a0a55db96e, 0x0000000000000000),
    (Scheme::Baseline, true, true, true, 0x8186b8cac4a44fce, 0x6f36f24be5bcd28e),
    (Scheme::InlineDedup, false, false, false, 0x798c4b608ab582fc, 0x0000000000000000),
    (Scheme::InlineDedup, false, false, true, 0x18ae6c9726b9a4c4, 0xcfefe77cfd900615),
    (Scheme::InlineDedup, false, true, false, 0x006352c6f25b6fbc, 0x0000000000000000),
    (Scheme::InlineDedup, false, true, true, 0xedb78803acc0657a, 0xe807cd3c87dd3878),
    (Scheme::InlineDedup, true, false, false, 0x798c4b608ab582fc, 0x0000000000000000),
    (Scheme::InlineDedup, true, false, true, 0x18ae6c9726b9a4c4, 0xa077281a342f0e9c),
    (Scheme::InlineDedup, true, true, false, 0x006352c6f25b6fbc, 0x0000000000000000),
    (Scheme::InlineDedup, true, true, true, 0xedb78803acc0657a, 0x59745fc37095cec1),
    (Scheme::Cagc, false, false, false, 0x64de10663b160277, 0x0000000000000000),
    (Scheme::Cagc, false, false, true, 0xa4fb8b7c345d3603, 0x23876c40c141c825),
    (Scheme::Cagc, false, true, false, 0xca40f2305ccef480, 0x0000000000000000),
    (Scheme::Cagc, false, true, true, 0xe03cbf9be66110a6, 0xfb279d0a784fc937),
    (Scheme::Cagc, true, false, false, 0xc0117efddba6d91d, 0x0000000000000000),
    (Scheme::Cagc, true, false, true, 0xd11a6dfe34c65934, 0xaec815ffdb07e514),
    (Scheme::Cagc, true, true, false, 0x70d80ea256625a94, 0x0000000000000000),
    (Scheme::Cagc, true, true, true, 0xb4f82df2b5948eac, 0xf540a7529d00c5c0),
];

#[test]
fn reports_and_traces_match_the_pre_restructuring_bytes() {
    let trace = churn_trace();
    let mut actual = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::InlineDedup, Scheme::Cagc] {
        for preempt in [false, true] {
            for faulted in [false, true] {
                for traced in [false, true] {
                    let (report, jsonl) = run_cell(scheme, preempt, faulted, traced, &trace);
                    actual.push((scheme, preempt, faulted, traced, report, jsonl));
                }
            }
        }
    }
    if actual != PINNED {
        let table: String = actual
            .iter()
            .map(|(s, p, f, t, r, j)| {
                format!("    (Scheme::{s:?}, {p}, {f}, {t}, {r:#018x}, {j:#018x}),\n")
            })
            .collect();
        panic!("digests moved; freshly computed table:\n{table}");
    }
}

/// `(cell, report digest, trace digest)` for the GC paths the 24 cells above
/// do not reach: victim selection by every non-Greedy policy (candidate
/// order and RNG draws), the idle-window round, the blind copy of
/// untracked pages (Inline-Sampled), a suspended job resumed by each of
/// `process`, `gc_pump` and `force_gc`, and the urgent catch-up leg.
/// Recorded on the commit before the GC entry points were folded into one
/// collector (DESIGN.md §4, "CAGC GC workflow").
#[rustfmt::skip]
const PINNED_COLLECTOR: &[(&str, u64, u64)] = &[
    ("cagc/Random/traced=false", 0xfbb670ed3e1d6feb, 0x0000000000000000),
    ("cagc/Random/traced=true", 0x2665d75d307627ea, 0x1ef129473d0dbeca),
    ("cagc/Cost-Benefit/traced=false", 0xefca885bb7d40d31, 0x0000000000000000),
    ("cagc/Cost-Benefit/traced=true", 0x3c2a76e1c9739c30, 0xeb527745ae77ecae),
    ("cagc/FIFO/traced=false", 0x48044ba1735e99ef, 0x0000000000000000),
    ("cagc/FIFO/traced=true", 0x089d31a3b08a141d, 0x4cc3abdfb943eb2f),
    ("cagc/D-Choices/traced=false", 0xa9981929f3e11d56, 0x0000000000000000),
    ("cagc/D-Choices/traced=true", 0x448a5d3cbc92109f, 0xd6b5b433a3667882),
    ("cagc/idle_gc/preempt=false", 0x5bb5c6eb464bce71, 0x5af4b86da8552b08),
    ("cagc/idle_gc/preempt=true", 0xf5db525037583f0a, 0xc00c207d08762cae),
    ("inline_sampled/preempt=false/faulted=false", 0xdf444340a74c66de, 0x2846cfefc42847f6),
    ("inline_sampled/preempt=true/faulted=false", 0x78d2175818594cd6, 0x1d4e774d1fdd15da),
    ("inline_sampled/preempt=true/faulted=true", 0xbd694c9bc913d53a, 0x716c50029d5653bc),
    ("scripted/CAGC/faulted=false", 0x2c1a059881f2a051, 0xfc7a737be1318f29),
    ("scripted/CAGC/faulted=true", 0x934a215e0c5f3471, 0x7f6b5abfc7243c8e),
    ("scripted/Baseline/faulted=true", 0x597d981653abef27, 0xaa0885f4b0cf4aa4),
    ("urgent/CAGC/faulted=false/scripted=false", 0x089e40252224991f, 0xe23105c214c2965e),
    ("urgent/CAGC/faulted=true/scripted=true", 0xd0a96ffe9fec116c, 0xe0461e47b909c104),
    ("urgent/Baseline/faulted=false/scripted=false", 0xca9047251747cb49, 0x736be991dfb57f0c),
];

#[test]
fn rerouted_collector_paths_match_the_pre_refactor_bytes() {
    let trace = churn_trace();
    let mut cells: Vec<(String, SsdConfig, bool, Drive)> = Vec::new();
    for victim in [
        VictimKind::Random,
        VictimKind::CostBenefit,
        VictimKind::Fifo,
        VictimKind::DChoices,
    ] {
        for traced in [false, true] {
            let mut cfg = SsdConfig::tiny(Scheme::Cagc);
            cfg.victim = victim;
            cells.push((format!("cagc/{}/traced={traced}", victim.name()), cfg, traced, Drive::Replay));
        }
    }
    for preempt in [false, true] {
        let mut cfg = SsdConfig::tiny(Scheme::Cagc);
        cfg.idle_gc = true;
        cfg.gc_preempt = preempt;
        cells.push((format!("cagc/idle_gc/preempt={preempt}"), cfg, true, Drive::Replay));
    }
    for (preempt, faulted) in [(false, false), (true, false), (true, true)] {
        let mut cfg = SsdConfig::tiny(Scheme::InlineSampled);
        cfg.gc_preempt = preempt;
        // Victims here hold few valid pages: a 2-page quantum makes jobs
        // actually suspend.
        cfg.gc_slice_pages = 2;
        if faulted {
            cfg.faults = fault_plan();
        }
        let name = format!("inline_sampled/preempt={preempt}/faulted={faulted}");
        cells.push((name, cfg, true, Drive::Replay));
    }
    for (scheme, faulted) in [(Scheme::Cagc, false), (Scheme::Cagc, true), (Scheme::Baseline, true)] {
        let mut cfg = SsdConfig::tiny(scheme);
        cfg.gc_preempt = true;
        if faulted {
            cfg.faults = fault_plan();
        }
        let name = format!("scripted/{}/faulted={faulted}", scheme.name());
        cells.push((name, cfg, true, Drive::Scripted));
    }
    // Slices too small to keep up and an urgent floor one block under the
    // low watermark: the catch-up leg runs (dozens of `gc_urgent` episodes
    // per cell), draining suspended jobs and then whole victims.
    for (scheme, faulted, drive) in [
        (Scheme::Cagc, false, Drive::Replay),
        (Scheme::Cagc, true, Drive::Scripted),
        (Scheme::Baseline, false, Drive::Replay),
    ] {
        let mut cfg = SsdConfig::tiny(scheme);
        cfg.gc_preempt = true;
        cfg.gc_slice_pages = 1;
        cfg.gc_urgent_fraction = 6.5 / f64::from(cfg.flash.geometry().total_blocks());
        if faulted {
            cfg.faults = fault_plan();
        }
        let scripted = drive == Drive::Scripted;
        let name = format!("urgent/{}/faulted={faulted}/scripted={scripted}", scheme.name());
        cells.push((name, cfg, true, drive));
    }
    let actual: Vec<(String, u64, u64)> = cells
        .into_iter()
        .map(|(name, cfg, traced, drive)| {
            let (report, jsonl) = run_cfg(cfg, traced, drive, &trace);
            (name, report, jsonl)
        })
        .collect();
    if !actual.iter().map(|(n, r, j)| (n.as_str(), *r, *j)).eq(PINNED_COLLECTOR.iter().copied()) {
        let table: String = actual
            .iter()
            .map(|(n, r, j)| format!("    ({n:?}, {r:#018x}, {j:#018x}),\n"))
            .collect();
        panic!("digests moved; freshly computed table:\n{table}");
    }
}
