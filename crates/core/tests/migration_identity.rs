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
//! A mismatch prints the whole freshly-computed table, so an *intended*
//! behaviour change can re-pin by pasting it over `PINNED`.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::{FaultConfig, UllConfig};
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

/// One cell's `(report digest, JSONL trace digest)`; the trace digest is 0
/// when tracing is off.
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
        cfg.faults = FaultConfig {
            program_fail_prob: 0.002,
            erase_fail_prob: 0.0005,
            read_ecc_prob: 0.05,
            seed: 11,
            ..FaultConfig::none()
        };
    }
    let mut ssd = Ssd::new(cfg);
    if traced {
        ssd.enable_tracing(TraceConfig::default());
    }
    let report = ssd.replay(trace);
    ssd.audit()
        .unwrap_or_else(|e| panic!("{scheme:?} audit: {e}"));
    let trace_digest = if traced {
        digest(ssd.trace_jsonl().as_bytes())
    } else {
        0
    };
    (digest(report.to_json().render().as_bytes()), trace_digest)
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
