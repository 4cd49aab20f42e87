//! End-to-end tracing properties on a full simulated SSD.
//!
//! These are the acceptance checks of the observability layer: a traced
//! CAGC replay carries spans for every GC phase (victim selection,
//! migrate-read, fingerprint, migrate-write, erase, dedup-drop); a
//! faulted run carries retry and recovery events; identical seeds yield
//! byte-identical trace artifacts; and the whole layer is pay-as-you-go —
//! an untraced run's report renders byte-identical to one from a build
//! that never enabled tracing.

use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_flash::FaultConfig;
use cagc_harness::{Json, ToJson};
use cagc_trace::{EventKind, Track};
use cagc_workloads::{FiuWorkload, Trace};

/// Mail-like dedup-heavy workload, aged enough to force GC on the tiny
/// device (same shape the determinism suite replays).
fn gc_heavy_trace(seed: u64) -> Trace {
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    FiuWorkload::Mail
        .synth_config((flash.logical_pages() as f64 * 0.9) as u64, 6_000, seed)
        .generate()
}

fn traced_ssd(cfg: SsdConfig, trace_cfg: TraceConfig) -> Ssd {
    let mut ssd = Ssd::new(cfg);
    ssd.enable_tracing(trace_cfg);
    ssd
}

fn names_of(ssd: &Ssd) -> Vec<&str> {
    ssd.tracer().events().iter().map(|e| e.name()).collect()
}

#[test]
fn traced_cagc_run_covers_every_gc_phase() {
    let trace = gc_heavy_trace(9);
    let mut ssd = traced_ssd(SsdConfig::tiny(Scheme::Cagc), TraceConfig::default());
    let report = ssd.replay(&trace);

    let names = names_of(&ssd);
    for phase in [
        "gc_round",
        "victim_select",
        "migrate_read",
        "fingerprint",
        "migrate_write",
        "erase",
        "dedup_drop",
        "read",
        "write",
    ] {
        assert!(names.contains(&phase), "expected at least one {phase:?} event");
    }
    // Spans are well-formed intervals on the tracks the taxonomy assigns.
    for e in ssd.tracer().events().iter() {
        if let EventKind::Span { start_ns, end_ns } = e.kind() {
            assert!(start_ns <= end_ns, "span {} runs backwards", e.name());
        }
        match e.name() {
            "migrate_read" | "migrate_write" | "erase" | "program" => {
                assert!(matches!(e.track(), Track::Die { .. }), "{} off the die track", e.name());
            }
            // "read" names both the host-level span and the die-level
            // flash read it triggers — two tracks, same operation.
            "read" => assert!(matches!(e.track(), Track::Die { .. } | Track::Host)),
            "write" | "trim" => assert_eq!(e.track(), Track::Host, "{} off the host track", e.name()),
            "gc_round" | "victim_select" | "dedup_drop" => {
                assert_eq!(e.track(), Track::Gc, "{} off the gc track", e.name());
            }
            "fingerprint" | "hash" => assert_eq!(e.track(), Track::Hash),
            _ => {}
        }
    }
    // The gauge registry sampled the headline counters.
    let gauges: Vec<&str> =
        ssd.tracer().registry().snapshot().iter().map(|(n, _)| *n).collect();
    for g in ["free_pages", "waf_milli", "stranded_pages", "retired_blocks"] {
        assert!(gauges.contains(&g), "expected gauge {g:?}");
    }
    // ...and the run report carries the telemetry section.
    let t = report.telemetry.as_ref().expect("traced run must report telemetry");
    assert_eq!(t.events_recorded, ssd.tracer().events().len() as u64);
    assert!(report.to_json().render().contains("\"telemetry\""));
}

#[test]
fn chrome_trace_round_trips_and_is_seed_deterministic() {
    let run = || {
        let trace = gc_heavy_trace(9);
        let mut ssd = traced_ssd(SsdConfig::tiny(Scheme::Cagc), TraceConfig::default());
        ssd.replay(&trace);
        (ssd.chrome_trace(), ssd.trace_jsonl())
    };
    let (chrome_a, jsonl_a) = run();
    let (chrome_b, jsonl_b) = run();
    assert_eq!(chrome_a, chrome_b, "same seed must give byte-identical Chrome traces");
    assert_eq!(jsonl_a, jsonl_b, "same seed must give byte-identical JSONL logs");

    // The Chrome document round-trips through the harness parser.
    let parsed = Json::parse(&chrome_a).expect("chrome trace must be valid JSON");
    assert_eq!(parsed.render(), chrome_a);
    // Every JSONL line is itself a parseable document.
    for line in jsonl_a.lines() {
        Json::parse(line).expect("JSONL line must parse");
    }
    assert!(chrome_a.contains(r#""name":"dedup_drop""#));
}

#[test]
fn disabled_tracing_is_byte_identical_to_untraced() {
    let trace = gc_heavy_trace(9);
    let mut plain = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let plain_json = plain.replay(&trace).to_json().render();

    // "Disabled" is the default — this run simply never calls
    // enable_tracing, and a traced run of the same seed must not perturb
    // a subsequent untraced one (no global state).
    let mut traced = traced_ssd(SsdConfig::tiny(Scheme::Cagc), TraceConfig::default());
    let traced_json = traced.replay(&trace).to_json().render();

    let mut plain2 = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let plain2_json = plain2.replay(&trace).to_json().render();

    assert_eq!(plain_json, plain2_json);
    assert!(!plain_json.contains("telemetry"));
    // Tracing must not change a single simulated outcome: the traced
    // report minus its telemetry section is the untraced report.
    let stripped = match Json::parse(&traced_json).unwrap() {
        Json::Obj(pairs) => {
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "telemetry").collect())
        }
        other => other,
    };
    assert_eq!(stripped.render(), plain_json);
}

#[test]
fn host_sampling_thins_host_spans_but_never_gc() {
    let trace = gc_heavy_trace(9);
    let mut full = traced_ssd(SsdConfig::tiny(Scheme::Cagc), TraceConfig::default());
    full.replay(&trace);
    let mut thinned = traced_ssd(
        SsdConfig::tiny(Scheme::Cagc),
        TraceConfig { sample: 16, ..TraceConfig::default() },
    );
    thinned.replay(&trace);

    let count = |ssd: &Ssd, name: &str| {
        ssd.tracer().events().iter().filter(|e| e.name() == name).count()
    };
    assert!(
        count(&thinned, "write") * 8 < count(&full, "write"),
        "1/16 sampling should cut host write spans by far more than 8x"
    );
    assert_eq!(
        count(&thinned, "gc_round"),
        count(&full, "gc_round"),
        "GC rounds are never sampled away"
    );
}

#[test]
fn event_cap_reports_drops_through_run_report() {
    let trace = gc_heavy_trace(9);
    let mut ssd = traced_ssd(
        SsdConfig::tiny(Scheme::Cagc),
        TraceConfig { max_events: 100, ..TraceConfig::default() },
    );
    let report = ssd.replay(&trace);
    assert_eq!(ssd.tracer().events().len(), 100);
    assert!(ssd.tracer().dropped_events() > 0);
    let t = report.telemetry.clone().expect("telemetry present");
    assert_eq!(t.events_recorded, 100);
    assert_eq!(t.dropped_events, ssd.tracer().dropped_events());
    assert!(report.to_json().render().contains("\"dropped_events\":"));
}

#[test]
fn faulted_run_traces_retries_and_recovery() {
    let trace = gc_heavy_trace(11);
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.faults = FaultConfig {
        program_fail_prob: 0.02,
        read_ecc_prob: 0.02,
        seed: 5,
        crash_at_op: Some(2_000),
        ..FaultConfig::none()
    };
    let mut ssd = traced_ssd(cfg, TraceConfig::default());
    for req in &trace.requests {
        if ssd.submit(req).is_err() {
            break;
        }
    }
    ssd.recover().expect("recovery succeeds");

    let names = names_of(&ssd);
    assert!(
        names.contains(&"program_retry") || names.contains(&"read_ecc_retry"),
        "faulted run should trace at least one retry"
    );
    assert!(names.contains(&"power_loss"));
    assert!(names.contains(&"recover"), "recovery must leave a fault-track span");
    let recover = ssd
        .tracer()
        .events()
        .iter()
        .find(|e| e.name() == "recover")
        .expect("recover span recorded");
    assert_eq!(recover.track(), Track::Fault);
    assert!(matches!(recover.kind(), EventKind::Span { .. }));
}
