//! The slow cell, traced: a closed-loop NVMe replay with preemptible GC,
//! an armed fault plan and the host resilience policy records every kind
//! of event the simulator has — queue-track spans, fault instants, GC
//! slices, yields and urgent escalations. Analyzing that recording live
//! and analyzing its JSONL export must give identical bytes.

use cagc_core::{Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_flash::{FaultConfig, UllConfig};
use cagc_host::{HostConfig, HostInterface};
use cagc_trace::{from_tracer, parse_jsonl, GcAnatomy, Recording, SpanProfile, Track};
use cagc_workloads::FiuWorkload;

fn traced_chaos_replay() -> HostInterface {
    let seed = 7;
    let flash = UllConfig::tiny_for_tests();
    let trace = FiuWorkload::Mail
        .synth_config((flash.logical_pages() as f64 * 0.95) as u64, 8_000, seed)
        .generate();
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.gc_preempt = true;
    cfg.faults = FaultConfig {
        program_fail_prob: 1e-2,
        erase_fail_prob: 5e-4,
        read_ecc_prob: 0.15,
        unrecoverable_prob: 0.3,
        seed,
        // Runs of `MAX_PROGRAM_RETRIES` scheduled failures exhaust the
        // retries: the program is forced through (some host writes end in
        // a write-fault completion), and each run seals that many frontier
        // blocks at once — faster than 8-page slices reclaim, so the
        // catch-up leg runs as well.
        fail_program_ops: (1..40)
            .flat_map(|k| k * 500..k * 500 + u64::from(SsdConfig::MAX_PROGRAM_RETRIES))
            .collect(),
        ..FaultConfig::none()
    };
    let mut ssd = Ssd::new(cfg);
    ssd.enable_tracing(TraceConfig::default());
    let policy = HostConfig::nvme(2, 8).with_resilience(10_000_000, 3, 50_000, 10_000, seed);
    let mut host = HostInterface::new(ssd, policy);
    host.replay_closed_loop(&trace);
    host
}

#[test]
fn live_and_jsonl_analyses_agree_on_a_faulted_preempting_host_replay() {
    let host = traced_chaos_replay();
    let tracer = host.ssd().tracer();
    assert_eq!(tracer.dropped_events(), 0);
    // Segments, payload and name table all told (`from_tracer` adds none).
    let (heap, events) = (tracer.heap_bytes(), tracer.events().len());
    assert!(heap <= 64 * events, "{heap} heap bytes for {events} retained events");

    // The recording really is the slow cell's.
    let has = |name: &str| tracer.events().iter().any(|e| e.name() == name);
    for name in [
        "gc_slice", "gc_yield", "gc_urgent", "read_ecc_retry", "program_retry", "forced_program",
        "write_fault",
    ] {
        assert!(has(name), "expected at least one {name:?} event");
    }
    assert!(tracer.events().iter().any(|e| matches!(e.track(), Track::Queue { .. })));

    let text = host.ssd().trace_jsonl();
    let live = from_tracer(tracer);
    let parsed = parse_jsonl(&text).expect("the tracer's own export parses");
    // Every record spelled out (each recording numbers its own names).
    let plain = |r: &Recording| -> Vec<String> { r.iter().map(|e| format!("{e:?}")).collect() };
    assert_eq!(plain(&live.spans), plain(&parsed.spans));
    assert_eq!(live.dropped_events, parsed.dropped_events);
    let (p_live, p_parsed) =
        (SpanProfile::from_spans(&live.spans), SpanProfile::from_spans(&parsed.spans));
    assert_eq!(p_live.to_csv(), p_parsed.to_csv());
    assert_eq!(p_live.flamegraph(), p_parsed.flamegraph());
    let (a_live, a_parsed) =
        (GcAnatomy::from_spans(&live.spans), GcAnatomy::from_spans(&parsed.spans));
    assert_eq!(a_live.to_csv(), a_parsed.to_csv());
    assert!(a_live.slices > 0 && a_live.gc_wall_ns > 0);
    assert!(!host.ssd().is_read_only(), "the fault plan must leave the device writable");

    // Outside input: a log cut anywhere inside a line, or with a line
    // damaged, is an error naming the line — never a panic.
    let lines: Vec<&str> = text.lines().collect();
    let (first, second) = (lines[0], lines[1]);
    for cut in 1..first.len() {
        let err = parse_jsonl(&first[..cut]).expect_err("a truncated line cannot parse");
        assert!(err.starts_with("line 1:"), "{err}");
    }
    for damaged in [
        first.replacen("\"kind\"", "\"kind", 1),
        first.replacen("span", "spam", 1).replacen("instant", "spam", 1),
        first.replacen("\"name\":", "\"nom\":", 1),
        first.replacen("_ns\":", "_ns\":-", 1),
        first.replacen("_ns\":", "_ns\":\"soon\",\"x\":", 1),
        "[1,2,3]".to_string(),
    ] {
        let log = format!("{second}\n{damaged}\n{second}\n");
        let err = parse_jsonl(&log).expect_err("a damaged line cannot parse");
        assert!(err.starts_with("line 2:"), "{damaged}: {err}");
    }
}
