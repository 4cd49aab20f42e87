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
    // Slices too small to keep up and an urgent floor just under the low
    // watermark, so that the catch-up leg runs as well.
    cfg.gc_slice_pages = 1;
    cfg.gc_urgent_fraction = 6.5 / f64::from(cfg.flash.geometry().total_blocks());
    // One retry before the forced program, so that some host writes end
    // in a write-fault completion.
    cfg.max_program_retries = 1;
    cfg.faults = FaultConfig {
        program_fail_prob: 1e-2,
        erase_fail_prob: 5e-4,
        read_ecc_prob: 0.15,
        unrecoverable_prob: 0.3,
        seed,
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
    let per_event = tracer.heap_bytes() as f64 / tracer.events().len() as f64;
    assert!(per_event <= 64.0, "{per_event:.1} heap bytes per retained event");

    // The recording really is the slow cell's.
    let has = |name: &str| tracer.events().iter().any(|e| e.name() == name);
    for name in [
        "gc_slice", "gc_yield", "gc_urgent", "read_ecc_retry", "program_retry", "write_fault",
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
