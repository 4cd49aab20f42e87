//! Integration tests for the multi-queue host interface: the passthrough
//! identity with the synchronous replay path, closed-loop QD=1 equivalence,
//! determinism, coalescing, backpressure, and the idle GC pump.

use cagc_core::{CmdStatus, Scheme, Ssd, SsdConfig, TraceConfig};
use cagc_flash::FaultConfig;
use cagc_harness::ToJson;
use cagc_host::{HostConfig, HostInterface, HostReport, Loop};
use cagc_workloads::{mixer, Request, RequestView, SynthConfig, Trace};

fn churn_trace(seed: u64, requests: usize, mean_interarrival_ns: u64) -> Trace {
    let flash = cagc_flash::UllConfig::tiny_for_tests();
    SynthConfig {
        name: "churn".into(),
        requests,
        logical_pages: (flash.logical_pages() as f64 * 0.93) as u64,
        write_ratio: 0.8,
        dedup_ratio: 0.4,
        mean_req_pages: 2.5,
        max_req_pages: 8,
        mean_interarrival_ns,
        seed,
        ..Default::default()
    }
    .generate()
}

/// The passthrough shape (one pair, unbounded depth, zero costs) feeds the
/// device the exact sequence `Ssd::replay` would: the device-side report
/// must be byte-identical, for every scheme.
#[test]
fn passthrough_open_loop_matches_synchronous_replay() {
    let trace = churn_trace(11, 6_000, 200_000);
    for scheme in Scheme::EXTENDED {
        let mut sync = Ssd::new(SsdConfig::tiny(scheme));
        let want = sync.replay(&trace).to_json().render();

        let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(scheme)), HostConfig::passthrough());
        let report = host.replay_open_loop(&trace);
        host.ssd().audit().expect("audit after passthrough replay");
        assert_eq!(
            report.device.to_json().render(),
            want,
            "{} passthrough diverged from Ssd::replay",
            scheme.name()
        );
        assert_eq!(report.backlogged, 0, "unbounded depth never backlogs");
        assert_eq!(report.all.count, trace.requests.len() as u64);
    }
}

/// Closed-loop QD=1 with zero interface costs is the synchronous chain
/// `t = submit(at = t)`: each command issued the instant its predecessor
/// completes.
#[test]
fn closed_loop_qd1_matches_sequential_reference() {
    let trace = churn_trace(13, 6_000, 200_000);
    let mut reference = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let mut t = 0;
    for r in &trace.requests {
        t = reference.submit(RequestView { at_ns: t, ..r }).expect("no crash plan").end_ns;
    }
    let want = reference.report(&trace.name).to_json().render();

    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 1;
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
    let report = host.replay_closed_loop(&trace);
    host.ssd().audit().expect("audit after closed-loop replay");
    assert_eq!(report.device.to_json().render(), want);
    assert_eq!(report.end_ns, t, "last reap is the last completion");
}

/// Same trace, same config, preemptible GC and the realistic NVMe shape:
/// two runs must produce byte-identical host reports.
#[test]
fn multi_queue_replay_is_deterministic() {
    let trace = churn_trace(17, 6_000, 50_000);
    let run = || {
        let mut dev = SsdConfig::tiny(Scheme::Cagc);
        dev.gc_preempt = true;
        dev.gc_slice_pages = 4;
        let mut host = HostInterface::new(Ssd::new(dev), HostConfig::nvme(2, 8));
        let r = host.replay_closed_loop(&trace);
        host.ssd().audit().expect("audit after nvme replay");
        r.to_json().render()
    };
    assert_eq!(run(), run());
}

/// With coalescing depth > 1, completions are delivered in bursts: fewer
/// interrupts than commands.
#[test]
fn coalescing_reduces_interrupts() {
    let trace = churn_trace(19, 4_000, 200_000);
    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 8;
    cfg.coalesce_depth = 4;
    cfg.coalesce_ns = 8_000;
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
    let report = host.replay_closed_loop(&trace);
    assert_eq!(report.all.count, trace.requests.len() as u64);
    assert!(
        report.irqs < report.all.count,
        "coalescing fired {} irqs for {} commands",
        report.irqs,
        report.all.count
    );
}

/// Open-loop arrivals faster than the device can serve, into a single
/// depth-1 pair: the backlog must absorb them and every command must still
/// be reaped with its latency counted from arrival.
#[test]
fn shallow_queue_backpressure_backlogs_arrivals() {
    let trace = churn_trace(23, 4_000, 500);
    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 1;
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
    let report = host.replay_open_loop(&trace);
    host.ssd().audit().expect("audit after backpressure replay");
    assert!(report.backlogged > 0, "depth-1 queue under overload must backlog");
    assert_eq!(report.all.count, trace.requests.len() as u64);
    assert!(
        report.queue_wait.max_ns > 0,
        "backlogged commands wait before dispatch"
    );
}

/// Four pairs share the load; everything completes and peak occupancy
/// exceeds what one pair could hold.
#[test]
fn commands_spread_across_pairs() {
    let trace = churn_trace(29, 4_000, 200_000);
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), HostConfig::nvme(4, 4));
    let report = host.replay_closed_loop(&trace);
    host.ssd().audit().expect("audit after 4-pair replay");
    assert_eq!(report.all.count, trace.requests.len() as u64);
    assert!(
        report.peak_occupancy > 4,
        "four pairs at depth 4 should exceed one pair's worth of slots (peak {})",
        report.peak_occupancy
    );
}

/// A tiny device with a hot fault plan: injected ECC and program failures
/// plus a cranked unrecoverable probability, so host commands actually
/// complete with error statuses.
fn faulty_config(seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(Scheme::Cagc);
    cfg.faults = FaultConfig {
        program_fail_prob: 0.05,
        read_ecc_prob: 0.2,
        unrecoverable_prob: 0.5,
        seed,
        ..FaultConfig::none()
    };
    cfg
}

/// The QD=1 byte-identity gate extended to the faulty regime: with
/// unrecoverable faults armed and the resilience policy disabled,
/// closed-loop QD=1 through the passthrough shape must match the direct
/// sequential `Ssd::submit` chain — byte-identical device report and
/// identical surfaced-error counters, status by status.
#[test]
fn closed_loop_qd1_matches_sequential_reference_under_faults() {
    let trace = churn_trace(37, 5_000, 200_000);
    let mut reference = Ssd::new(faulty_config(41));
    let mut t = 0;
    let (mut media, mut wfault, mut wprot) = (0u64, 0u64, 0u64);
    for r in &trace.requests {
        let c = reference
            .submit(RequestView { at_ns: t, ..r })
            .expect("no crash configured");
        t = c.end_ns;
        match c.status {
            CmdStatus::MediaReadError => media += 1,
            CmdStatus::WriteFault => wfault += 1,
            CmdStatus::WriteProtected => wprot += 1,
            CmdStatus::Success | CmdStatus::PowerLoss => {}
        }
    }
    let want = reference.report(&trace.name).to_json().render();
    assert!(media + wfault > 0, "fault plan too mild to exercise the gate");

    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 1;
    let mut host = HostInterface::new(Ssd::new(faulty_config(41)), cfg);
    let report = host.replay_closed_loop(&trace);
    host.ssd().audit().expect("audit after faulty closed-loop replay");
    assert_eq!(report.device.to_json().render(), want);
    assert_eq!(report.resilience.media_read_errors, media);
    assert_eq!(report.resilience.write_faults, wfault);
    assert_eq!(report.resilience.write_protected, wprot);
    assert_eq!(report.resilience.retries, 0, "policy disabled: no retries");
    assert_eq!(report.end_ns, t, "last reap is the last completion");
}

/// The armed retry policy re-issues retryable error completions and
/// recovers most of them (a re-read rarely needs the heroic decode again),
/// and stays deterministic with jitter drawn from the seeded stream.
#[test]
fn retry_policy_recovers_errors_and_stays_deterministic() {
    let trace = churn_trace(41, 5_000, 200_000);
    let run = |resilient: bool| -> HostReport {
        let mut cfg = HostConfig::passthrough();
        cfg.queue_depth = 1;
        if resilient {
            cfg = cfg.with_resilience(0, 4, 10_000, 2_000, 9);
        }
        let mut host = HostInterface::new(Ssd::new(faulty_config(43)), cfg);
        let r = host.replay_closed_loop(&trace);
        host.ssd().audit().expect("audit after resilient replay");
        r
    };
    let surfaced = |r: &HostReport| {
        r.resilience.media_read_errors + r.resilience.write_faults + r.resilience.write_protected
    };
    let plain = run(false);
    assert!(surfaced(&plain) > 0, "fault plan too mild to exercise retries");
    let resilient = run(true);
    assert!(resilient.resilience.retries > 0, "errors must trigger retries");
    assert!(
        surfaced(&resilient) < surfaced(&plain),
        "retries should recover errors ({} surfaced with policy, {} without)",
        surfaced(&resilient),
        surfaced(&plain)
    );
    assert_eq!(
        run(true).to_json().render(),
        resilient.to_json().render(),
        "resilient replay (incl. jitter stream) must be deterministic"
    );
}

/// A deadline shorter than any backoff turns every would-be retry into an
/// abort, and completions landing past it count as timeouts.
#[test]
fn deadline_aborts_retries_and_counts_timeouts() {
    let trace = churn_trace(43, 5_000, 200_000);
    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 1;
    cfg = cfg.with_resilience(1, 4, 10_000_000, 0, 9);
    let mut host = HostInterface::new(Ssd::new(faulty_config(47)), cfg);
    let report = host.replay_closed_loop(&trace);
    host.ssd().audit().expect("audit after deadline replay");
    let r = &report.resilience;
    assert!(r.aborts > 0, "every retryable error should abort on the 1ns deadline");
    assert_eq!(r.retries, 0, "no retry fits inside a 1ns deadline");
    assert!(r.timeouts > 0, "completions past the deadline count as timeouts");
    assert!(
        r.media_read_errors + r.write_faults > 0,
        "aborted commands surface their last error status"
    );
    assert_eq!(report.all.count, trace.requests.len() as u64, "aborts still complete");
}

/// An armed resilience policy on a fault-free device never fires — no
/// retries, no PRNG draws, no extra events — so the host report is
/// byte-identical to a run without it.
#[test]
fn armed_resilience_is_invisible_on_fault_free_runs() {
    let trace = churn_trace(47, 5_000, 100_000);
    let run = |cfg: HostConfig| {
        let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
        host.replay_closed_loop(&trace).to_json().render()
    };
    // The deadline must sit above the fault-free tail (timeouts are
    // counted even without faults — deadline pressure is observable); one
    // simulated second clears it by orders of magnitude.
    let base = HostConfig::nvme(2, 8);
    let armed = base.clone().with_resilience(1_000_000_000, 3, 50_000, 10_000, 7);
    assert_eq!(run(base), run(armed), "armed policy must be invisible without faults");
}

/// A crash plan kills the device mid-replay. The closed loop still drains
/// (lost commands free their slots through the CQ/IRQ path), and every
/// command is either a latency sample or a lost one — never a success the
/// device did not perform.
#[test]
fn power_loss_mid_replay_is_lost_commands_not_completions() {
    let trace = churn_trace(53, 3_000, 200_000);
    let mut dev = SsdConfig::tiny(Scheme::Cagc);
    dev.faults = FaultConfig { crash_at_op: Some(2_000), ..FaultConfig::none() };
    let mut host = HostInterface::new(Ssd::new(dev), HostConfig::nvme(2, 8));
    let mut cmds = Vec::new();
    let report = host.replay(Loop::Closed, &trace.name, trace.requests.iter().enumerate(), |_, c| {
        cmds.push(*c)
    });
    let lost = report.resilience.power_lost;
    assert!(lost > 0 && report.all.count > 0, "the crash point lies inside the replay");
    assert_eq!(report.all.count + lost, trace.len() as u64);
    assert_eq!(report.all.count, report.device.all.count, "a sample is a device completion");
    assert_eq!(report.queue_wait.count, report.all.count);
    assert_eq!(
        cmds.iter().filter(|c| c.status == CmdStatus::PowerLoss).count() as u64,
        lost,
        "each lost command carries the status"
    );
    assert_eq!(cmds.len(), trace.len(), "every command reaches the sink");
    assert!(cmds.iter().all(|c| c.reaped_ns >= c.submitted_ns), "every slot was reaped");
    assert!(report.to_json().render().contains(&format!("\"power_lost\":{lost}")));
}

/// Malformed host configs come back as reportable errors from `try_new`;
/// only the panicking convenience constructor aborts.
#[test]
fn malformed_config_is_reported_not_panicked() {
    let mut cfg = HostConfig::passthrough();
    cfg.max_retries = 1; // retries with no backoff would spin in place
    let err = HostInterface::try_new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg)
        .err()
        .expect("validation must fail");
    assert_eq!(err, "max_retries > 0 needs a nonzero retry_backoff_ns");
}

/// With preemptible GC on the device and the pump enabled, an open-loop
/// trace with wide idle gaps lets the host reclaim space between bursts.
#[test]
fn idle_windows_pump_preemptible_gc() {
    let trace = churn_trace(31, 8_000, 400_000);
    let mut dev = SsdConfig::tiny(Scheme::Cagc);
    dev.gc_preempt = true;
    dev.gc_slice_pages = 4;
    let mut cfg = HostConfig::nvme(1, 8);
    cfg.gc_pump = true;
    let mut host = HostInterface::new(Ssd::new(dev), cfg);
    let report = host.replay_open_loop(&trace);
    host.ssd().audit().expect("audit after pumped replay");
    assert!(
        report.pump_slices > 0,
        "idle windows on a churning device should pump GC quanta"
    );
}

/// FNV-1a, 64-bit: enough to pin bytes, no dependency.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Replay `trace` with tracing on and digest `[HostReport JSON,
/// per-command rows in stream order, Chrome trace]`.
fn traced_digests(mut ssd: Ssd, cfg: HostConfig, mode: Loop, t: &Trace) -> (HostReport, [u64; 3]) {
    ssd.enable_tracing(TraceConfig::default());
    let mut host = HostInterface::new(ssd, cfg);
    let mut rows = vec![String::new(); t.len()];
    let report = host.replay(mode, &t.name, t.requests.iter().enumerate(), |i, c| {
        rows[i] = format!(
            "{i} {} {} {} {} {:?} {}\n",
            c.queue, c.wanted_ns, c.submitted_ns, c.reaped_ns, c.status, c.retries
        );
    });
    let digests = [
        digest(report.to_json().render().as_bytes()),
        digest(rows.concat().as_bytes()),
        digest(host.ssd().chrome_trace().as_bytes()),
    ];
    (report, digests)
}

/// Byte pins for the engine itself: (a) a backlogging open loop on the
/// NVMe shape, pumping GC quanta into a preemptible device between
/// bursts; (b) a closed loop on a faulty device with the resilience
/// policy retrying, aborting and timing out. Any change to event order,
/// pair assignment, retry draws or trace events moves a digest.
#[test]
fn engine_output_is_pinned() {
    let mut dev = SsdConfig::tiny(Scheme::Cagc);
    dev.gc_preempt = true;
    dev.gc_slice_pages = 4;
    let trace = churn_trace(59, 3_000, 150_000);
    let (a, digests) = traced_digests(Ssd::new(dev), HostConfig::nvme(2, 4), Loop::Open, &trace);
    let (backlogged, pumped) = (a.backlogged, a.pump_slices);
    assert!(backlogged > 0 && pumped > 0, "{backlogged} backlogged, {pumped} pumped");
    let want = [0x517bcc0c0b8f93f0, 0x8d134faa6c243b20, 0x3f7fb285bb17eee6];
    assert_eq!(digests, want, "open loop");

    let trace = churn_trace(61, 3_000, 200_000);
    let cfg = HostConfig::nvme(2, 8).with_resilience(4_000_000, 3, 50_000, 10_000, 5);
    let (b, digests) = traced_digests(Ssd::new(faulty_config(67)), cfg, Loop::Closed, &trace);
    let r = &b.resilience;
    assert!(r.retries > 0 && r.aborts > 0 && r.timeouts > 0, "{r:?}");
    let want = [0xbc906a022eb1f5a3, 0x0c6d8153b51ff661, 0xe0320f589dda63d6];
    assert_eq!(digests, want, "closed loop");
}

/// The engine takes any request stream: open-loop passthrough over the
/// tenant merge drives the device exactly as `Ssd::replay` drives the
/// materialised interleave, and the sink hears from every tenant's every
/// command.
#[test]
fn merged_stream_matches_materialised_interleave() {
    let half = cagc_flash::UllConfig::tiny_for_tests().logical_pages() * 9 / 20;
    let tenant = |seed| {
        SynthConfig {
            requests: 1_500,
            logical_pages: half,
            mean_interarrival_ns: 300_000,
            seed,
            ..Default::default()
        }
        .generate()
    };
    let (a, b) = (tenant(73), tenant(79));
    let merged = mixer::interleave_n(&[&a, &b]);
    let want = Ssd::new(SsdConfig::tiny(Scheme::Cagc)).replay(&merged).to_json().render();

    let ssd = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let mut host = HostInterface::new(ssd, HostConfig::passthrough());
    let mut seen = [0usize; 2];
    let stream = mixer::merge(&[&a, &b]);
    let report = host.replay(Loop::Open, &merged.name, stream, |tenant, _| seen[tenant] += 1);
    assert_eq!(report.device.to_json().render(), want);
    assert_eq!(seen, [a.len(), b.len()]);
}

/// QD=1 open loop where every arrival lands on the exact instant the
/// previous command's completion interrupt fires. An arrival due at an
/// event's instant is handled before that event, so each one finds the
/// slot still taken and backlogs, and the device still sees the chain
/// `at = previous completion`.
#[test]
fn arrival_at_the_interrupt_instant_backlogs_before_the_reap() {
    let base = churn_trace(71, 1_000, 0);
    let mut reference = Ssd::new(SsdConfig::tiny(Scheme::Cagc));
    let mut t = 0;
    let mut requests = Vec::with_capacity(base.len());
    for r in &base.requests {
        let at_ns = t;
        t = reference.submit(RequestView { at_ns, ..r }).expect("no crash plan").end_ns;
        let contents = r.contents.to_vec();
        requests.push(Request { at_ns, kind: r.kind, lpn: r.lpn, pages: r.pages, contents });
    }
    let trace = Trace::new("chain", base.logical_pages, requests);
    let want = reference.report(&trace.name).to_json().render();

    let mut cfg = HostConfig::passthrough();
    cfg.queue_depth = 1;
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
    let report = host.replay_open_loop(&trace);
    assert_eq!(trace.len(), 3_718);
    assert_eq!(report.backlogged, 3_717, "every arrival but the first backlogs");
    assert_eq!(report.device.to_json().render(), want);
    assert_eq!(report.end_ns, t);
}

/// A `u64::MAX` deadline means "never": no overflow, no timeouts.
#[test]
fn maximal_deadline_never_times_out() {
    let trace = churn_trace(67, 2_000, 100_000);
    let cfg = HostConfig::passthrough().with_resilience(u64::MAX, 0, 0, 0, 0);
    let mut host = HostInterface::new(Ssd::new(SsdConfig::tiny(Scheme::Cagc)), cfg);
    let report = host.replay_open_loop(&trace);
    assert_eq!(report.resilience.timeouts, 0);
    assert_eq!(report.all.count, trace.len() as u64);
}
