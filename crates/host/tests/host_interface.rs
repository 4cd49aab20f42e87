//! Integration tests for the multi-queue host interface: the passthrough
//! identity with the synchronous replay path, closed-loop QD=1 equivalence,
//! determinism, coalescing, backpressure, and the idle GC pump.

use cagc_core::{CmdStatus, Scheme, Ssd, SsdConfig};
use cagc_flash::FaultConfig;
use cagc_harness::ToJson;
use cagc_host::{HostConfig, HostInterface, HostReport};
use cagc_workloads::{RequestView, SynthConfig, Trace};

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
        t = reference.submit(RequestView { at_ns: t, ..r.view() }).expect("no crash plan").end_ns;
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
            .submit(RequestView { at_ns: t, ..r.view() })
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
    let (report, cmds) = host.replay_closed_loop_detailed(&trace);
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
    assert!(cmds.iter().all(|c| c.reaped_ns >= c.submitted_ns), "every slot was reaped");
    assert!(report.to_json().render().contains(&format!("\"power_lost\":{lost}")));
    assert!(report.render().contains(&format!("power_lost={lost}")));
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
