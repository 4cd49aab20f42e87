//! Latency over time: watch GC interference appear as spikes, and CAGC
//! flatten them.
//!
//! Replays a Mail-like workload under Baseline and CAGC while recording a
//! windowed latency time series, then prints log-scaled sparklines: the
//! dense spike train in the Baseline row is watermark-triggered GC; the
//! sparser CAGC row is the same device after dedup-in-GC has shrunk the
//! live data set.
//!
//! ```bash
//! cargo run --release --example latency_timeline
//! cargo run --release --example latency_timeline -- --qd 8
//! cargo run --release --example latency_timeline -- --trace cagc.trace.json
//! ```
//!
//! With `--qd <n>` the replay goes through the multi-queue host interface
//! (`cagc-host`) closed-loop at that depth instead of the synchronous
//! request-at-a-time path: per-request completion latency is then
//! *host-observed* (submission to completion interrupt, queueing
//! included) and the slowest individual requests are listed.
//!
//! With `--trace <path>` the CAGC pass records every span (host ops, GC
//! phases, per-die busy intervals) and writes a Chrome trace-event JSON
//! openable in Perfetto — the timeline behind the sparkline. Add
//! `--trace-sample <n>` to thin host-op spans on big runs. See
//! docs/OBSERVABILITY.md.

use cagc::metrics::TimeSeries;
use cagc::prelude::*;
use cagc::sim::time::ms;
use cagc::workloads::scale_rate;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--trace needs a path")));
    let trace_sample: u64 = args
        .iter()
        .position(|a| a == "--trace-sample")
        .map(|i| args.get(i + 1).and_then(|s| s.parse().ok()).expect("--trace-sample needs a number"))
        .unwrap_or(1);
    let qd: Option<u32> = args
        .iter()
        .position(|a| a == "--qd")
        .map(|i| args.get(i + 1).and_then(|s| s.parse().ok()).expect("--qd needs a number"));

    let flash = UllConfig::tiny_for_tests();
    let footprint = (flash.logical_pages() as f64 * 0.95) as u64;
    // The tiny 4-die device needs a gentler arrival rate than the default
    // preset (sized for 32 dies): stretch time 3x with the trace mixer.
    let trace = scale_rate(FiuWorkload::Mail.synth_config(footprint, 30_000, 5).generate(), 3.0);
    let span = trace.requests.last().map(|r| r.at_ns).unwrap_or(0);
    println!(
        "Mail-like trace: {} requests over {:.1}s of simulated time\n",
        trace.len(),
        span as f64 / 1e9
    );

    for scheme in [Scheme::Baseline, Scheme::Cagc] {
        let mut ssd = Ssd::new(SsdConfig::tiny(scheme));
        if trace_out.is_some() && scheme == Scheme::Cagc {
            ssd.enable_tracing(TraceConfig { sample: trace_sample, ..TraceConfig::default() });
        }
        let mut series = TimeSeries::new(ms(50));
        let (report, host_line) = if let Some(depth) = qd {
            // Closed-loop through the multi-queue host interface:
            // per-request latency is host-observed (queueing included).
            let mut host = HostInterface::new(ssd, HostConfig::nvme(1, depth));
            let mut slowest = Vec::with_capacity(trace.len());
            let stream = trace.requests.iter().enumerate();
            let hr = host.replay(Loop::Closed, &trace.name, stream, |i, c| {
                series.record(c.wanted_ns, c.latency_ns());
                slowest.push((i, *c));
            });
            // Slowest first; equal latencies in trace order.
            slowest.sort_by_key(|&(i, c)| (std::cmp::Reverse(c.latency_ns()), i));
            let mut lines = format!(
                "host qd={depth}: p95 {:>8.1}us  p99.9 {:>8.1}us  irqs {}  slowest requests:\n",
                hr.all.p95_ns as f64 / 1000.0,
                hr.all.p999_ns as f64 / 1000.0,
                hr.irqs
            );
            for (i, c) in slowest.iter().take(3) {
                lines.push_str(&format!(
                    "    req #{i}: {:>8.1}us (submit {:.3}ms, reap {:.3}ms)\n",
                    c.latency_ns() as f64 / 1000.0,
                    c.wanted_ns as f64 / 1e6,
                    c.reaped_ns as f64 / 1e6,
                ));
            }
            ssd = host.into_ssd();
            (hr.device.clone(), Some(lines))
        } else {
            for req in &trace.requests {
                let done = ssd.process(req);
                series.record(req.at_ns, done - req.at_ns);
            }
            (ssd.report(&trace.name), None)
        };
        println!(
            "{:<9} |{}|",
            report.scheme,
            series.sparkline(100)
        );
        println!(
            "{:<9}  mean {:>7.1}us  p99 {:>8.1}us  GC rounds {:>5}  erases {:>5}\n",
            "",
            report.all.mean_ns / 1000.0,
            report.all.p99_ns as f64 / 1000.0,
            report.gc.invocations,
            report.gc.blocks_erased
        );
        if let Some(lines) = host_line {
            println!("{lines}");
        }
        if let (Some(path), Scheme::Cagc) = (&trace_out, scheme) {
            std::fs::write(path, ssd.chrome_trace()).expect("write Chrome trace");
            println!(
                "trace: {} events ({} dropped) -> {}\n",
                ssd.tracer().events().len(),
                ssd.tracer().dropped_events(),
                path.display()
            );
        }
    }
    println!("(each column is ~1% of the run; darker = higher mean latency, log scale)");
}
