//! Host-observed replay results: end-to-end latency summaries, interface
//! counters, and the embedded device-level [`RunReport`].

use cagc_core::{LatencySummary, RunReport};
use cagc_harness::{Json, ToJson};
use cagc_metrics::Cdf;
use cagc_sim::time::Nanos;

/// Host resilience-policy counters: what the retry/deadline machinery did
/// and which error completions ultimately surfaced to the host.
///
/// All-zero on a fault-free run (the policy never fires), and the whole
/// section is omitted from JSON output in that case, keeping
/// fault-free reports byte-identical with or without the policy armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Error completions re-issued to the device.
    pub retries: u64,
    /// Final completions delivered past the per-command deadline
    /// (observational — the completion is still delivered).
    pub timeouts: u64,
    /// Commands abandoned because the next retry would start past the
    /// deadline (retry budget remained).
    pub aborts: u64,
    /// Media-read-error completions that surfaced (post-retry).
    pub media_read_errors: u64,
    /// Write-fault completions that surfaced (post-retry).
    pub write_faults: u64,
    /// Write-protected rejections (device read-only; never retried).
    pub write_protected: u64,
    /// Commands the device never serviced because it lost power: failed
    /// ops, reaped so their slots free but in none of the latency
    /// histograms. Zero without a crash plan, and then absent from output.
    pub power_lost: u64,
}

impl ResilienceStats {
    /// True when the policy never fired and no error surfaced — the
    /// section carries no information and is omitted from output.
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

impl ToJson for ResilienceStats {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("retries", Json::U64(self.retries)),
            ("timeouts", Json::U64(self.timeouts)),
            ("aborts", Json::U64(self.aborts)),
            ("media_read_errors", Json::U64(self.media_read_errors)),
            ("write_faults", Json::U64(self.write_faults)),
            ("write_protected", Json::U64(self.write_protected)),
        ];
        // Pay-as-you-go like the section itself: crash-free faulty runs
        // keep their bytes.
        if self.power_lost > 0 {
            fields.push(("power_lost", Json::U64(self.power_lost)));
        }
        Json::obj(fields)
    }
}

/// Result of one host-interface replay.
///
/// All latencies are *host-observed*: from the moment the host wanted the
/// I/O (open-loop: trace arrival; closed-loop: submission) to the
/// interrupt that delivered its completion. The embedded [`device`] report
/// carries the device-side view of the same run, so the two can be
/// compared directly — the gap is queueing plus interface overhead.
///
/// [`device`]: HostReport::device
#[derive(Debug, Clone)]
pub struct HostReport {
    /// `"open-loop"` or `"closed-loop"`.
    pub mode: &'static str,
    /// Queue pairs the run used.
    pub queue_pairs: u32,
    /// Slots per pair.
    pub queue_depth: u32,
    /// End-to-end latency over every command.
    pub all: LatencySummary,
    /// End-to-end latency of reads.
    pub reads: LatencySummary,
    /// End-to-end latency of writes.
    pub writes: LatencySummary,
    /// Host-side wait: wanted → doorbell dispatch (queueing only, no
    /// device service).
    pub queue_wait: LatencySummary,
    /// Full read-latency CDF (the per-QD Fig. 12-style curve).
    pub read_cdf: Cdf,
    /// Doorbell rings (submission batches issued to the controller).
    pub doorbells: u64,
    /// Completion interrupts fired (coalescing makes this < completions).
    pub irqs: u64,
    /// Open-loop arrivals that found their pair full and waited host-side.
    pub backlogged: u64,
    /// Idle-window GC quanta the host pumped through the device.
    pub pump_slices: u64,
    /// Highest total slot occupancy observed across all pairs.
    pub peak_occupancy: u64,
    /// Resilience-policy counters (retries, timeouts, aborts, surfaced
    /// error completions). Quiet on fault-free runs.
    pub resilience: ResilienceStats,
    /// The device-side report for the same run.
    pub device: RunReport,
    /// Simulated time of the last event.
    pub end_ns: Nanos,
}

impl ToJson for HostReport {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("mode", Json::Str(self.mode.to_string())),
            ("queue_pairs", Json::U64(u64::from(self.queue_pairs))),
            ("queue_depth", Json::U64(u64::from(self.queue_depth))),
            ("all", self.all.to_json()),
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("queue_wait", self.queue_wait.to_json()),
            ("read_cdf", self.read_cdf.to_json()),
            ("doorbells", Json::U64(self.doorbells)),
            ("irqs", Json::U64(self.irqs)),
            ("backlogged", Json::U64(self.backlogged)),
            ("pump_slices", Json::U64(self.pump_slices)),
            ("peak_occupancy", Json::U64(self.peak_occupancy)),
        ];
        // Pay-as-you-go: the section appears only once the policy has
        // something to say, so quiet reports keep their historical bytes.
        if !self.resilience.is_quiet() {
            fields.push(("resilience", self.resilience.to_json()));
        }
        fields.push(("device", self.device.to_json()));
        fields.push(("end_ns", Json::U64(self.end_ns)));
        Json::obj(fields)
    }
}
