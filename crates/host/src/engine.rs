//! The multi-queue engine: an event-driven NVMe-flavored submission/
//! completion model wrapped around one [`Ssd`].
//!
//! Every state transition is driven by the `cagc-sim` event queue, whose
//! FIFO tie-breaking makes the whole machine deterministic: same trace,
//! same config, same seed ⇒ byte-identical reports. Commands flow
//!
//! ```text
//! arrive → [backlog] → submit (slot + doorbell) → fetch → device
//!        → complete (CQ entry) → interrupt → reap (latency stamped)
//! ```
//!
//! with every submission ringing the doorbell and the completion interrupt
//! coalesced by count-or-timeout. Per-request latency is simulated ns
//! from *wanted* (open-loop: the arrival; closed-loop: the submission) to
//! the interrupt that delivered its completion — host-observed latency,
//! including every queueing effect the synchronous replay cannot see.

use std::collections::VecDeque;

use cagc_core::{CmdStatus, Completion, Ssd};
use cagc_metrics::{Cdf, Histogram};
use cagc_sim::event::EventQueue;
use cagc_sim::time::Nanos;
use cagc_sim::SimRng;
use cagc_trace::Track;
use cagc_workloads::{OpKind, RequestView, Trace};

use crate::config::HostConfig;
use crate::report::{HostReport, ResilienceStats};

/// Engine event payloads.
#[derive(Debug, Clone)]
enum Ev {
    /// Open-loop arrival of command `cmd` (index into the trace).
    Arrive { cmd: usize },
    /// Device finished command `cmd`; its completion entry lands on `q`.
    Complete { q: usize, cmd: usize },
    /// Re-issue command `cmd` to the device after a retryable error
    /// completion (backoff + jitter already elapsed).
    Retry { q: usize, cmd: usize },
    /// Interrupt coalescing backstop for pair `q`, valid only at `gen`.
    IrqTimer { q: usize, gen: u64 },
    /// Continue idle-window GC pumping.
    Pump,
}

/// Lifecycle timestamps of one command (all simulated ns), in trace
/// order. Returned by the `_detailed` replay variants for per-request
/// analysis (time series, worst-offender listings).
#[derive(Debug, Clone, Copy, Default)]
pub struct CmdLatency {
    /// The queue pair that carried the command.
    pub queue: usize,
    /// When the host wanted the I/O: open-loop arrival, closed-loop
    /// submission. End-to-end latency is `reaped - wanted`.
    pub wanted_ns: Nanos,
    /// When it got a submission-queue slot and rang the doorbell.
    pub submitted_ns: Nanos,
    /// When the completion interrupt delivered it back to the host.
    pub reaped_ns: Nanos,
    /// The NVMe-style status its final completion carried
    /// ([`CmdStatus::Success`] on every fault-free run;
    /// [`CmdStatus::PowerLoss`] if the device died before servicing it, in
    /// which case the timestamps say when the host learned so and the
    /// command is in no latency histogram).
    pub status: CmdStatus,
    /// Device re-issues the resilience policy spent on this command.
    pub retries: u32,
}

impl CmdLatency {
    /// Host-observed end-to-end latency.
    pub fn latency_ns(&self) -> Nanos {
        self.reaped_ns - self.wanted_ns
    }
}

/// One submission/completion queue pair.
#[derive(Debug, Default)]
struct QueuePair {
    /// Commands dispatched to the device, completion pending.
    inflight: usize,
    /// Completed commands awaiting the interrupt.
    cq: Vec<usize>,
    /// Open-loop arrivals waiting for a free slot.
    backlog: VecDeque<usize>,
    /// Interrupt generation: a coalescing timer is valid only if no
    /// interrupt fired since it was scheduled.
    irq_gen: u64,
}

impl QueuePair {
    /// Slots in use: submission until completion consumed.
    fn occupancy(&self) -> usize {
        self.inflight + self.cq.len()
    }
}

#[derive(Debug, Default)]
struct RawStats {
    all: Histogram,
    reads: Histogram,
    writes: Histogram,
    queue_wait: Histogram,
    doorbells: u64,
    irqs: u64,
    backlogged: u64,
    pump_slices: u64,
    peak_occupancy: u64,
    resilience: ResilienceStats,
}

/// An NVMe-style multi-queue host interface wrapped around one SSD.
pub struct HostInterface {
    cfg: HostConfig,
    ssd: Ssd,
}

impl HostInterface {
    /// Wrap `ssd` behind the given host interface.
    ///
    /// # Panics
    /// Panics if the configuration fails [`HostConfig::validate`]; use
    /// [`HostInterface::try_new`] to handle malformed configs as values.
    pub fn new(ssd: Ssd, cfg: HostConfig) -> Self {
        match Self::try_new(ssd, cfg) {
            Ok(host) => host,
            Err(e) => panic!("invalid HostConfig: {e}"),
        }
    }

    /// Fallible constructor: a malformed configuration comes back as a
    /// message ([`HostConfig::validate`]) instead of aborting the process.
    ///
    /// # Errors
    /// Returns the first validation failure of `cfg`.
    pub fn try_new(ssd: Ssd, cfg: HostConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(Self { cfg, ssd })
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The wrapped SSD (for audits and device-level queries).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Unwrap the SSD, consuming the interface.
    pub fn into_ssd(self) -> Ssd {
        self.ssd
    }

    /// Open-loop replay: every command arrives at its trace timestamp
    /// whether or not earlier ones completed (arrival-timed load). A full
    /// pair backlogs arrivals host-side; latency still counts from the
    /// arrival, so backpressure shows up in the tail exactly as an
    /// overloaded device would feel to its host.
    pub fn replay_open_loop(&mut self, trace: &Trace) -> HostReport {
        self.run(trace, false).0
    }

    /// [`replay_open_loop`](Self::replay_open_loop), also returning the
    /// per-command lifecycle timestamps in trace order.
    pub fn replay_open_loop_detailed(&mut self, trace: &Trace) -> (HostReport, Vec<CmdLatency>) {
        self.run(trace, false)
    }

    /// Closed-loop replay (fio `iodepth` semantics): trace timestamps are
    /// ignored; each pair keeps `queue_depth` commands outstanding, and
    /// every reaped completion immediately submits the next command in
    /// trace order. Wanted time is the submission, so latency is pure
    /// service + queueing under a fixed offered depth.
    pub fn replay_closed_loop(&mut self, trace: &Trace) -> HostReport {
        self.run(trace, true).0
    }

    /// [`replay_closed_loop`](Self::replay_closed_loop), also returning
    /// the per-command lifecycle timestamps in trace order.
    pub fn replay_closed_loop_detailed(&mut self, trace: &Trace) -> (HostReport, Vec<CmdLatency>) {
        self.run(trace, true)
    }

    fn run(&mut self, trace: &Trace, closed: bool) -> (HostReport, Vec<CmdLatency>) {
        let pairs = self.cfg.queue_pairs as usize;
        let n = trace.requests.len();
        let mut r = Runner {
            cfg: self.cfg.clone(),
            ssd: &mut self.ssd,
            trace,
            events: EventQueue::with_capacity(n + 64),
            cmds: vec![CmdLatency::default(); n],
            queues: (0..pairs).map(|_| QueuePair::default()).collect(),
            cursor: 0,
            closed,
            stats: RawStats::default(),
            pump_pending: false,
            retry_rng: SimRng::for_stream(self.cfg.retry_seed, "host-retry"),
        };
        r.prime();
        let end_ns = r.drain();
        let stats = r.stats;
        let cmds = r.cmds;
        debug_assert_eq!(
            stats.all.count() + stats.resilience.power_lost,
            n as u64,
            "every command is reaped as a latency sample or counted lost"
        );
        let report = HostReport {
            mode: if closed { "closed-loop" } else { "open-loop" },
            queue_pairs: self.cfg.queue_pairs,
            queue_depth: self.cfg.queue_depth,
            all: cagc_core::LatencySummary::of(&stats.all),
            reads: cagc_core::LatencySummary::of(&stats.reads),
            writes: cagc_core::LatencySummary::of(&stats.writes),
            queue_wait: cagc_core::LatencySummary::of(&stats.queue_wait),
            read_cdf: Cdf::from_histogram(&stats.reads),
            doorbells: stats.doorbells,
            irqs: stats.irqs,
            backlogged: stats.backlogged,
            pump_slices: stats.pump_slices,
            peak_occupancy: stats.peak_occupancy,
            resilience: stats.resilience,
            device: self.ssd.report(&trace.name),
            end_ns,
        };
        (report, cmds)
    }
}

/// Per-run engine state; borrows the SSD for the duration of one replay.
struct Runner<'a> {
    cfg: HostConfig,
    ssd: &'a mut Ssd,
    trace: &'a Trace,
    events: EventQueue<Ev>,
    cmds: Vec<CmdLatency>,
    queues: Vec<QueuePair>,
    /// Closed-loop: next trace index to submit.
    cursor: usize,
    closed: bool,
    stats: RawStats,
    pump_pending: bool,
    /// Jitter stream for retry backoff; only drawn when a retry with
    /// nonzero jitter is actually scheduled, so fault-free runs never
    /// touch it.
    retry_rng: SimRng,
}

impl Runner<'_> {
    /// Seed the event queue: open-loop schedules every arrival up front;
    /// closed-loop fills each pair to its depth at t = 0.
    fn prime(&mut self) {
        if self.closed {
            let depth = (self.cfg.queue_depth as usize).min(self.trace.requests.len());
            for q in 0..self.queues.len() {
                for _ in 0..depth {
                    if self.cursor >= self.trace.requests.len() {
                        return;
                    }
                    let i = self.cursor;
                    self.cursor += 1;
                    self.cmds[i].wanted_ns = 0;
                    self.submit(i, q, 0);
                }
            }
        } else {
            for (i, req) in self.trace.requests.iter().enumerate() {
                self.events.push(req.at_ns, Ev::Arrive { cmd: i });
            }
        }
    }

    /// Pop events to exhaustion; returns the last event timestamp.
    fn drain(&mut self) -> Nanos {
        let mut now = 0;
        while let Some(ev) = self.events.pop() {
            now = ev.at;
            match ev.payload {
                Ev::Arrive { cmd } => self.arrive(cmd, now),
                Ev::Complete { q, cmd } => self.complete(q, cmd, now),
                Ev::Retry { q, cmd } => self.issue(q, cmd, now),
                Ev::IrqTimer { q, gen } => {
                    if gen == self.queues[q].irq_gen && !self.queues[q].cq.is_empty() {
                        self.fire_irq(q, now);
                    }
                }
                Ev::Pump => {
                    self.pump_pending = false;
                }
            }
            self.maybe_pump(now);
        }
        now
    }

    /// Open-loop arrival: take a slot on the round-robin pair, or backlog.
    fn arrive(&mut self, cmd: usize, now: Nanos) {
        let q = cmd % self.queues.len();
        self.cmds[cmd].wanted_ns = now;
        if self.queues[q].occupancy() >= self.cfg.queue_depth as usize {
            self.stats.backlogged += 1;
            self.queues[q].backlog.push_back(cmd);
            return;
        }
        self.submit(cmd, q, now);
    }

    /// Take a slot on pair `q`, ring its doorbell and issue the command
    /// to the device. The device call is synchronous state-wise but the
    /// *time* of the completion comes back as an event, so commands from
    /// other pairs interleave with this one on the simulated clock.
    fn submit(&mut self, cmd: usize, q: usize, now: Nanos) {
        self.cmds[cmd].queue = q;
        self.cmds[cmd].submitted_ns = now;
        self.queues[q].inflight += 1;
        let occ: u64 = self.queues.iter().map(|p| p.occupancy() as u64).sum();
        if occ > self.stats.peak_occupancy {
            self.stats.peak_occupancy = occ;
        }
        let traced = self.ssd.tracer().is_enabled();
        if traced {
            self.ssd.tracer_mut().gauge("queue_occupancy", now, occ);
        }
        self.stats.doorbells += 1;
        self.issue(q, cmd, now + self.cfg.fetch_ns);
        if traced {
            self.ssd.tracer_mut().instant(
                Track::Queue { pair: q as u32 },
                "doorbell",
                now,
                &[("cmds", 1)],
            );
        }
    }

    /// Issue (or re-issue) one command to the device at `exec_at`.
    /// Success — and error completions the policy cannot or will not
    /// retry — post a CQ entry carrying the status; a retryable error
    /// completion (media read error, write fault) within the retry budget
    /// and deadline schedules an [`Ev::Retry`] after exponential backoff +
    /// seeded jitter instead. Write-protection is never retried (the spare
    /// pool is gone for good), and neither is a command a dead device
    /// never serviced.
    fn issue(&mut self, q: usize, cmd: usize, exec_at: Nanos) {
        let req = RequestView { at_ns: exec_at, ..self.trace.requests[cmd].view() };
        // A command torn by (or issued after) power loss is lost, not
        // completed. It still travels the CQ/IRQ path with that status at
        // issue time, so its slot frees and a closed loop keeps draining.
        let comp = self
            .ssd
            .submit(req)
            .unwrap_or(Completion { end_ns: exec_at, status: CmdStatus::PowerLoss });
        if !comp.status.is_ok() {
            let wanted = self.cmds[cmd].wanted_ns;
            let tries = self.cmds[cmd].retries;
            let deadline =
                if self.cfg.deadline_ns > 0 { Some(wanted + self.cfg.deadline_ns) } else { None };
            if comp.status.is_retryable() && tries < self.cfg.max_retries {
                let backoff = self.cfg.retry_backoff_ns << tries.min(16);
                let jitter = if self.cfg.retry_jitter_ns > 0 {
                    self.retry_rng.gen_range_u64(0..self.cfg.retry_jitter_ns)
                } else {
                    0
                };
                let retry_at = comp.end_ns + backoff + jitter;
                let past_deadline = match deadline {
                    Some(d) => retry_at > d,
                    None => false,
                };
                if !past_deadline {
                    self.cmds[cmd].retries += 1;
                    self.stats.resilience.retries += 1;
                    if self.ssd.tracer().is_enabled() {
                        self.ssd.tracer_mut().instant(
                            Track::Queue { pair: q as u32 },
                            "retry",
                            comp.end_ns,
                            &[("req", cmd as u64), ("attempt", u64::from(tries) + 1)],
                        );
                    }
                    self.events.push(retry_at, Ev::Retry { q, cmd });
                    return;
                }
                // Budget remains but the next attempt would start past the
                // deadline: abandon the command with its last error status.
                self.stats.resilience.aborts += 1;
            }
            match comp.status {
                CmdStatus::MediaReadError => self.stats.resilience.media_read_errors += 1,
                CmdStatus::WriteFault => self.stats.resilience.write_faults += 1,
                CmdStatus::WriteProtected => self.stats.resilience.write_protected += 1,
                CmdStatus::PowerLoss => self.stats.resilience.power_lost += 1,
                CmdStatus::Success => {}
            }
        }
        self.cmds[cmd].status = comp.status;
        let end = comp.end_ns + self.cfg.completion_ns;
        if self.cfg.deadline_ns > 0 && end > self.cmds[cmd].wanted_ns + self.cfg.deadline_ns {
            // Observational only: the completion is still delivered; the
            // counter is how an operator sees deadline pressure build.
            self.stats.resilience.timeouts += 1;
        }
        self.events.push(end, Ev::Complete { q, cmd });
    }

    /// Completion entry posted; interrupt now (depth reached) or arm the
    /// coalescing timer.
    fn complete(&mut self, q: usize, cmd: usize, now: Nanos) {
        self.queues[q].inflight -= 1;
        self.queues[q].cq.push(cmd);
        if self.queues[q].cq.len() >= self.cfg.coalesce_depth as usize {
            self.fire_irq(q, now);
        } else if self.queues[q].cq.len() == 1 {
            let gen = self.queues[q].irq_gen;
            self.events.push(now + self.cfg.coalesce_ns, Ev::IrqTimer { q, gen });
        }
    }

    /// Interrupt: reap every pending completion (stamping end-to-end
    /// latency), then refill the freed slots — backlog first (open loop)
    /// or the next trace commands (closed loop).
    fn fire_irq(&mut self, q: usize, now: Nanos) {
        self.queues[q].irq_gen += 1;
        self.stats.irqs += 1;
        let reaped = std::mem::take(&mut self.queues[q].cq);
        let traced = self.ssd.tracer().is_enabled();
        for &cmd in &reaped {
            let rec = &mut self.cmds[cmd];
            rec.reaped_ns = now;
            // A lost command was never serviced: it is a failed op
            // (`ResilienceStats::power_lost`), not a latency sample.
            if rec.status != CmdStatus::PowerLoss {
                let lat = now - rec.wanted_ns;
                self.stats.all.record(lat);
                match self.trace.requests[cmd].kind {
                    OpKind::Read => self.stats.reads.record(lat),
                    OpKind::Write => self.stats.writes.record(lat),
                    OpKind::Trim => {}
                }
                self.stats.queue_wait.record(rec.submitted_ns - rec.wanted_ns);
            }
            if traced {
                let (submitted, queue) = (rec.submitted_ns, rec.queue as u32);
                self.ssd.tracer_mut().span(
                    Track::Queue { pair: queue },
                    "cmd",
                    submitted,
                    now,
                    &[("req", cmd as u64)],
                );
            }
        }
        if traced {
            self.ssd.tracer_mut().instant(
                Track::Queue { pair: q as u32 },
                "irq",
                now,
                &[("reaped", reaped.len() as u64)],
            );
        }
        // Refill freed slots.
        while self.queues[q].occupancy() < self.cfg.queue_depth as usize {
            if let Some(cmd) = self.queues[q].backlog.pop_front() {
                self.submit(cmd, q, now);
            } else if self.closed && self.cursor < self.trace.requests.len() {
                let i = self.cursor;
                self.cursor += 1;
                self.cmds[i].wanted_ns = now;
                self.submit(i, q, now);
            } else {
                break;
            }
        }
    }

    /// Idle-window GC: when nothing is queued, in flight, or backlogged
    /// anywhere — and no event fires at this very instant — run one
    /// preemptible GC quantum and chain a [`Ev::Pump`] at its completion.
    /// An arriving command naturally queues behind the in-progress slice
    /// on the die timelines: the quantum is the preemption granularity.
    fn maybe_pump(&mut self, now: Nanos) {
        if !self.cfg.gc_pump || self.pump_pending {
            return;
        }
        let idle = self
            .queues
            .iter()
            .all(|p| p.occupancy() == 0 && p.backlog.is_empty());
        if !idle || self.events.peek_time().is_some_and(|t| t <= now) {
            return;
        }
        if let Some(end) = self.ssd.gc_pump(now) {
            self.stats.pump_slices += 1;
            self.events.push(end, Ev::Pump);
            self.pump_pending = true;
        }
    }
}
