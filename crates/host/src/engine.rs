//! The multi-queue engine: an event-driven NVMe-flavored submission/
//! completion model wrapped around one [`Ssd`].
//!
//! Every state transition is driven by the `cagc-sim` event queue, whose
//! FIFO tie-breaking makes the whole machine deterministic: same requests,
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
use std::iter::Peekable;

use cagc_core::{CmdStatus, Completion, Ssd};
use cagc_metrics::{Cdf, Histogram};
use cagc_sim::event::EventQueue;
use cagc_sim::time::Nanos;
use cagc_sim::SimRng;
use cagc_trace::Track;
use cagc_workloads::{OpKind, RequestView, Trace};

use crate::config::HostConfig;
use crate::report::{HostReport, ResilienceStats};

/// How a replay offers its commands to the queue pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// Arrival-timed load: every command arrives at its timestamp whether
    /// or not earlier ones completed. A full pair backlogs arrivals
    /// host-side; latency still counts from the arrival, so backpressure
    /// shows up in the tail exactly as an overloaded device would feel to
    /// its host.
    Open,
    /// fio `iodepth` semantics: timestamps are ignored; each pair keeps
    /// `queue_depth` commands outstanding, and every reaped completion
    /// immediately submits the next command in stream order. Wanted time
    /// is the submission, so latency is pure service + queueing under a
    /// fixed offered depth.
    Closed,
}

/// Engine event payloads. A command in flight travels inside its event.
#[derive(Debug)]
enum Ev<'a> {
    /// The device finished the command; its completion entry lands on
    /// its pair.
    Complete(Cmd<'a>),
    /// Re-issue the command to the device after a retryable error
    /// completion (backoff + jitter already elapsed).
    Retry(Cmd<'a>),
    /// Interrupt coalescing backstop for pair `q`, valid only at `gen`.
    IrqTimer { q: usize, gen: u64 },
    /// Continue idle-window GC pumping.
    Pump,
}

/// Lifecycle timestamps of one command (all simulated ns), handed to a
/// replay's sink when the command is reaped.
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

/// A command between its arrival and its reap.
#[derive(Debug, Clone, Copy)]
struct Cmd<'a> {
    /// Position in the request stream: the `req` of its trace events.
    pos: usize,
    /// The stream's tag for it, handed back to the sink.
    tag: usize,
    req: RequestView<'a>,
    lat: CmdLatency,
}

/// One submission/completion queue pair.
#[derive(Debug, Default)]
struct QueuePair<'a> {
    /// Commands dispatched to the device, completion pending.
    inflight: usize,
    /// Completed commands awaiting the interrupt.
    cq: Vec<Cmd<'a>>,
    /// Open-loop arrivals waiting for a free slot.
    backlog: VecDeque<Cmd<'a>>,
    /// Interrupt generation: a coalescing timer is valid only if no
    /// interrupt fired since it was scheduled.
    irq_gen: u64,
}

impl QueuePair<'_> {
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

    /// The wrapped SSD (for audits and device-level queries).
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Unwrap the SSD, consuming the interface.
    pub fn into_ssd(self) -> Ssd {
        self.ssd
    }

    /// [`Loop::Open`] replay of `trace`.
    pub fn replay_open_loop(&mut self, trace: &Trace) -> HostReport {
        self.replay(Loop::Open, &trace.name, trace.requests.iter().enumerate(), |_, _| {})
    }

    /// [`Loop::Closed`] replay of `trace`.
    pub fn replay_closed_loop(&mut self, trace: &Trace) -> HostReport {
        self.replay(Loop::Closed, &trace.name, trace.requests.iter().enumerate(), |_, _| {})
    }

    /// Replay a time-ordered stream of `(tag, request)` commands
    /// (`trace.requests.iter().enumerate()`, or `mixer::merge` over
    /// tenants) and report it under `name`. Commands are drawn as they
    /// arrive (open loop) or as slots free (closed loop); each one is
    /// handed to `sink` with its tag when its completion is reaped, so the
    /// engine holds only the commands between arrival and reap. Pair
    /// assignment is round-robin by stream position.
    pub fn replay<'a>(
        &mut self,
        mode: Loop,
        name: &str,
        stream: impl IntoIterator<Item = (usize, RequestView<'a>)>,
        mut sink: impl FnMut(usize, &CmdLatency),
    ) -> HostReport {
        let pairs = self.cfg.queue_pairs as usize;
        let mut r = Runner {
            cfg: self.cfg.clone(),
            ssd: &mut self.ssd,
            stream: stream.into_iter().peekable(),
            drawn: 0,
            sink: &mut sink,
            events: EventQueue::new(),
            queues: (0..pairs).map(|_| QueuePair::default()).collect(),
            closed: mode == Loop::Closed,
            stats: RawStats::default(),
            pump_pending: false,
            retry_rng: SimRng::for_stream(self.cfg.retry_seed, "host-retry"),
        };
        for q in 0..pairs {
            r.refill(q, 0);
        }
        let end_ns = r.drain();
        let stats = r.stats;
        debug_assert_eq!(
            stats.all.count() + stats.resilience.power_lost,
            r.drawn as u64,
            "every command is reaped as a latency sample or counted lost"
        );
        HostReport {
            mode: if mode == Loop::Closed { "closed-loop" } else { "open-loop" },
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
            device: self.ssd.report(name),
            end_ns,
        }
    }
}

/// Per-run engine state; borrows the SSD and the sink for the duration of
/// one replay.
struct Runner<'r, 'a, I: Iterator<Item = (usize, RequestView<'a>)>> {
    cfg: HostConfig,
    ssd: &'r mut Ssd,
    /// Commands not yet drawn, in stream order.
    stream: Peekable<I>,
    /// Commands drawn so far: the next one's stream position.
    drawn: usize,
    sink: &'r mut dyn FnMut(usize, &CmdLatency),
    events: EventQueue<Ev<'a>>,
    queues: Vec<QueuePair<'a>>,
    closed: bool,
    stats: RawStats,
    pump_pending: bool,
    /// Jitter stream for retry backoff; only drawn when a retry with
    /// nonzero jitter is actually scheduled, so fault-free runs never
    /// touch it.
    retry_rng: SimRng,
}

impl<'a, I: Iterator<Item = (usize, RequestView<'a>)>> Runner<'_, 'a, I> {
    /// Take the stream's next command, wanted at `wanted_ns`.
    fn draw(&mut self, wanted_ns: Nanos) -> Option<Cmd<'a>> {
        let (tag, req) = self.stream.next()?;
        let pos = self.drawn;
        self.drawn += 1;
        Some(Cmd { pos, tag, req, lat: CmdLatency { wanted_ns, ..CmdLatency::default() } })
    }

    /// When the next open-loop arrival is due. A closed loop draws its
    /// commands as slots free, so nothing ever arrives on its own.
    fn next_arrival(&mut self) -> Option<Nanos> {
        if self.closed {
            return None;
        }
        self.stream.peek().map(|(_, r)| r.at_ns)
    }

    /// Handle arrivals and events in time order until both run out;
    /// returns the last timestamp handled.
    fn drain(&mut self) -> Nanos {
        let mut now = 0;
        loop {
            // An arrival due no later than the next event goes first, so
            // one landing on a completion's instant finds its slot taken.
            let next_event = self.events.peek_time();
            if let Some(at) = self.next_arrival().filter(|&at| next_event.is_none_or(|t| at <= t)) {
                now = at;
                let cmd = self.draw(at).expect("an arrival was peeked");
                self.arrive(cmd, now);
            } else if let Some(ev) = self.events.pop() {
                now = ev.at;
                match ev.payload {
                    Ev::Complete(cmd) => self.complete(cmd, now),
                    Ev::Retry(cmd) => self.issue(cmd, now),
                    Ev::IrqTimer { q, gen } => {
                        if gen == self.queues[q].irq_gen && !self.queues[q].cq.is_empty() {
                            self.fire_irq(q, now);
                        }
                    }
                    Ev::Pump => {
                        self.pump_pending = false;
                    }
                }
            } else {
                return now;
            }
            self.maybe_pump(now);
        }
    }

    /// Open-loop arrival: take a slot on the round-robin pair, or backlog.
    fn arrive(&mut self, cmd: Cmd<'a>, now: Nanos) {
        let q = cmd.pos % self.queues.len();
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
    fn submit(&mut self, mut cmd: Cmd<'a>, q: usize, now: Nanos) {
        cmd.lat.queue = q;
        cmd.lat.submitted_ns = now;
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
        self.issue(cmd, now + self.cfg.fetch_ns);
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
    fn issue(&mut self, mut cmd: Cmd<'a>, exec_at: Nanos) {
        // A command torn by (or issued after) power loss is lost, not
        // completed. It still travels the CQ/IRQ path with that status at
        // issue time, so its slot frees and a closed loop keeps draining.
        let comp = self
            .ssd
            .submit(RequestView { at_ns: exec_at, ..cmd.req })
            .unwrap_or(Completion { end_ns: exec_at, status: CmdStatus::PowerLoss });
        // Saturating, so a `u64::MAX` deadline is one that never passes.
        let deadline = (self.cfg.deadline_ns > 0)
            .then(|| cmd.lat.wanted_ns.saturating_add(self.cfg.deadline_ns));
        if !comp.status.is_ok() {
            let tries = cmd.lat.retries;
            if comp.status.is_retryable() && tries < self.cfg.max_retries {
                let backoff = self.cfg.retry_backoff_ns << tries.min(16);
                let jitter = if self.cfg.retry_jitter_ns > 0 {
                    self.retry_rng.gen_range_u64(0..self.cfg.retry_jitter_ns)
                } else {
                    0
                };
                let retry_at = comp.end_ns + backoff + jitter;
                if deadline.is_none_or(|d| retry_at <= d) {
                    cmd.lat.retries += 1;
                    self.stats.resilience.retries += 1;
                    if self.ssd.tracer().is_enabled() {
                        self.ssd.tracer_mut().instant(
                            Track::Queue { pair: cmd.lat.queue as u32 },
                            "retry",
                            comp.end_ns,
                            &[("req", cmd.pos as u64), ("attempt", u64::from(tries) + 1)],
                        );
                    }
                    self.events.push(retry_at, Ev::Retry(cmd));
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
        cmd.lat.status = comp.status;
        let end = comp.end_ns + self.cfg.completion_ns;
        if deadline.is_some_and(|d| end > d) {
            // Observational only: the completion is still delivered; the
            // counter is how an operator sees deadline pressure build.
            self.stats.resilience.timeouts += 1;
        }
        self.events.push(end, Ev::Complete(cmd));
    }

    /// Completion entry posted; interrupt now (depth reached) or arm the
    /// coalescing timer.
    fn complete(&mut self, cmd: Cmd<'a>, now: Nanos) {
        let q = cmd.lat.queue;
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
    /// latency and handing it to the sink), then refill the freed slots.
    fn fire_irq(&mut self, q: usize, now: Nanos) {
        self.queues[q].irq_gen += 1;
        self.stats.irqs += 1;
        let mut reaped = std::mem::take(&mut self.queues[q].cq);
        let traced = self.ssd.tracer().is_enabled();
        for cmd in &mut reaped {
            let rec = &mut cmd.lat;
            rec.reaped_ns = now;
            // A lost command was never serviced: it is a failed op
            // (`ResilienceStats::power_lost`), not a latency sample.
            if rec.status != CmdStatus::PowerLoss {
                let lat = now - rec.wanted_ns;
                self.stats.all.record(lat);
                match cmd.req.kind {
                    OpKind::Read => self.stats.reads.record(lat),
                    OpKind::Write => self.stats.writes.record(lat),
                    OpKind::Trim => {}
                }
                self.stats.queue_wait.record(rec.submitted_ns - rec.wanted_ns);
            }
            if traced {
                self.ssd.tracer_mut().span(
                    Track::Queue { pair: rec.queue as u32 },
                    "cmd",
                    rec.submitted_ns,
                    now,
                    &[("req", cmd.pos as u64)],
                );
            }
            (self.sink)(cmd.tag, rec);
        }
        if traced {
            self.ssd.tracer_mut().instant(
                Track::Queue { pair: q as u32 },
                "irq",
                now,
                &[("reaped", reaped.len() as u64)],
            );
        }
        self.refill(q, now);
    }

    /// Fill pair `q`'s free slots: backlog first (open loop), else the
    /// stream's next commands (closed loop).
    fn refill(&mut self, q: usize, now: Nanos) {
        while self.queues[q].occupancy() < self.cfg.queue_depth as usize {
            if let Some(cmd) = self.queues[q].backlog.pop_front() {
                self.submit(cmd, q, now);
            } else if let Some(cmd) = self.closed.then(|| self.draw(now)).flatten() {
                self.submit(cmd, q, now);
            } else {
                break;
            }
        }
    }

    /// Idle-window GC: when nothing is queued, in flight, or backlogged
    /// anywhere — and nothing arrives or fires at this very instant — run
    /// one preemptible GC quantum and chain a [`Ev::Pump`] at its
    /// completion (a device without preemptible GC has none to run). An
    /// arriving command naturally queues behind the in-progress slice on
    /// the die timelines: the quantum is the preemption granularity.
    fn maybe_pump(&mut self, now: Nanos) {
        if self.pump_pending {
            return;
        }
        let idle = self
            .queues
            .iter()
            .all(|p| p.occupancy() == 0 && p.backlog.is_empty());
        let due = |t: Nanos| t <= now;
        if !idle || self.events.peek_time().is_some_and(due) || self.next_arrival().is_some_and(due)
        {
            return;
        }
        if let Some(end) = self.ssd.gc_pump(now) {
            self.stats.pump_slices += 1;
            self.events.push(end, Ev::Pump);
            self.pump_pending = true;
        }
    }
}
