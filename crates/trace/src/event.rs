//! Trace event model: which track an event lives on, and whether it is a
//! span (an interval of simulated time) or an instant (a point).
//!
//! Names and argument keys are `&'static str` by design: the set of event
//! kinds the simulator emits is closed, so recording an event never
//! allocates for its identity. The key/value payload lives in the
//! recording [`Tracer`](crate::Tracer)'s flat argument arena, so an
//! [`Event`] owns no heap at all — it is `Copy`.

/// Where an event is drawn in the trace viewer.
///
/// Flash-operation spans carry their physical coordinates so the Chrome
/// exporter can map `pid = channel`, `tid = die`; everything the FTL does
/// above the flash array goes on one of four logical tracks grouped under
/// a synthetic "ftl" process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// A flash die, addressed by channel and global die index.
    Die {
        /// Channel the die sits on (Chrome `pid`).
        channel: u32,
        /// Global die index (Chrome `tid`; unique across channels).
        die: u32,
    },
    /// Host-visible request lifecycle (queueing and service).
    Host,
    /// One NVMe-style submission/completion queue pair of the host
    /// interface (doorbells, interrupts, occupancy).
    Queue {
        /// Queue-pair index (Chrome `tid = 4 + pair` on the FTL process).
        pair: u32,
    },
    /// Garbage-collection machinery (victim selection through erase).
    Gc,
    /// Content fingerprinting (hash engine).
    Hash,
    /// Fault injections, retries and recovery.
    Fault,
}

/// Span vs. instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An interval `[start_ns, end_ns]` of simulated time.
    Span {
        /// Interval start (simulated ns).
        start_ns: u64,
        /// Interval end (simulated ns); `end_ns >= start_ns`.
        end_ns: u64,
    },
    /// A point event.
    Instant {
        /// When it happened (simulated ns).
        at_ns: u64,
    },
}

/// One key/value pair of an event's payload (LPN, PPN, block, retry
/// count, …).
pub type Arg = (&'static str, u64);

/// One recorded trace event. Its payload is read back through
/// [`Tracer::args`](crate::Tracer::args).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Track the event belongs to.
    pub track: Track,
    /// Event name (e.g. `"migrate_read"`, `"dedup_drop"`).
    pub name: &'static str,
    /// Span or instant, with timestamps.
    pub kind: EventKind,
    /// Where the payload starts in the recording tracer's argument arena.
    pub(crate) args_at: usize,
    /// How many arena entries belong to this event.
    pub(crate) args_len: u32,
}

impl Event {
    /// The timestamp the event sorts by: span start, or the instant.
    pub fn ts_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_ns, .. } => start_ns,
            EventKind::Instant { at_ns } => at_ns,
        }
    }
}
