//! Trace event model: which track an event lives on, and whether it is a
//! span (an interval of simulated time) or an instant (a point).
//!
//! Names and argument keys are `&'static str` by design: the set of event
//! kinds the simulator emits is closed, so recording an event never
//! allocates for its identity — the [`Recording`](crate::Recording)
//! interns each spelling once and an event carries small ids.

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
        /// Channel the die sits on (Chrome `pid`), at most
        /// [`Track::MAX_CHANNEL`].
        channel: u32,
        /// Global die index (Chrome `tid`; unique across channels), at
        /// most [`Track::MAX_DIE`].
        die: u32,
    },
    /// Host-visible request lifecycle (queueing and service).
    Host,
    /// One NVMe-style submission/completion queue pair of the host
    /// interface (doorbells, interrupts, occupancy).
    Queue {
        /// Queue-pair index (Chrome `tid = 4 + pair` on the FTL process),
        /// at most [`Track::MAX_PAIR`].
        pair: u32,
    },
    /// Garbage-collection machinery (victim selection through erase).
    Gc,
    /// Content fingerprinting (hash engine).
    Hash,
    /// Fault injections, retries and recovery.
    Fault,
}

/// Bits of the packed word under the 3-bit tag, and how a die track
/// splits them.
const PAYLOAD_BITS: u32 = 29;
const DIE_BITS: u32 = 19;

impl Track {
    /// Largest channel a recording holds.
    pub const MAX_CHANNEL: u32 = (1 << (PAYLOAD_BITS - DIE_BITS)) - 1;
    /// Largest global die index a recording holds.
    pub const MAX_DIE: u32 = (1 << DIE_BITS) - 1;
    /// Largest queue-pair index a recording holds.
    pub const MAX_PAIR: u32 = (1 << PAYLOAD_BITS) - 1;

    /// The track as the one word an event stores: [`Track::category`] in
    /// the top three bits, the coordinates below. `None` when a
    /// coordinate is past its maximum.
    pub(crate) fn pack(self) -> Option<u32> {
        let payload = match self {
            Track::Die { channel, die } if channel <= Self::MAX_CHANNEL && die <= Self::MAX_DIE => {
                channel << DIE_BITS | die
            }
            Track::Queue { pair } if pair <= Self::MAX_PAIR => pair,
            Track::Die { .. } | Track::Queue { .. } => return None,
            Track::Host | Track::Gc | Track::Hash | Track::Fault => 0,
        };
        Some((self.category() as u32) << PAYLOAD_BITS | payload)
    }

    /// Inverse of [`Track::pack`].
    pub(crate) fn unpack(word: u32) -> Track {
        let payload = word & Self::MAX_PAIR;
        match word >> PAYLOAD_BITS {
            0 => Track::Die { channel: payload >> DIE_BITS, die: payload & Self::MAX_DIE },
            1 => Track::Host,
            2 => Track::Gc,
            3 => Track::Hash,
            4 => Track::Fault,
            _ => Track::Queue { pair: payload },
        }
    }

    /// Index of the track's kind into [`CATEGORIES`].
    pub(crate) fn category(self) -> usize {
        match self {
            Track::Die { .. } => 0,
            Track::Host => 1,
            Track::Gc => 2,
            Track::Hash => 3,
            Track::Fault => 4,
            Track::Queue { .. } => 5,
        }
    }
}

/// What each kind of track is called: the Chrome `cat`, the JSONL
/// `"track"` tag of the coordinate-free tracks, and the first path
/// component of every profile bucket. Indexed by [`Track::category`].
pub(crate) const CATEGORIES: [&str; 6] = ["flash", "host", "gc", "hash", "fault", "queue"];

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
/// count, …) as a recording site spells it.
pub type Arg = (&'static str, u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_the_extremes_and_refuses_what_is_past_them() {
        let held = [
            Track::Die { channel: 0, die: 0 },
            Track::Die { channel: Track::MAX_CHANNEL, die: 0 },
            Track::Die { channel: 0, die: Track::MAX_DIE },
            Track::Die { channel: Track::MAX_CHANNEL, die: Track::MAX_DIE },
            Track::Host,
            Track::Queue { pair: 0 },
            Track::Queue { pair: Track::MAX_PAIR },
            Track::Gc,
            Track::Hash,
            Track::Fault,
        ];
        for track in held {
            let word = track.pack().expect("in range");
            assert_eq!(Track::unpack(word), track);
            assert_eq!((word >> PAYLOAD_BITS) as usize, track.category());
        }
        for past in [
            Track::Die { channel: Track::MAX_CHANNEL + 1, die: 0 },
            Track::Die { channel: 0, die: Track::MAX_DIE + 1 },
            Track::Die { channel: u32::MAX, die: u32::MAX },
            Track::Queue { pair: Track::MAX_PAIR + 1 },
            Track::Queue { pair: u32::MAX },
        ] {
            assert_eq!(past.pack(), None, "{past:?}");
        }
    }
}
