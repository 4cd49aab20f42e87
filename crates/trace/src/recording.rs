//! The record stream: what a live [`Tracer`](crate::Tracer) writes, what
//! [`parse_jsonl`](crate::parse_jsonl) rebuilds, and what the analyzers
//! and exporters read — one type, written once and read where it lies.
//!
//! An event is 32 bytes: two timestamps, where its payload starts, its
//! track packed into one word, its name as an id into the recording's
//! [`Names`], a payload length and a span/instant flag. A payload pair is
//! 10 bytes in two columns: a `u16` key id and a `u64` value, at the same
//! position in each (a 16-byte struct of the two would pad 6 bytes).
//! All three columns live in fixed-size segments that are pushed, never
//! grown: recording copies nothing as it gets longer and never holds an
//! old and a new buffer at once.

use std::mem::size_of;

use crate::event::{EventKind, Track};
use crate::names::Names;

/// Items per segment: 128 KiB of events, 8 KiB of payload keys and
/// 32 KiB of payload values.
pub(crate) const SEGMENT: usize = 4096;

/// Append-only storage in segments of [`SEGMENT`] items, addressed by
/// `segment * SEGMENT + offset`.
#[derive(Debug)]
struct Segments<T> {
    segments: Vec<Vec<T>>,
}

impl<T: Clone> Clone for Segments<T> {
    /// Every segment keeps its capacity, so a clone can go on recording.
    fn clone(&self) -> Self {
        let whole = |segment: &Vec<T>| {
            let mut copy = Vec::with_capacity(SEGMENT);
            copy.extend_from_slice(segment);
            copy
        };
        Self { segments: self.segments.iter().map(whole).collect() }
    }
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Self { segments: Vec::new() }
    }
}

impl<T> Segments<T> {
    /// Make sure the next `run` pushes land in one segment, opening a
    /// fresh one when the last has no room; returns where the run starts.
    #[inline]
    fn room_for(&mut self, run: usize) -> usize {
        debug_assert!(run <= SEGMENT);
        if run > 0 && self.segments.last().is_none_or(|last| last.len() + run > SEGMENT) {
            self.open();
        }
        self.end()
    }

    /// Once per [`SEGMENT`] items: kept out of the inlined recording path.
    #[cold]
    fn open(&mut self) {
        self.segments.push(Vec::with_capacity(SEGMENT));
    }

    /// The last segment, which [`Segments::room_for`] sized for the run
    /// about to be pushed into it.
    #[inline]
    fn tail(&mut self) -> &mut Vec<T> {
        self.segments.last_mut().expect("room_for opened a segment")
    }

    /// Append to the last segment.
    #[inline]
    fn push(&mut self, item: T) {
        let last = self.tail();
        debug_assert!(last.len() < last.capacity(), "a segment is never grown");
        last.push(item);
    }

    /// Where the next push lands.
    fn end(&self) -> usize {
        self.segments.last().map_or(0, |last| (self.segments.len() - 1) * SEGMENT + last.len())
    }

    /// An empty run may start where no segment is yet.
    fn run(&self, at: usize, len: usize) -> &[T] {
        self.segments.get(at / SEGMENT).map_or(&[], |s| &s[at % SEGMENT..][..len])
    }

    fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.segments.iter().flatten()
    }

    fn heap_bytes(&self) -> usize {
        self.segments.capacity() * size_of::<Vec<T>>()
            + self.segments.iter().map(|s| s.capacity() * size_of::<T>()).sum::<usize>()
    }
}

/// One recorded event, packed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    start_ns: u64,
    /// Equal to `start_ns` for an instant.
    end_ns: u64,
    args_at: usize,
    /// [`Track::pack`].
    track: u32,
    name: u16,
    args_len: u8,
    instant: bool,
}

/// A recorded stream of spans and instants, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    events: Segments<Event>,
    /// The payload's key ids; a pair's value sits at the same position
    /// of `arg_values` (the two columns are pushed in lockstep).
    arg_keys: Segments<u16>,
    arg_values: Segments<u64>,
    names: Names,
}

impl Recording {
    /// Append one event — `track` already packed ([`Track::pack`]), an
    /// instant as `start_ns == end_ns` with the flag set — resolving its
    /// name and argument keys through `intern` (by address for a live
    /// recording's literals, by content for parsed strings).
    ///
    /// # Errors
    /// Says which limit of the packed form the event is past: 255
    /// arguments, or 65 536 distinct names.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push<K: Copy>(
        &mut self,
        track: u32,
        name: K,
        start_ns: u64,
        end_ns: u64,
        instant: bool,
        args: &[(K, u64)],
        intern: impl Fn(&mut Names, K) -> Option<u16>,
    ) -> Result<(), &'static str> {
        const NAMES: &str = "more than 65536 distinct names and argument keys";
        let args_len = u8::try_from(args.len()).map_err(|_| "more than 255 arguments")?;
        let name = intern(&mut self.names, name).ok_or(NAMES)?;
        let args_at = self.arg_keys.room_for(args.len());
        let values_at = self.arg_values.room_for(args.len());
        debug_assert_eq!(args_at, values_at, "the payload columns open segments together");
        if !args.is_empty() {
            let (keys, values) = (self.arg_keys.tail(), self.arg_values.tail());
            for &(key, value) in args {
                keys.push(intern(&mut self.names, key).ok_or(NAMES)?);
                values.push(value);
            }
            debug_assert!(keys.len() <= SEGMENT, "a segment is never grown");
        }
        self.events.room_for(1);
        self.events.push(Event { start_ns, end_ns, args_at, track, name, args_len, instant });
        Ok(())
    }

    /// Events held (an event is a run of one, so none of their segments
    /// has a gap).
    pub fn len(&self) -> usize {
        self.events.end()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = Record<'_>> + Clone {
        self.events.iter().map(move |event| Record { event, recording: self })
    }

    /// The table event names and argument keys are interned in.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The `i`-th event in recording order, `None` past the last: O(1),
    /// what `iter().nth(i)` finds by walking every earlier event.
    pub fn get(&self, i: usize) -> Option<Record<'_>> {
        (i < self.len()).then(|| self.record(i))
    }

    /// The `i`-th event in recording order: a segment and an offset (an
    /// event is a run of one, so no segment has a gap).
    pub(crate) fn record(&self, i: usize) -> Record<'_> {
        Record { event: &self.events.segments[i / SEGMENT][i % SEGMENT], recording: self }
    }

    /// Bytes held on the heap: event and payload segments plus the name
    /// table.
    pub fn heap_bytes(&self) -> usize {
        self.events.heap_bytes()
            + self.arg_keys.heap_bytes()
            + self.arg_values.heap_bytes()
            + self.names.heap_bytes()
    }
}

/// One event of a [`Recording`], read in place. Its `Debug` form spells
/// the event out (not the ids it is stored under), so two recordings that
/// number their names differently print alike.
#[derive(Clone, Copy)]
pub struct Record<'a> {
    event: &'a Event,
    recording: &'a Recording,
}

impl<'a> Record<'a> {
    /// Track the event was drawn on.
    pub fn track(&self) -> Track {
        Track::unpack(self.event.track)
    }

    /// Event name (`"migrate_read"`, `"gc_round"`, …).
    pub fn name(&self) -> &'a str {
        &self.recording.names.spellings()[usize::from(self.event.name)]
    }

    /// The name's id in [`Recording::names`].
    pub fn name_id(&self) -> u16 {
        self.event.name
    }

    /// Span or instant, with timestamps.
    pub fn kind(&self) -> EventKind {
        let Event { start_ns, end_ns, instant, .. } = *self.event;
        if instant {
            EventKind::Instant { at_ns: start_ns }
        } else {
            EventKind::Span { start_ns, end_ns }
        }
    }

    /// The timestamp the event sorts by: span start, or the instant.
    pub fn ts_ns(&self) -> u64 {
        self.event.start_ns
    }

    /// Span duration; instants are zero-width.
    pub fn dur_ns(&self) -> u64 {
        self.event.end_ns.saturating_sub(self.event.start_ns)
    }

    /// True for interval records.
    pub fn is_span(&self) -> bool {
        !self.event.instant
    }

    /// The payload as `(key id, value)` pairs, in recording order.
    pub fn arg_ids(&self) -> impl ExactSizeIterator<Item = (u16, u64)> + 'a {
        let (at, len) = (self.event.args_at, usize::from(self.event.args_len));
        let keys = self.recording.arg_keys.run(at, len);
        keys.iter().copied().zip(self.recording.arg_values.run(at, len).iter().copied())
    }

    /// The payload as `(key, value)` pairs, in recording order.
    pub fn args(&self) -> impl ExactSizeIterator<Item = (&'a str, u64)> + 'a {
        let spellings = self.recording.names.spellings();
        self.arg_ids().map(move |(key, value)| (&*spellings[usize::from(key)], value))
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
}

impl std::fmt::Debug for Record<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} {:?} {:?} ", self.track(), self.name(), self.kind())?;
        f.debug_list().entries(self.args()).finish()
    }
}

/// How the crate's tests spell a record stream.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// One event: track, name, kind, payload.
    pub(crate) type Spec = (Track, String, EventKind, Vec<(&'static str, u64)>);

    pub(crate) fn span(track: Track, name: &str, start_ns: u64, end_ns: u64) -> Spec {
        (track, name.into(), EventKind::Span { start_ns, end_ns }, Vec::new())
    }

    pub(crate) fn instant(track: Track, name: &str, at_ns: u64) -> Spec {
        (track, name.into(), EventKind::Instant { at_ns }, Vec::new())
    }

    /// Every record spelled out: how tests compare two recordings.
    pub(crate) fn plain(r: &Recording) -> Vec<String> {
        r.iter().map(|e| format!("{e:?}")).collect()
    }

    /// The recording of `specs`, names interned by content as out of JSONL.
    pub(crate) fn recording(specs: &[Spec]) -> Recording {
        let mut out = Recording::default();
        for (track, name, kind, args) in specs {
            let (start_ns, end_ns, instant) = match *kind {
                EventKind::Span { start_ns, end_ns } => (start_ns, end_ns, false),
                EventKind::Instant { at_ns } => (at_ns, at_ns, true),
            };
            let track = track.pack().expect("a packable track");
            out.push(track, name.as_str(), start_ns, end_ns, instant, args, Names::intern)
                .expect("a packable event");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use cagc_harness::prop::*;
    use cagc_harness::ToJson;
    use cagc_sim::rng::SimRng;

    use super::*;
    use crate::export::{jsonl, write_jsonl_events};
    use crate::parse::{from_tracer, parse_jsonl};
    use crate::{Arg, GcAnatomy, SpanProfile, TraceConfig, Tracer};

    /// The size of one item of a column, whatever it holds.
    fn item_bytes<T>(_: &Segments<T>) -> usize {
        size_of::<T>()
    }

    #[test]
    fn an_event_is_at_most_32_bytes_and_an_argument_10() {
        let r = Recording::default();
        assert!(item_bytes(&r.events) <= 32);
        assert_eq!(item_bytes(&r.arg_keys) + item_bytes(&r.arg_values), 10);
    }

    /// The size of a column's table of segments.
    fn table_bytes<T>(column: &Segments<T>) -> usize {
        column.segments.capacity() * size_of::<Vec<T>>()
    }

    /// Three full segments of events and a few more, 0–4 arguments each:
    /// the heap holds 32 B per event and 10 B per argument, plus at most
    /// one segment of slack per column (the last one's free tail and the
    /// runs that did not fit at a segment's end), the columns' tables of
    /// segments and the name table.
    #[test]
    fn heap_bytes_stay_within_32_per_event_and_10_per_argument() {
        const KEYS: [&str; 4] = ["a", "b", "c", "d"];
        let mut t = Tracer::enabled(TraceConfig::default());
        let events = 3 * SEGMENT + 5;
        let mut args = 0;
        for i in 0..events {
            let payload: Vec<Arg> = KEYS[..i % 5].iter().map(|&k| (k, i as u64)).collect();
            args += payload.len();
            t.span(Track::Gc, "gc_round", i as u64, i as u64 + 1, &payload);
        }
        let slack = SEGMENT * (size_of::<Event>() + size_of::<u16>() + size_of::<u64>());
        let r = t.events();
        let tables = table_bytes(&r.events) + table_bytes(&r.arg_keys) + table_bytes(&r.arg_values);
        let bound = 32 * events + 10 * args + slack + tables + r.names().heap_bytes();
        assert!(t.heap_bytes() <= bound, "{} > {bound}", t.heap_bytes());
        assert!(t.heap_bytes() >= size_of::<Event>() * events + 10 * args);
    }

    #[test]
    fn a_clone_goes_on_recording_in_segments_of_its_own() {
        let mut t = Tracer::enabled(TraceConfig::default());
        for i in 0..SEGMENT as u64 + 7 {
            t.instant(Track::Gc, "tick", i, &[("i", i)]);
        }
        let mut copy = t.clone();
        for i in 0..SEGMENT as u64 {
            copy.instant(Track::Gc, "tock", i, &[("i", i)]);
        }
        assert_eq!((t.events().len(), copy.events().len()), (SEGMENT + 7, 2 * SEGMENT + 7));
        assert!(copy.events().events.segments.iter().all(|s| s.capacity() == SEGMENT));
        assert!(copy.events().iter().zip(t.events().iter()).all(|(a, b)| a.name() == b.name()));
        assert_eq!(copy.events().iter().last().unwrap().arg("i"), Some(SEGMENT as u64 - 1));
    }

    /// A positioned read is the walk's record at every position, across
    /// segment boundaries and whatever each event's payload, and nothing
    /// past the last.
    #[test]
    fn get_reads_what_the_walk_reaches() {
        let mut t = Tracer::enabled(TraceConfig::default());
        let events = 2 * SEGMENT + 9;
        for i in 0..events as u64 {
            let payload: Vec<Arg> = KEYS[..i as usize % 5].iter().map(|&k| (k, i)).collect();
            t.span(Track::Gc, NAMES[i as usize % NAMES.len()], i, i + i % 3, &payload);
        }
        let r = t.events();
        let shown = |e: Record<'_>| format!("{e:?}");
        for (i, walked) in r.iter().enumerate() {
            assert_eq!(r.get(i).map(shown), Some(shown(walked)), "event {i}");
        }
        for i in [0, SEGMENT - 1, SEGMENT, 2 * SEGMENT, events - 1] {
            assert_eq!(r.get(i).map(shown), r.iter().nth(i).map(shown), "event {i}");
        }
        assert!(r.get(events).is_none() && r.get(usize::MAX).is_none());
        assert!(Recording::default().get(0).is_none());
    }

    const NAMES: [&str; 12] = [
        "gc_round", "gc_slice", "read", "write", "migrate_read", "migrate_write", "erase",
        "fingerprint", "victim_select", "program_retry", "sq_busy", "quote\"back\\slash",
    ];
    const KEYS: [&str; 5] = ["queued_ns", "lpn", "ppn", "block", "attempt"];

    /// One random event: any of the six tracks (coordinates up to their
    /// maxima), an instant, a zero-length span or a span, 0–4 arguments.
    fn random_event(rng: &mut SimRng) -> (Track, &'static str, EventKind, Vec<Arg>) {
        let mut below = |n: u64| rng.next_u64() % n;
        let track = match below(6) {
            0 => Track::Die {
                channel: [0, 3, Track::MAX_CHANNEL][below(3) as usize],
                die: [0, 17, Track::MAX_DIE][below(3) as usize],
            },
            1 => Track::Host,
            2 => Track::Queue { pair: [0, 1, Track::MAX_PAIR][below(3) as usize] },
            3 => Track::Gc,
            4 => Track::Hash,
            _ => Track::Fault,
        };
        let start_ns = below(1 << 24);
        let kind = match below(4) {
            0 => EventKind::Instant { at_ns: start_ns },
            1 => EventKind::Span { start_ns, end_ns: start_ns },
            _ => EventKind::Span { start_ns, end_ns: start_ns + below(1 << 14) },
        };
        let args = (0..below(5))
            .map(|_| (KEYS[below(5) as usize], [below(1 << 10), u64::MAX][below(8) as usize / 7]))
            .collect();
        (track, NAMES[below(12) as usize], kind, args)
    }

    harness_proptest! {
        #![config(cases = 4)]
        /// Streams at least three segments long, against a cap that falls
        /// exactly on a segment boundary, one past it, somewhere inside a
        /// segment, or nowhere.
        #[test]
        fn segmented_streams_read_back_round_trip_and_analyze_alike(
            seed in any::<u64>(), beyond in 1usize..600
        ) {
            for max_events in [2 * SEGMENT, 2 * SEGMENT + 1, 2 * SEGMENT + beyond / 2, usize::MAX] {
                check_stream(seed, 2 * SEGMENT + beyond, max_events)?;
            }
        }
    }

    fn check_stream(seed: u64, wanted: usize, max_events: usize) -> Result<(), TestCaseError> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut t = Tracer::enabled(TraceConfig { max_events, ..TraceConfig::default() });
        let mut kept = Vec::new();
        for _ in 0..wanted {
            let (track, name, kind, args) = random_event(&mut rng);
            match kind {
                EventKind::Span { start_ns, end_ns } => t.span(track, name, start_ns, end_ns, &args),
                EventKind::Instant { at_ns } => t.instant(track, name, at_ns, &args),
            }
            if kept.len() < max_events {
                kept.push((track, name, kind, args));
            }
        }
        let live = t.events();
        prop_assert_eq!(live.len(), kept.len());
        prop_assert_eq!(t.dropped_events(), (wanted - kept.len()) as u64);
        prop_assert!(live.iter().zip(&kept).all(|(e, (track, name, kind, args))| {
            (e.track(), e.name(), e.kind()) == (*track, *name, *kind) && e.args().eq(args.iter().copied())
        }));
        // Segments are pushed, never grown, and none is opened early.
        prop_assert_eq!(live.events.segments.len(), kept.len().div_ceil(SEGMENT));
        prop_assert!(live.events.segments.iter().all(|s| s.capacity() == SEGMENT));
        prop_assert!(live.arg_keys.segments.iter().all(|s| s.capacity() == SEGMENT));
        prop_assert!(live.arg_values.segments.iter().all(|s| s.capacity() == SEGMENT));
        prop_assert!(t.heap_bytes() >= kept.len() * size_of::<Event>());

        let text = jsonl(&t);
        let parsed = parse_jsonl(&text).map_err(TestCaseError::fail)?;
        prop_assert!(testing::plain(&parsed.spans) == testing::plain(live));
        prop_assert_eq!(parsed.dropped_events, t.dropped_events());
        let mut again = String::new();
        write_jsonl_events(&parsed.spans, &mut again);
        let trailer = text.strip_prefix(again.as_str());
        prop_assert!(trailer.is_some_and(|rest| rest.lines().count() == usize::from(t.dropped_events() > 0)));

        let live = from_tracer(&t);
        let (p_live, p_parsed) = (SpanProfile::from_spans(&live.spans), SpanProfile::from_spans(&parsed.spans));
        prop_assert_eq!(p_live.to_csv(), p_parsed.to_csv());
        prop_assert_eq!(p_live.flamegraph(), p_parsed.flamegraph());
        prop_assert_eq!(p_live.to_json().render(), p_parsed.to_json().render());
        let (a_live, a_parsed) = (GcAnatomy::from_spans(&live.spans), GcAnatomy::from_spans(&parsed.spans));
        prop_assert_eq!(a_live.to_csv(), a_parsed.to_csv());
        prop_assert_eq!(a_live.to_json().render(), a_parsed.to_json().render());
        Ok(())
    }
}
