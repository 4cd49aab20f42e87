//! The trace sink: a disabled-by-default recorder with a hard in-memory
//! event cap (bounded-memory guard) and deterministic host-op sampling.
//!
//! Pay-as-you-go invariant: a disabled [`Tracer`] records nothing,
//! allocates nothing beyond the struct itself, and every recording entry
//! point returns after one branch — so simulation results with tracing
//! off are byte-identical to a build that never heard of tracing.
//!
//! A live tracer appends to a [`Recording`] — 32-byte events and
//! 10-byte payload pairs (a `u16` key and a `u64` value, in two columns)
//! in fixed-size segments — so recording costs no
//! heap allocation per event and no copy as the recording grows, and
//! what it wrote is what the analyzers and exporters read.

use crate::event::{Arg, Track};
use crate::names::Names;
use crate::recording::Recording;
use crate::registry::GaugeRegistry;
use crate::report::TelemetryReport;

/// Tracing knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Record every `sample`-th host request's spans (GC, fault and gauge
    /// activity is always recorded). `0` and `1` both mean "every
    /// request".
    pub sample: u64,
    /// Hard cap on retained events; once full, further events increment
    /// [`Tracer::dropped_events`] instead of allocating.
    pub max_events: usize,
    /// Gauge aggregation window width (simulated ns).
    pub counter_window_ns: u64,
    /// Record span/instant events. `false` turns the tracer into a
    /// gauges-only sink (the fleet observability plane's mode): the
    /// windowed registry keeps aggregating while the event buffer and
    /// the argument arena stay empty, without counting the skipped
    /// events as drops.
    pub record_spans: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample: 1,
            // 32 bytes/event plus 10 per argument (1.7 on average, four
            // at most anywhere in the simulator: ~49 bytes/event) ⇒ the
            // default cap bounds a full-scale run to ~50 MiB instead of
            // letting --trace OOM the host. The sizes are pinned by
            // `an_event_is_at_most_32_bytes_and_an_argument_10`.
            max_events: 1 << 20,
            counter_window_ns: 1_000_000, // 1 ms
            record_spans: true,
        }
    }
}

impl TraceConfig {
    /// A gauges-only configuration: no span/instant events, windowed
    /// gauges of width `window_ns`, host sampling every `sample`-th
    /// request. This is what fleet telemetry arms per device.
    pub fn gauges_only(window_ns: u64, sample: u64) -> Self {
        Self {
            sample,
            max_events: 0,
            counter_window_ns: window_ns,
            record_spans: false,
        }
    }
}

/// Records spans, instants, and gauge samples stamped in simulated time.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    cfg: TraceConfig,
    recording: Recording,
    dropped: u64,
    host_ops_seen: u64,
    registry: GaugeRegistry,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// The no-op sink. Every recording method is a single branch.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            cfg: TraceConfig::default(),
            recording: Recording::default(),
            dropped: 0,
            host_ops_seen: 0,
            registry: GaugeRegistry::new(1_000_000),
        }
    }

    /// A live tracer with the given knobs.
    pub fn enabled(cfg: TraceConfig) -> Self {
        let registry = GaugeRegistry::new(cfg.counter_window_ns.max(1));
        Self {
            enabled: true,
            cfg,
            recording: Recording::default(),
            dropped: 0,
            host_ops_seen: 0,
            registry,
        }
    }

    /// Is the sink live? Callers may use this to skip argument
    /// construction entirely on the disabled path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Decide whether the next host request's spans should be recorded,
    /// honoring [`TraceConfig::sample`]. Deterministic: purely a function
    /// of how many requests came before. Always `false` when disabled.
    #[inline]
    pub fn sample_host_op(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        let n = self.host_ops_seen;
        self.host_ops_seen += 1;
        self.cfg.sample <= 1 || n.is_multiple_of(self.cfg.sample)
    }

    /// Record a span over `[start_ns, end_ns]`.
    #[inline]
    pub fn span(
        &mut self,
        track: Track,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: &[Arg],
    ) {
        if !self.enabled || !self.cfg.record_spans {
            return;
        }
        self.push(track, name, start_ns, end_ns, false, args);
    }

    /// Record a point event at `at_ns`.
    #[inline]
    pub fn instant(&mut self, track: Track, name: &'static str, at_ns: u64, args: &[Arg]) {
        if !self.enabled || !self.cfg.record_spans {
            return;
        }
        self.push(track, name, at_ns, at_ns, true, args);
    }

    /// Sample gauge `name` at `at_ns`. Gauges live outside the event cap:
    /// a [`GaugeRegistry`] is already O(windows), not O(samples).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, at_ns: u64, value: u64) {
        if !self.enabled {
            return;
        }
        self.registry.record(name, at_ns, value);
    }

    /// Inlined into every recording site with `span` / `instant`, where the
    /// track's kind and the payload's length are constants: the track is
    /// packed here (no branch on a constant), and the site's own argument
    /// array is only ever read element by element, so it never has to
    /// exist in memory — an untraced run pays the one branch and no
    /// stores (`trace.span_disabled_ns`) — and the copy a recorded event
    /// hands to [`Tracer::record`] is made on the taken side of that
    /// branch. The recording itself stays out of line: a site carries a
    /// call, not the interning and the segment bookkeeping.
    #[inline(always)]
    fn push(
        &mut self,
        track: Track,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        instant: bool,
        args: &[Arg],
    ) {
        // The simulator's dies and queue pairs are far inside what the
        // packed word holds; an emit site past it is a bug.
        let track = track.pack().unwrap_or_else(|| panic!("event {name:?}: {track:?} does not pack"));
        match *args {
            [] => self.record(track, name, start_ns, end_ns, instant, &[]),
            [a] => self.record(track, name, start_ns, end_ns, instant, &[a]),
            [a, b] => self.record(track, name, start_ns, end_ns, instant, &[a, b]),
            [a, b, c] => self.record(track, name, start_ns, end_ns, instant, &[a, b, c]),
            [a, b, c, d] => self.record(track, name, start_ns, end_ns, instant, &[a, b, c, d]),
            _ => self.record(track, name, start_ns, end_ns, instant, args),
        }
    }

    #[inline(never)]
    fn record(
        &mut self,
        track: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        instant: bool,
        args: &[Arg],
    ) {
        if self.recording.len() >= self.cfg.max_events {
            self.dropped += 1;
            return;
        }
        // A closure, not the bare `Names::intern_static`: that one is called
        // through its `Fn::call` shim, which is not inlined with it.
        let by_address = |names: &mut Names, literal| names.intern_static(literal);
        self.recording
            .push(track, name, start_ns, end_ns, instant, args, by_address)
            .unwrap_or_else(|limit| panic!("event {name:?}: {limit}"));
    }

    /// Events retained so far, in recording order.
    pub fn events(&self) -> &Recording {
        &self.recording
    }

    /// Bytes the recording holds on the heap (event segments, payload
    /// segments, name table); the gauge windows, O(windows) and outside
    /// the event cap, are not counted. Zero for a disabled tracer.
    pub fn heap_bytes(&self) -> usize {
        self.recording.heap_bytes()
    }

    /// Events discarded by the bounded-memory guard.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The gauge registry.
    pub fn registry(&self) -> &GaugeRegistry {
        &self.registry
    }

    /// Summary for embedding in a run report. `None` when disabled, so
    /// reports from untraced runs stay byte-identical.
    pub fn report(&self) -> Option<TelemetryReport> {
        if !self.enabled {
            return None;
        }
        Some(TelemetryReport {
            events_recorded: self.recording.len() as u64,
            dropped_events: self.dropped,
            sample: self.cfg.sample.max(1),
            gauge_window_ns: self.registry.window_ns(),
            gauges: self
                .registry
                .snapshot()
                .into_iter()
                .map(|(n, w)| (n.to_string(), w))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sample_host_op());
        t.span(Track::Host, "write", 0, 10, &[("lpn", 1)]);
        t.instant(Track::Gc, "victim_select", 5, &[]);
        t.gauge("free_pages", 0, 100);
        assert!(t.events().is_empty());
        assert!(t.registry().is_empty());
        assert_eq!(t.dropped_events(), 0);
        assert!(t.report().is_none());
        assert_eq!(t.heap_bytes(), 0, "a disabled tracer allocates nothing");
    }

    #[test]
    fn payloads_are_read_back_per_event() {
        let mut t = Tracer::enabled(TraceConfig { max_events: 3, ..TraceConfig::default() });
        t.span(Track::Host, "write", 0, 10, &[("lpn", 1), ("pages", 2)]);
        t.instant(Track::Gc, "victim_select", 5, &[]);
        t.instant(Track::Fault, "program_retry", 6, &[("block", 7)]);
        t.instant(Track::Fault, "program_retry", 7, &[("block", 8)]);
        // A dropped event leaves nothing behind: not a payload pair, not
        // a name (ids are handed out in first-appearance order).
        t.instant(Track::Fault, "never_kept", 8, &[("never_kept_key", 9)]);
        let payloads: Vec<Vec<(&str, u64)>> =
            t.events().iter().map(|e| e.args().collect()).collect();
        assert_eq!(payloads, [vec![("lpn", 1), ("pages", 2)], vec![], vec![("block", 7)]]);
        assert_eq!(t.events().get(2).unwrap().arg("block"), Some(7));
        assert!(t.events().get(3).is_none(), "a dropped event has no position");
        assert_eq!(t.dropped_events(), 2);
        let spellings: Vec<&str> = t.events().names().spellings().iter().map(|s| &**s).collect();
        assert_eq!(spellings, ["write", "lpn", "pages", "victim_select", "program_retry", "block"]);
    }

    /// Payloads of every length a site can spell reach the recording
    /// whole, the ones past the four the inlined hand-off unpacks too.
    #[test]
    fn payloads_of_zero_to_six_pairs_are_recorded_whole() {
        const PAIRS: [Arg; 6] = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
        let mut t = Tracer::enabled(TraceConfig::default());
        for n in 0..=PAIRS.len() {
            t.span(Track::Hash, "hash", 0, 1, &PAIRS[..n]);
        }
        for (n, e) in t.events().iter().enumerate() {
            assert!(e.args().eq(PAIRS[..n].iter().copied()), "{n} pairs");
        }
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let mut t = Tracer::enabled(TraceConfig { max_events: 3, ..TraceConfig::default() });
        for i in 0..10 {
            t.instant(Track::Gc, "tick", i, &[("i", i)]);
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped_events(), 7);
        // The survivors are the earliest events (count limit, not a ring).
        assert_eq!(t.events().get(2).unwrap().ts_ns(), 2);
        let report = t.report().unwrap();
        assert_eq!(report.events_recorded, 3);
        assert_eq!(report.dropped_events, 7);
    }

    #[test]
    fn host_sampling_is_deterministic_every_nth() {
        let mut t = Tracer::enabled(TraceConfig { sample: 4, ..TraceConfig::default() });
        let picks: Vec<bool> = (0..9).map(|_| t.sample_host_op()).collect();
        assert_eq!(
            picks,
            vec![true, false, false, false, true, false, false, false, true]
        );
        // sample=0 and sample=1 both mean "everything".
        let mut all = Tracer::enabled(TraceConfig { sample: 0, ..TraceConfig::default() });
        assert!((0..5).all(|_| all.sample_host_op()));
    }

    #[test]
    fn gauges_only_mode_skips_events_without_counting_drops() {
        let mut t = Tracer::enabled(TraceConfig::gauges_only(2_000_000, 16));
        t.span(Track::Host, "write", 0, 10, &[]);
        t.instant(Track::Gc, "victim_select", 5, &[]);
        t.gauge("free_pages", 0, 100);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0, "skipped spans are not drops");
        assert_eq!(t.registry().snapshot().len(), 1);
        // Host sampling still paces gauge emission deterministically.
        assert!(t.sample_host_op());
        assert!(!t.sample_host_op());
    }

    #[test]
    fn gauges_bypass_the_event_cap() {
        let mut t = Tracer::enabled(TraceConfig { max_events: 0, ..TraceConfig::default() });
        t.gauge("waf_milli", 0, 1000);
        t.gauge("waf_milli", 2_000_000, 1500);
        assert_eq!(t.registry().snapshot()[0].1.len(), 2);
        assert_eq!(t.dropped_events(), 0);
    }
}
