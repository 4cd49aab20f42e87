//! Deterministic exporters: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and a JSONL event log for scripts.
//!
//! Identical recordings render to identical bytes: object keys keep a
//! fixed order, integers render exactly, and the only floats emitted
//! (`ts`/`dur` microseconds, gauge means) are pure functions of the
//! recorded integers. Events — the bulk of any recording — are written
//! straight into the output `String`, with no [`Json`] tree in between;
//! every number and string still goes through the harness serializer's
//! own leaf routines, so the bytes are the ones a tree would render
//! (pinned by `streamed_events_equal_the_tree_rendering`). The few
//! metadata, gauge and trailer entries are built as trees.

use cagc_harness::json::{write_f64, write_str, write_u64};
use cagc_harness::Json;

use crate::event::{EventKind, Track, CATEGORIES};
use crate::recording::{Record, Recording};
use crate::tracer::Tracer;

/// Chrome thread ids for the synthetic FTL process (`pid = channels`).
const FTL_TID_HOST: u64 = 0;
const FTL_TID_GC: u64 = 1;
const FTL_TID_HASH: u64 = 2;
const FTL_TID_FAULT: u64 = 3;
/// Queue-pair tracks follow the fixed FTL tids: `tid = 4 + pair`.
const FTL_TID_QUEUE_BASE: u64 = 4;

fn pid_tid(track: Track, channels: u32) -> (u64, u64) {
    match track {
        Track::Die { channel, die } => (u64::from(channel), u64::from(die)),
        Track::Host => (u64::from(channels), FTL_TID_HOST),
        Track::Gc => (u64::from(channels), FTL_TID_GC),
        Track::Hash => (u64::from(channels), FTL_TID_HASH),
        Track::Fault => (u64::from(channels), FTL_TID_FAULT),
        Track::Queue { pair } => (u64::from(channels), FTL_TID_QUEUE_BASE + u64::from(pair)),
    }
}

/// Simulated ns → Chrome `ts` microseconds. Chrome's unit is µs; the
/// division is deterministic (same u64 in, same f64 out) even when the
/// quotient is not exact.
fn ts_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn metadata(pid: u64, tid: u64, which: &'static str, label: String) -> Json {
    Json::obj([
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(pid)),
        ("tid", Json::U64(tid)),
        ("name", Json::Str(which.into())),
        ("args", Json::Obj(vec![("name".into(), Json::Str(label))])),
    ])
}

/// Every name and argument key of `recording` as the JSON string it
/// renders to, by id: escaped once per spelling, not once per event.
fn quoted(recording: &Recording) -> Vec<String> {
    let quote = |spelling: &str| {
        let mut json = String::new();
        write_str(spelling, &mut json);
        json
    };
    recording.names().spellings().iter().map(|s| quote(s)).collect()
}

/// Append `,"args":{…}` for a non-empty payload.
fn write_args(event: Record, quoted: &[String], out: &mut String) {
    let args = event.arg_ids();
    if args.len() == 0 {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&quoted[usize::from(key)]);
        out.push(':');
        write_u64(value, out);
    }
    out.push('}');
}

fn write_chrome_event(event: Record, quoted: &[String], channels: u32, out: &mut String) {
    let track = event.track();
    let (pid, tid) = pid_tid(track, channels);
    out.push_str("{\"name\":");
    out.push_str(&quoted[usize::from(event.name_id())]);
    out.push_str(",\"cat\":");
    write_str(CATEGORIES[track.category()], out);
    match event.kind() {
        EventKind::Span { start_ns, end_ns } => {
            out.push_str(",\"ph\":\"X\",\"ts\":");
            write_f64(ts_us(start_ns), out);
            out.push_str(",\"dur\":");
            write_f64(ts_us(end_ns.saturating_sub(start_ns)), out);
        }
        EventKind::Instant { at_ns } => {
            out.push_str(",\"ph\":\"i\",\"ts\":");
            write_f64(ts_us(at_ns), out);
            out.push_str(",\"s\":\"t\"");
        }
    }
    out.push_str(",\"pid\":");
    write_u64(pid, out);
    out.push_str(",\"tid\":");
    write_u64(tid, out);
    write_args(event, quoted, out);
    out.push('}');
}

/// The `traceEvents` array under construction.
struct TraceEvents {
    out: String,
    any: bool,
}

impl TraceEvents {
    /// Where the next entry goes, its separating comma already written.
    fn next(&mut self) -> &mut String {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        &mut self.out
    }
}

/// Render the Chrome trace-event document for a recording.
///
/// `channels` is the device's channel count: die tracks map to
/// `pid = channel`, `tid = global die index`, and the FTL's logical
/// tracks (host/gc/hash/fault) share the synthetic process
/// `pid = channels`. Gauges become `ph:"C"` counter events on the FTL
/// process, one per aggregated window, valued at the window mean.
pub fn chrome_trace(tracer: &Tracer, channels: u32) -> String {
    let mut events = TraceEvents { out: String::from("{\"traceEvents\":["), any: false };

    // Process/thread naming metadata, emitted for every (pid, tid) that
    // actually carries events, in sorted order for determinism.
    let mut pids: Vec<u64> = Vec::new();
    let mut threads: Vec<(u64, u64, Track)> = Vec::new();
    for e in tracer.events().iter() {
        let (pid, tid) = pid_tid(e.track(), channels);
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        if !threads.iter().any(|&(p, t, _)| p == pid && t == tid) {
            threads.push((pid, tid, e.track()));
        }
    }
    if !tracer.registry().is_empty() {
        let ftl = u64::from(channels);
        if !pids.contains(&ftl) {
            pids.push(ftl);
        }
    }
    pids.sort_unstable();
    threads.sort_unstable_by_key(|&(p, t, _)| (p, t));
    for &pid in &pids {
        let label = if pid == u64::from(channels) {
            "ftl".to_string()
        } else {
            format!("channel {pid}")
        };
        metadata(pid, 0, "process_name", label).render_into(events.next());
    }
    for &(pid, tid, track) in &threads {
        let label = match track {
            Track::Die { die, .. } => format!("die {die}"),
            Track::Host => "host".to_string(),
            Track::Gc => "gc".to_string(),
            Track::Hash => "hash".to_string(),
            Track::Fault => "fault".to_string(),
            Track::Queue { pair } => format!("queue {pair}"),
        };
        metadata(pid, tid, "thread_name", label).render_into(events.next());
    }

    let quoted = quoted(tracer.events());
    for e in tracer.events().iter() {
        write_chrome_event(e, &quoted, channels, events.next());
    }

    // Gauge counters ride on the FTL process track.
    let ftl = u64::from(channels);
    for (name, windows) in tracer.registry().snapshot() {
        for w in windows {
            Json::obj([
                ("ph", Json::Str("C".into())),
                ("ts", Json::F64(ts_us(w.start_ns))),
                ("pid", Json::U64(ftl)),
                ("tid", Json::U64(0)),
                ("name", Json::Str(name.into())),
                (
                    "args",
                    Json::Obj(vec![(name.to_string(), Json::F64(w.mean))]),
                ),
            ])
            .render_into(events.next());
        }
    }

    // Truncation marker: hitting the event cap silently skews every
    // downstream analysis, so the drop count rides in the document as a
    // metadata event on the FTL process.
    if tracer.dropped_events() > 0 {
        Json::obj([
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(ftl)),
            ("tid", Json::U64(0)),
            ("name", Json::Str("dropped_events".into())),
            (
                "args",
                Json::Obj(vec![(
                    "dropped_events".into(),
                    Json::U64(tracer.dropped_events()),
                )]),
            ),
        ])
        .render_into(events.next());
    }

    let mut out = events.out;
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

fn write_jsonl_event(event: Record, quoted: &[String], out: &mut String) {
    let track = event.track();
    match track {
        Track::Die { channel, die } => {
            out.push_str("{\"track\":\"die\",\"channel\":");
            write_u64(u64::from(channel), out);
            out.push_str(",\"die\":");
            write_u64(u64::from(die), out);
        }
        Track::Queue { pair } => {
            out.push_str("{\"track\":\"queue\",\"pair\":");
            write_u64(u64::from(pair), out);
        }
        Track::Host | Track::Gc | Track::Hash | Track::Fault => {
            out.push_str("{\"track\":");
            write_str(CATEGORIES[track.category()], out);
        }
    }
    out.push_str(",\"name\":");
    out.push_str(&quoted[usize::from(event.name_id())]);
    match event.kind() {
        EventKind::Span { start_ns, end_ns } => {
            out.push_str(",\"kind\":\"span\",\"start_ns\":");
            write_u64(start_ns, out);
            out.push_str(",\"end_ns\":");
            write_u64(end_ns, out);
        }
        EventKind::Instant { at_ns } => {
            out.push_str(",\"kind\":\"instant\",\"at_ns\":");
            write_u64(at_ns, out);
        }
    }
    write_args(event, quoted, out);
    out.push_str("}\n");
}

/// Append one JSONL line per event of `recording`, in recording order.
pub(crate) fn write_jsonl_events(recording: &Recording, out: &mut String) {
    let quoted = quoted(recording);
    recording.iter().for_each(|e| write_jsonl_event(e, &quoted, out));
}

/// Render the recording as JSONL: one compact JSON object per line —
/// every event in recording order, then one `"gauge"` line per
/// aggregated window. Each line parses with `cagc_harness::Json::parse`.
pub fn jsonl(tracer: &Tracer) -> String {
    // A line is 110–125 bytes on the simulator's recordings: sized once,
    // the log is written where it stays instead of doubling its way up.
    let mut out = String::with_capacity(128 * tracer.events().len());
    write_jsonl_events(tracer.events(), &mut out);
    for (name, windows) in tracer.registry().snapshot() {
        for w in windows {
            let line = Json::obj([
                ("track", Json::Str("gauge".into())),
                ("name", Json::Str(name.into())),
                ("start_ns", Json::U64(w.start_ns)),
                ("count", Json::U64(w.count)),
                ("mean", Json::F64(w.mean)),
                ("max", Json::U64(w.max)),
            ]);
            line.render_into(&mut out);
            out.push('\n');
        }
    }
    // Trailer line when the bounded-memory guard truncated the recording,
    // so scripts reading the log can tell a complete trace from a capped
    // one without consulting the run report.
    if tracer.dropped_events() > 0 {
        let line = Json::obj([
            ("track", Json::Str("meta".into())),
            ("name", Json::Str("dropped_events".into())),
            ("dropped_events", Json::U64(tracer.dropped_events())),
        ]);
        line.render_into(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TraceConfig;

    fn args_obj(event: Record) -> Option<Json> {
        let pairs: Vec<_> = event.args().map(|(k, v)| (k.to_string(), Json::U64(v))).collect();
        (!pairs.is_empty()).then_some(Json::Obj(pairs))
    }

    fn event_json(event: Record, channels: u32) -> Json {
        let (pid, tid) = pid_tid(event.track(), channels);
        let mut pairs: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(event.name().into())),
            ("cat".into(), Json::Str(CATEGORIES[event.track().category()].into())),
        ];
        match event.kind() {
            EventKind::Span { start_ns, end_ns } => {
                pairs.push(("ph".into(), Json::Str("X".into())));
                pairs.push(("ts".into(), Json::F64(ts_us(start_ns))));
                pairs.push(("dur".into(), Json::F64(ts_us(end_ns.saturating_sub(start_ns)))));
            }
            EventKind::Instant { at_ns } => {
                pairs.push(("ph".into(), Json::Str("i".into())));
                pairs.push(("ts".into(), Json::F64(ts_us(at_ns))));
                pairs.push(("s".into(), Json::Str("t".into())));
            }
        }
        pairs.push(("pid".into(), Json::U64(pid)));
        pairs.push(("tid".into(), Json::U64(tid)));
        pairs.extend(args_obj(event).map(|args| ("args".into(), args)));
        Json::Obj(pairs)
    }

    fn jsonl_track(track: Track) -> Vec<(String, Json)> {
        match track {
            Track::Die { channel, die } => vec![
                ("track".into(), Json::Str("die".into())),
                ("channel".into(), Json::U64(u64::from(channel))),
                ("die".into(), Json::U64(u64::from(die))),
            ],
            Track::Host => vec![("track".into(), Json::Str("host".into()))],
            Track::Gc => vec![("track".into(), Json::Str("gc".into()))],
            Track::Hash => vec![("track".into(), Json::Str("hash".into()))],
            Track::Fault => vec![("track".into(), Json::Str("fault".into()))],
            Track::Queue { pair } => vec![
                ("track".into(), Json::Str("queue".into())),
                ("pair".into(), Json::U64(u64::from(pair))),
            ],
        }
    }

    /// One JSONL line as the tree-built exporter rendered it.
    fn jsonl_event_json(event: Record) -> Json {
        let mut pairs = jsonl_track(event.track());
        pairs.push(("name".into(), Json::Str(event.name().into())));
        match event.kind() {
            EventKind::Span { start_ns, end_ns } => {
                pairs.push(("kind".into(), Json::Str("span".into())));
                pairs.push(("start_ns".into(), Json::U64(start_ns)));
                pairs.push(("end_ns".into(), Json::U64(end_ns)));
            }
            EventKind::Instant { at_ns } => {
                pairs.push(("kind".into(), Json::Str("instant".into())));
                pairs.push(("at_ns".into(), Json::U64(at_ns)));
            }
        }
        pairs.extend(args_obj(event).map(|args| ("args".into(), args)));
        Json::Obj(pairs)
    }

    #[test]
    fn streamed_events_equal_the_tree_rendering() {
        // Every track, both event kinds, with and without a payload, a
        // name that needs escaping, gauges and the drop trailer.
        let mut t = Tracer::enabled(TraceConfig {
            max_events: 12,
            counter_window_ns: 1_000,
            ..TraceConfig::default()
        });
        let tracks = [
            Track::Die { channel: 1, die: 3 },
            Track::Host,
            Track::Queue { pair: 2 },
            Track::Gc,
            Track::Hash,
            Track::Fault,
        ];
        for (i, track) in tracks.into_iter().enumerate() {
            let at = 1_000 * i as u64 + 1;
            t.span(track, "op", at, at + 2_500, &[("lpn", u64::MAX), ("queued_ns", 7)]);
            t.instant(track, "quote\"back\\slash\ttab", at, &[]);
        }
        t.instant(Track::Gc, "over_the_cap", 0, &[]);
        t.gauge("free_pages", 0, 100);
        t.gauge("free_pages", 2_500, 91);
        assert_eq!(t.events().len(), 12);
        assert_eq!(t.dropped_events(), 1);
        for e in t.events().iter() {
            let (mut chrome, mut line) = (String::new(), String::new());
            write_chrome_event(e, &quoted(t.events()), 2, &mut chrome);
            write_jsonl_event(e, &quoted(t.events()), &mut line);
            assert_eq!(chrome, event_json(e, 2).render());
            assert_eq!(line, jsonl_event_json(e).render() + "\n");
        }
        // The framing around the events (brackets, commas, the tree-built
        // metadata, gauge and trailer entries) is what a tree renders too:
        // parsing the document and rendering the tree gives it back. So
        // does an empty recording's.
        for doc in [chrome_trace(&t, 2), chrome_trace(&Tracer::enabled(TraceConfig::default()), 2)] {
            assert_eq!(Json::parse(&doc).expect("valid JSON").render(), doc);
        }
        for line in jsonl(&t).lines() {
            assert_eq!(Json::parse(line).expect("valid JSON").render(), line);
        }
    }

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::enabled(TraceConfig {
            counter_window_ns: 1_000,
            ..TraceConfig::default()
        });
        t.span(
            Track::Die { channel: 1, die: 3 },
            "read",
            2_000,
            5_000,
            &[("ppn", 42)],
        );
        t.span(Track::Gc, "gc_round", 1_000, 9_000, &[("victim", 7)]);
        t.instant(Track::Fault, "program_retry", 4_500, &[("block", 7), ("attempt", 1)]);
        t.gauge("free_pages", 0, 100);
        t.gauge("free_pages", 2_500, 90);
        t
    }

    #[test]
    fn chrome_trace_has_metadata_spans_instants_and_counters() {
        let text = chrome_trace(&sample_tracer(), 2);
        // Structure: loadable trace-event document.
        assert!(text.starts_with(r#"{"traceEvents":["#));
        assert!(text.contains(r#""displayTimeUnit":"ns""#));
        // pid mapping: die on channel 1, FTL process at pid=channels=2.
        assert!(text.contains(r#""process_name","args":{"name":"channel 1"}"#));
        assert!(text.contains(r#""process_name","args":{"name":"ftl"}"#));
        assert!(text.contains(r#""thread_name","args":{"name":"die 3"}"#));
        // Complete span with µs timestamps: 2000 ns = 2 µs, 3000 ns dur.
        assert!(text.contains(r#""name":"read","cat":"flash","ph":"X","ts":2,"dur":3,"pid":1,"tid":3"#));
        // Instant and counter phases present.
        assert!(text.contains(r#""ph":"i""#));
        assert!(text.contains(r#""ph":"C""#));
        // Round-trips through the harness parser.
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let text = jsonl(&sample_tracer());
        let lines: Vec<&str> = text.lines().collect();
        // 3 events + 2 gauge windows (0 ns and 2000 ns windows).
        assert_eq!(lines.len(), 5);
        for line in &lines {
            Json::parse(line).expect("every JSONL line must parse");
        }
        assert!(lines[0].contains(r#""track":"die","channel":1,"die":3"#));
        assert!(lines[4].contains(r#""track":"gauge""#));
    }

    #[test]
    fn queue_track_maps_onto_the_ftl_process() {
        let mut t = Tracer::enabled(TraceConfig::default());
        t.span(Track::Queue { pair: 1 }, "sq_busy", 1_000, 2_000, &[("depth", 3)]);
        let text = chrome_trace(&t, 2);
        assert!(text.contains(r#""thread_name","args":{"name":"queue 1"}"#));
        // tid = FTL_TID_QUEUE_BASE + pair on the ftl process (pid = channels).
        assert!(text.contains(r#""cat":"queue","ph":"X","ts":1,"dur":1,"pid":2,"tid":5"#));
        let line = jsonl(&t);
        assert!(line.contains(r#""track":"queue","pair":1"#));
    }

    #[test]
    fn dropped_events_surface_in_both_exports() {
        let mut t = Tracer::enabled(TraceConfig { max_events: 1, ..TraceConfig::default() });
        t.instant(Track::Gc, "tick", 0, &[]);
        t.instant(Track::Gc, "tick", 1, &[]);
        t.instant(Track::Gc, "tick", 2, &[]);
        assert_eq!(t.dropped_events(), 2);
        let chrome = chrome_trace(&t, 2);
        assert!(chrome.contains(r#""name":"dropped_events","args":{"dropped_events":2}"#));
        let log = jsonl(&t);
        let trailer = log.lines().last().unwrap();
        assert_eq!(
            trailer,
            r#"{"track":"meta","name":"dropped_events","dropped_events":2}"#
        );
        // No truncation ⇒ no marker anywhere.
        let clean = sample_tracer();
        assert!(!chrome_trace(&clean, 2).contains("dropped_events"));
        assert!(!jsonl(&clean).contains("dropped_events"));
    }

    #[test]
    fn export_is_byte_identical_across_identical_recordings() {
        let a = sample_tracer();
        let b = sample_tracer();
        assert_eq!(chrome_trace(&a, 2), chrome_trace(&b, 2));
        assert_eq!(jsonl(&a), jsonl(&b));
    }
}
