//! Re-ingestion of recorded traces: a live [`Tracer`]'s recording or a
//! JSONL dump, as the one record stream the analyzers (profiler, GC
//! anatomy) consume.
//!
//! Both sources are a [`Recording`]. The live one is the tracer's own —
//! [`from_tracer`] borrows it, copying nothing — and [`parse_jsonl`]
//! builds another whose name table owns the strings it read. The
//! analyzers cannot tell them apart, so analyzing a live recording and
//! analyzing its JSONL export give byte-identical results.

use std::borrow::Cow;

use cagc_harness::Json;

use crate::event::Track;
use crate::names::Names;
use crate::recording::Recording;
use crate::tracer::Tracer;

/// A re-ingested trace: the record stream plus the truncation marker.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace<'a> {
    /// Every span/instant in recording order: a live tracer's recording,
    /// borrowed, or one built from JSONL, owned.
    pub spans: Cow<'a, Recording>,
    /// Events the recording dropped at its cap (from the JSONL trailer
    /// line, or [`Tracer::dropped_events`] directly). Nonzero means every
    /// derived profile/anatomy is a lower bound, not a census.
    pub dropped_events: u64,
}

/// A live tracer's recording as a re-ingested trace, in O(1) — the
/// sibling of [`parse_jsonl`] for in-process analysis.
pub fn from_tracer(tracer: &Tracer) -> ParsedTrace<'_> {
    ParsedTrace {
        spans: Cow::Borrowed(tracer.events()),
        dropped_events: tracer.dropped_events(),
    }
}

fn num(j: &Json) -> Option<u64> {
    match *j {
        Json::U64(v) => Some(v),
        Json::I64(v) => u64::try_from(v).ok(),
        _ => None,
    }
}

fn str_of(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn field<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A track coordinate: an integer that fits the field it names.
fn coordinate(pairs: &[(String, Json)], key: &str) -> Result<u32, String> {
    let v = field(pairs, key).and_then(num).ok_or_else(|| format!("missing {key} field"))?;
    u32::try_from(v).map_err(|_| format!("{key} {v} out of range"))
}

/// Append the event on one line to `out`; gauge and meta lines add nothing.
fn parse_line(pairs: &[(String, Json)], out: &mut Recording) -> Result<(), String> {
    let track_tag = field(pairs, "track")
        .and_then(str_of)
        .ok_or("missing track field")?;
    let track = match track_tag {
        // Gauge windows and the dropped-events trailer are not records.
        "gauge" | "meta" => return Ok(()),
        "die" => Track::Die { channel: coordinate(pairs, "channel")?, die: coordinate(pairs, "die")? },
        "queue" => Track::Queue { pair: coordinate(pairs, "pair")? },
        "host" => Track::Host,
        "gc" => Track::Gc,
        "hash" => Track::Hash,
        "fault" => Track::Fault,
        other => return Err(format!("unknown track {other:?}")),
    };
    let name = field(pairs, "name")
        .and_then(str_of)
        .ok_or("missing name field")?;
    let (start_ns, end_ns, instant) =
        match field(pairs, "kind").and_then(str_of).ok_or("missing kind field")? {
            "span" => (
                field(pairs, "start_ns").and_then(num).ok_or("span missing start_ns")?,
                field(pairs, "end_ns").and_then(num).ok_or("span missing end_ns")?,
                false,
            ),
            "instant" => {
                let at_ns = field(pairs, "at_ns").and_then(num).ok_or("instant missing at_ns")?;
                (at_ns, at_ns, true)
            }
            other => return Err(format!("unknown kind {other:?}")),
        };
    if end_ns < start_ns {
        return Err(format!("span {name:?} ends at {end_ns} before it starts at {start_ns}"));
    }
    let args = match field(pairs, "args") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| num(v).map(|v| (k.as_str(), v)).ok_or("non-integer arg"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    // Out-of-range coordinates, an over-long payload and a name table
    // past its id space are refused here, never wrapped.
    let word = track.pack().ok_or_else(|| format!("{track:?} is past what a recording holds"))?;
    out.push(word, name, start_ns, end_ns, instant, &args, |names: &mut Names, s| names.intern(s))
        .map_err(|limit| format!("{track:?} {name:?}: {limit}"))
}

/// Parse a [`crate::export::jsonl`] dump back into records. Gauge lines
/// are skipped (they are windowed aggregates, not events); the
/// `dropped_events` trailer is folded into [`ParsedTrace`].
///
/// # Errors
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<ParsedTrace<'static>, String> {
    let (mut spans, mut dropped_events) = (Recording::default(), 0);
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        let Json::Obj(pairs) = &json else {
            return Err(format!("line {}: not an object", i + 1));
        };
        if field(pairs, "track").and_then(str_of) == Some("meta") {
            if let Some(d) = field(pairs, "dropped_events").and_then(num) {
                dropped_events = d;
            }
            continue;
        }
        parse_line(pairs, &mut spans).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(ParsedTrace { spans: Cow::Owned(spans), dropped_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl;
    use crate::recording::testing::plain;
    use crate::tracer::TraceConfig;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::enabled(TraceConfig {
            counter_window_ns: 1_000,
            ..TraceConfig::default()
        });
        t.span(Track::Die { channel: 1, die: 3 }, "migrate_read", 2_000, 5_000, &[
            ("ppn", 42),
            ("queued_ns", 500),
        ]);
        t.span(Track::Gc, "gc_round", 1_000, 9_000, &[("victims", 7)]);
        t.instant(Track::Gc, "victim_select", 1_000, &[("block", 7)]);
        t.span(Track::Queue { pair: 2 }, "sq_busy", 0, 100, &[]);
        t.gauge("free_pages", 0, 100);
        t
    }

    #[test]
    fn jsonl_round_trip_matches_live_records() {
        let t = sample_tracer();
        let live = from_tracer(&t);
        let parsed = parse_jsonl(&jsonl(&t)).unwrap();
        assert_eq!(plain(&live.spans), plain(&parsed.spans));
        assert_eq!(parsed.dropped_events, 0);
        assert_eq!(parsed.spans.len(), 4, "gauge lines are not records");
        let spans: Vec<_> = parsed.spans.iter().collect();
        assert_eq!(spans[0].arg("queued_ns"), Some(500));
        assert_eq!(spans[0].dur_ns(), 3_000);
        assert_eq!(spans[2].dur_ns(), 0);
        assert!(!spans[2].is_span());
    }

    #[test]
    fn dropped_trailer_is_folded_in() {
        let mut t = Tracer::enabled(TraceConfig { max_events: 1, ..TraceConfig::default() });
        t.instant(Track::Gc, "tick", 0, &[]);
        t.instant(Track::Gc, "tick", 1, &[]);
        let parsed = parse_jsonl(&jsonl(&t)).unwrap();
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.dropped_events, 1);
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let err = parse_jsonl("{\"track\":\"gc\",\"name\":\"x\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(parse_jsonl("not json\n").unwrap_err().starts_with("line 1:"));
        let err = parse_jsonl("{\"track\":\"warp\",\"name\":\"x\",\"kind\":\"instant\",\"at_ns\":0}\n")
            .unwrap_err();
        assert!(err.contains("unknown track"), "{err}");
    }

    /// A coordinate the packed track word cannot hold, a payload longer
    /// than the length field counts and a 65 537th name are errors with a
    /// position — not a wrap (channel 4294967297 used to read back as 1)
    /// and not a panic.
    #[test]
    fn values_past_the_packed_form_are_refused_not_wrapped() {
        let die = |channel: u64, die: u64| {
            format!("{{\"track\":\"die\",\"channel\":{channel},\"die\":{die},\"name\":\"read\",\"kind\":\"instant\",\"at_ns\":0}}\n")
        };
        let queue = |pair: u64| {
            format!("{{\"track\":\"queue\",\"pair\":{pair},\"name\":\"sq_busy\",\"kind\":\"instant\",\"at_ns\":0}}\n")
        };
        let (c, d, p) = (Track::MAX_CHANNEL.into(), Track::MAX_DIE.into(), Track::MAX_PAIR.into());
        let held = parse_jsonl(&(die(c, d) + &queue(p))).expect("the extremes are held");
        let tracks: Vec<Track> = held.spans.iter().map(|e| e.track()).collect();
        assert_eq!(
            tracks,
            [Track::Die { channel: Track::MAX_CHANNEL, die: Track::MAX_DIE }, Track::Queue { pair: Track::MAX_PAIR }]
        );
        for past in [die(4_294_967_297, 0), die(c + 1, 0), die(0, d + 1), die(0, 1 << 40), queue(p + 1), queue(1 << 32)] {
            let err = parse_jsonl(&(die(0, 0) + &past)).expect_err(&past);
            assert!(err.starts_with("line 2:"), "{err}");
        }

        let args = |n: usize| {
            let pairs: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
            format!("{{\"track\":\"gc\",\"name\":\"x\",\"kind\":\"instant\",\"at_ns\":0,\"args\":{{{}}}}}\n", pairs.join(","))
        };
        let held = parse_jsonl(&args(255)).expect("255 arguments are held");
        assert_eq!(held.spans.iter().next().unwrap().args().count(), 255);
        let err = parse_jsonl(&args(256)).unwrap_err();
        assert!(err.starts_with("line 1:") && err.contains("255 arguments"), "{err}");

        let names: String = (0..=u32::from(u16::MAX) + 1)
            .map(|i| format!("{{\"track\":\"gc\",\"name\":\"n{i}\",\"kind\":\"instant\",\"at_ns\":0}}\n"))
            .collect();
        let err = parse_jsonl(&names).unwrap_err();
        assert!(err.starts_with("line 65537:") && err.contains("distinct names"), "{err}");
    }

    /// A line nested past the JSON parser's limit is an error naming the
    /// line and the limit, not a stack overflow that aborts the process.
    #[test]
    fn deeply_nested_lines_are_errors_not_aborts() {
        let deep_array = format!("{{\"a\":{}\n", "[".repeat(100_000));
        let deep_object = format!("{}0{}\n", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        for text in [deep_array, deep_object] {
            let err = parse_jsonl(&text).unwrap_err();
            assert!(err.starts_with("line 1:") && err.contains("128 levels"), "{err}");
        }
    }

    /// A span name is the file's text: one holding a comma, a quote or a
    /// line break still profiles to a CSV whose every row has 8 fields.
    #[test]
    fn odd_names_keep_the_profile_csv_rectangular() {
        let names = ["a,b", "say \"hi\"", "two\nlines", "cr\r"];
        let text: String = names
            .iter()
            .map(|name| {
                let line = Json::obj([
                    ("track", Json::Str("gc".into())),
                    ("name", Json::Str(name.to_string())),
                    ("kind", Json::Str("instant".into())),
                    ("at_ns", Json::U64(0)),
                ]);
                line.render() + "\n"
            })
            .collect();
        let csv = crate::SpanProfile::from_spans(&parse_jsonl(&text).unwrap().spans).to_csv();
        // Split into records by RFC 4180: a quoted field may hold `,`,
        // a line break and doubled quotes.
        let (mut records, mut record, mut field, mut quoted) = (vec![], vec![], String::new(), false);
        let mut chars = csv.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => field.push(chars.next().unwrap()),
                '"' => quoted = !quoted,
                ',' if !quoted => record.push(std::mem::take(&mut field)),
                '\n' if !quoted => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
        assert_eq!(records.len(), 1 + names.len(), "{csv}");
        assert!(records.iter().all(|r| r.len() == 8), "{csv}");
        let mut paths: Vec<String> = records[1..].iter().map(|r| r[0].clone()).collect();
        paths.sort();
        let mut want: Vec<String> = names.iter().map(|n| format!("gc/{n}")).collect();
        want.sort();
        assert_eq!(paths, want);
    }

    fn span_line(track: &str, name: &str, start_ns: u64, end_ns: u64) -> String {
        format!(
            "{{\"track\":\"{track}\",{}\"name\":\"{name}\",\"kind\":\"span\",\"start_ns\":{start_ns},\"end_ns\":{end_ns}}}\n",
            if track == "die" { "\"channel\":0,\"die\":0," } else { "" }
        )
    }

    /// Spans that end at `u64::MAX` saturate the profile's sums and keep
    /// the anatomy's permille products exact, instead of overflowing (a
    /// panic in a debug build, a wrapped total in a release one).
    #[test]
    fn spans_ending_at_u64_max_profile_and_anatomize() {
        let text = [
            span_line("host", "write", 0, u64::MAX),
            span_line("host", "write", 1, u64::MAX),
            span_line("gc", "gc_round", 2, u64::MAX),
            span_line("die", "erase", 3, u64::MAX),
        ]
        .concat();
        let parsed = parse_jsonl(&text).unwrap();
        let rows = crate::SpanProfile::from_spans(&parsed.spans).rows();
        let row = |path: &str| rows.iter().find(|r| r.path == path).unwrap().clone();
        let write = row("host/write");
        assert_eq!((write.calls, write.total_ns, write.self_ns), (2, u64::MAX, 2));
        assert_eq!((write.min_ns, write.max_ns), (u64::MAX - 1, u64::MAX));
        let round = row("gc/gc_round");
        assert_eq!((round.total_ns, round.self_ns), (u64::MAX - 2, 1));
        assert_eq!(row("gc/gc_round/erase").self_ns, u64::MAX - 3);
        let anatomy = crate::GcAnatomy::from_spans(&parsed.spans);
        assert_eq!((anatomy.gc_wall_ns, anatomy.covered_ns), (u64::MAX - 2, u64::MAX - 3));
        assert_eq!(anatomy.accounted_permille, 999);
        assert!(anatomy.to_csv().contains("\nerase,1,18446744073709551612,"), "{}", anatomy.to_csv());
        assert!(anatomy.to_csv().ends_with(",999\n"), "{}", anatomy.to_csv());
    }

    #[test]
    fn a_span_ending_before_it_starts_is_refused_with_its_line() {
        let text = span_line("gc", "gc_round", 0, 10) + &span_line("gc", "gc_round", 10, 5);
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("ends at 5 before it starts at 10"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let parsed = parse_jsonl("\n\n").unwrap();
        assert!(parsed.spans.is_empty());
    }
}
