//! Re-ingestion of recorded traces: turn a live [`Tracer`] or a JSONL
//! dump back into a uniform record stream the analyzers (profiler,
//! GC anatomy) consume.
//!
//! One record type serves both sources. On the live path a record
//! borrows everything — its name and argument keys are the simulator's
//! `&'static str` identities and its payload is a slice of the tracer's
//! argument arena — so [`from_tracer`] allocates the record vector and
//! nothing else. Only a JSONL round-trip, which cannot reconstruct those
//! identities, owns its strings. Both compare and analyze identically,
//! so analyzing a live recording and analyzing its JSONL export give
//! byte-identical results.

use std::borrow::Cow;

use cagc_harness::Json;

use crate::event::{Arg, EventKind, Track};
use crate::tracer::Tracer;

/// A record's key/value payload.
#[derive(Debug, Clone)]
pub enum Args<'a> {
    /// Borrowed from the recording tracer's argument arena.
    Live(&'a [Arg]),
    /// Parsed out of a JSONL line.
    Parsed(Vec<(String, u64)>),
}

impl Args<'_> {
    /// The pairs in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let (live, parsed): (&[Arg], &[(String, u64)]) = match self {
            Args::Live(a) => (a, &[]),
            Args::Parsed(a) => (&[], a),
        };
        let parsed = parsed.iter().map(|(k, v)| (k.as_str(), *v));
        live.iter().copied().chain(parsed)
    }
}

impl PartialEq for Args<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One trace record (span or instant), live or parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec<'a> {
    /// Track the record was drawn on.
    pub track: Track,
    /// Event name (`"migrate_read"`, `"gc_round"`, …).
    pub name: Cow<'static, str>,
    /// Span or instant, with timestamps.
    pub kind: EventKind,
    /// Key/value payload.
    pub args: Args<'a>,
}

impl SpanRec<'_> {
    /// The timestamp the record sorts by: span start, or the instant.
    pub fn ts_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_ns, .. } => start_ns,
            EventKind::Instant { at_ns } => at_ns,
        }
    }

    /// Span duration; instants are zero-width.
    pub fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { start_ns, end_ns } => end_ns.saturating_sub(start_ns),
            EventKind::Instant { .. } => 0,
        }
    }

    /// True for interval records.
    pub fn is_span(&self) -> bool {
        matches!(self.kind, EventKind::Span { .. })
    }

    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A re-ingested trace: the record stream plus the truncation marker.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace<'a> {
    /// Every span/instant in recording order.
    pub spans: Vec<SpanRec<'a>>,
    /// Events the recording dropped at its cap (from the JSONL trailer
    /// line, or [`Tracer::dropped_events`] directly). Nonzero means every
    /// derived profile/anatomy is a lower bound, not a census.
    pub dropped_events: u64,
}

/// View a live tracer's events as records — the zero-copy sibling of
/// [`parse_jsonl`] for in-process analysis.
pub fn from_tracer(tracer: &Tracer) -> ParsedTrace<'_> {
    ParsedTrace {
        spans: tracer
            .events()
            .iter()
            .map(|e| SpanRec {
                track: e.track,
                name: Cow::Borrowed(e.name),
                kind: e.kind,
                args: Args::Live(tracer.args(e)),
            })
            .collect(),
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

fn parse_line(pairs: &[(String, Json)]) -> Result<Option<SpanRec<'static>>, String> {
    let track_tag = field(pairs, "track")
        .and_then(str_of)
        .ok_or("missing track field")?;
    let track = match track_tag {
        // Gauge windows and the dropped-events trailer are not records.
        "gauge" | "meta" => return Ok(None),
        "die" => Track::Die {
            channel: field(pairs, "channel")
                .and_then(num)
                .ok_or("die line missing channel")? as u32,
            die: field(pairs, "die").and_then(num).ok_or("die line missing die")? as u32,
        },
        "queue" => Track::Queue {
            pair: field(pairs, "pair").and_then(num).ok_or("queue line missing pair")? as u32,
        },
        "host" => Track::Host,
        "gc" => Track::Gc,
        "hash" => Track::Hash,
        "fault" => Track::Fault,
        other => return Err(format!("unknown track {other:?}")),
    };
    let name = field(pairs, "name")
        .and_then(str_of)
        .ok_or("missing name field")?;
    let kind = match field(pairs, "kind").and_then(str_of).ok_or("missing kind field")? {
        "span" => EventKind::Span {
            start_ns: field(pairs, "start_ns").and_then(num).ok_or("span missing start_ns")?,
            end_ns: field(pairs, "end_ns").and_then(num).ok_or("span missing end_ns")?,
        },
        "instant" => EventKind::Instant {
            at_ns: field(pairs, "at_ns").and_then(num).ok_or("instant missing at_ns")?,
        },
        other => return Err(format!("unknown kind {other:?}")),
    };
    let args = match field(pairs, "args") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| num(v).map(|v| (k.clone(), v)).ok_or("non-integer arg"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    Ok(Some(SpanRec {
        track,
        name: Cow::Owned(name.to_string()),
        kind,
        args: Args::Parsed(args),
    }))
}

/// Parse a [`crate::export::jsonl`] dump back into records. Gauge lines
/// are skipped (they are windowed aggregates, not events); the
/// `dropped_events` trailer is folded into [`ParsedTrace`].
///
/// # Errors
/// Returns a message naming the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<ParsedTrace<'static>, String> {
    let mut out = ParsedTrace::default();
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
                out.dropped_events = d;
            }
            continue;
        }
        match parse_line(pairs).map_err(|e| format!("line {}: {e}", i + 1))? {
            Some(rec) => out.spans.push(rec),
            None => continue,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl;
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
        assert_eq!(live.spans, parsed.spans);
        assert_eq!(parsed.dropped_events, 0);
        assert_eq!(parsed.spans.len(), 4, "gauge lines are not records");
        assert_eq!(parsed.spans[0].arg("queued_ns"), Some(500));
        assert_eq!(parsed.spans[0].dur_ns(), 3_000);
        assert_eq!(parsed.spans[2].dur_ns(), 0);
        assert!(!parsed.spans[2].is_span());
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

    #[test]
    fn blank_lines_are_skipped() {
        let parsed = parse_jsonl("\n\n").unwrap();
        assert!(parsed.spans.is_empty());
    }
}
