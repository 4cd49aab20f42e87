//! Reference implementation of [`SpanProfile::from_spans`] — the
//! string-keyed fold the integer-keyed one replaced, keeping every raw
//! duration sample — and the property tests that the two agree on every
//! row, and that merged duration runs equal the concatenated samples.

use std::collections::BTreeMap;

use cagc_harness::prop::*;

use super::{gc_pipeline_name, total_len, union, ProfileRow, SpanProfile, CATEGORIES};
use crate::event::{EventKind, Track};
use crate::recording::testing::{instant, recording, span, Spec};
use crate::recording::{Record, Recording};

/// A bucket as the oracle keeps it: every duration sample, raw.
#[derive(Debug, Clone, Default)]
struct RawBucket {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    samples: Vec<u64>,
}

/// Buckets by slash path.
type RawProfile = BTreeMap<String, RawBucket>;

fn add(profile: &mut RawProfile, path: String, dur_ns: u64, self_ns: u64) {
    let b = profile.entry(path).or_default();
    b.calls += 1;
    b.total_ns = b.total_ns.saturating_add(dur_ns);
    b.self_ns = b.self_ns.saturating_add(self_ns);
    b.samples.push(dur_ns);
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[idx as usize]
}

/// The rows [`SpanProfile::rows`] reads off its runs, computed over a
/// sorted copy of the raw samples.
fn rows(profile: &RawProfile) -> Vec<ProfileRow> {
    profile
        .iter()
        .map(|(path, b)| {
            let mut sorted = b.samples.clone();
            sorted.sort_unstable();
            ProfileRow {
                path: path.clone(),
                calls: b.calls,
                total_ns: b.total_ns,
                self_ns: b.self_ns,
                min_ns: sorted.first().copied().unwrap_or(0),
                p50_ns: percentile(&sorted, 50),
                p99_ns: percentile(&sorted, 99),
                max_ns: sorted.last().copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Counts and times add, samples concatenate.
fn merge_raw(into: &mut RawProfile, from: &RawProfile) {
    for (path, b) in from {
        let dst = into.entry(path.clone()).or_default();
        dst.calls += b.calls;
        dst.total_ns = dst.total_ns.saturating_add(b.total_ns);
        dst.self_ns = dst.self_ns.saturating_add(b.self_ns);
        dst.samples.extend_from_slice(&b.samples);
    }
}

/// The fold as it was before buckets were addressed by integers: every
/// record formats its bucket path and probes the path-keyed map, and every
/// container owns a vector of child intervals.
fn from_spans_by_path(recording: &Recording) -> RawProfile {
    let spans: Vec<Record> = recording.iter().collect();
    let category = |track: Track| track.category();
    // Containers, as (start, end, rec index), in (start, idx) order.
    let mut containers: Vec<(u64, u64, usize)> = spans
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_span() && matches!(r.track(), Track::Gc | Track::Host))
        .map(|(i, r)| (r.ts_ns(), r.ts_ns() + r.dur_ns(), i))
        .collect();
    containers.sort_unstable_by_key(|&(s, e, i)| (s, std::cmp::Reverse(e), i));
    // Prefix maxima of ends bound the backward containment search.
    let mut prefix_max_end: Vec<u64> = Vec::with_capacity(containers.len());
    let mut run = 0u64;
    for &(_, e, _) in &containers {
        run = run.max(e);
        prefix_max_end.push(run);
    }
    // Positions (into `containers`) of each track's containers, for
    // the preferred-track search.
    let gc_pos: Vec<usize> = (0..containers.len())
        .filter(|&p| spans[containers[p].2].track() == Track::Gc)
        .collect();
    let host_pos: Vec<usize> = (0..containers.len())
        .filter(|&p| spans[containers[p].2].track() == Track::Host)
        .collect();
    let mut gc_max_end = Vec::with_capacity(gc_pos.len());
    run = 0;
    for &p in &gc_pos {
        run = run.max(containers[p].1);
        gc_max_end.push(run);
    }
    let mut host_max_end = Vec::with_capacity(host_pos.len());
    run = 0;
    for &p in &host_pos {
        run = run.max(containers[p].1);
        host_max_end.push(run);
    }

    // Latest-starting container containing `ts` within a sorted
    // position subset (`None` = all containers).
    let find = |subset: Option<(&[usize], &[u64])>, ts: u64| -> Option<usize> {
        match subset {
            None => {
                let hi = containers.partition_point(|&(s, _, _)| s <= ts);
                (0..hi).rev().find_map(|k| {
                    if prefix_max_end[k] < ts {
                        return Some(None); // nothing earlier can reach ts
                    }
                    (containers[k].1 >= ts).then_some(Some(containers[k].2))
                })?
            }
            Some((pos, max_end)) => {
                let hi = pos.partition_point(|&p| containers[p].0 <= ts);
                (0..hi).rev().find_map(|k| {
                    if max_end[k] < ts {
                        return Some(None);
                    }
                    (containers[pos[k]].1 >= ts).then_some(Some(containers[pos[k]].2))
                })?
            }
        }
    };

    // Per container instance: the child intervals its self time
    // excludes (attributed leaves + directly nested containers).
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut profile = RawProfile::default();

    // Nested containers: stack sweep over (start asc, end desc) order
    // finds each container's immediate enclosing container.
    let mut stack: Vec<usize> = Vec::new();
    for k in 0..containers.len() {
        let (s, e, idx) = containers[k];
        while let Some(&top) = stack.last() {
            let (_, te, _) = containers[top];
            if te < e {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            let (ps, pe, pidx) = containers[top];
            children.entry(pidx).or_default().push((s.max(ps), e.min(pe)));
        }
        stack.push(k);
        let rec = &spans[idx];
        add(
            &mut profile,
            format!("{}/{}", CATEGORIES[category(rec.track())], rec.name()),
            rec.dur_ns(),
            0, // self filled in below
        );
    }

    // Leaves: attribute, bucket, and feed the parent's child list.
    for rec in &spans {
        let is_container =
            rec.is_span() && matches!(rec.track(), Track::Gc | Track::Host);
        if is_container {
            continue;
        }
        let ts = rec.ts_ns();
        let preferred = if rec.track() == Track::Gc || gc_pipeline_name(rec.name()) {
            find(Some((&gc_pos, &gc_max_end)), ts)
        } else {
            find(Some((&host_pos, &host_max_end)), ts)
        };
        let owner = preferred.or_else(|| find(None, ts));
        let path = match owner {
            Some(idx) => {
                let c = &spans[idx];
                let (cs, ce) = (c.ts_ns(), c.ts_ns() + c.dur_ns());
                let (ls, le) = (ts, ts + rec.dur_ns());
                if le > ls {
                    children
                        .entry(idx)
                        .or_default()
                        .push((ls.max(cs), le.min(ce)));
                }
                format!("{}/{}/{}", CATEGORIES[category(c.track())], c.name(), rec.name())
            }
            None => format!("{}/{}", CATEGORIES[category(rec.track())], rec.name()),
        };
        let dur = rec.dur_ns();
        add(&mut profile, path, dur, dur);
    }

    // Container self times: duration minus covered-by-children.
    for &(s, e, idx) in &containers {
        let covered = children
            .remove(&idx)
            .map(|ivs| total_len(&union(ivs)))
            .unwrap_or(0);
        let rec = &spans[idx];
        let path = format!("{}/{}", CATEGORIES[category(rec.track())], rec.name());
        let slf = (e - s).saturating_sub(covered);
        if let Some(b) = profile.get_mut(&path) {
            b.self_ns = b.self_ns.saturating_add(slf);
        }
    }
    profile
}

fn assert_matches_oracle(spans: &[Spec]) -> Result<(), TestCaseError> {
    let spans = recording(spans);
    let (new, old) = (SpanProfile::from_spans(&spans), from_spans_by_path(&spans));
    prop_assert_eq!(new.rows(), rows(&old));
    // Outside the fold every sample is in a run.
    prop_assert!(new.buckets.values().all(|b| b.pending.is_empty()));
    Ok(())
}

/// The simulator's closed name set (containers, GC pipeline leaves, host
/// leaves, instants) plus names a hand-edited JSONL could carry: ones
/// with the path separator in them, and an empty one.
const NAMES: [&str; 18] = [
    "gc_round", "gc_slice", "read", "write", "trim", "migrate_read", "migrate_write", "erase",
    "fingerprint", "victim_select", "dedup_drop", "program", "sq_busy", "read_ecc_retry",
    "gc_round/erase", "write/read", "a/b/c", "",
];

const TRACKS: [Track; 8] = [
    Track::Gc,
    Track::Gc,
    Track::Host,
    Track::Host,
    Track::Die { channel: 0, die: 1 },
    Track::Hash,
    Track::Fault,
    Track::Queue { pair: 1 },
];

/// `(track, name, kind, start, length)` selectors → one record. Half the
/// names come from [`NAMES`], the rest are 90 more distinct ones.
fn record((track, name, kind, start, len): (usize, usize, u8, u64, u64)) -> Spec {
    let name = match name.checked_sub(90) {
        Some(i) => NAMES[i % NAMES.len()].to_string(),
        None => format!("n{name}"),
    };
    let kind = match kind {
        0 => EventKind::Instant { at_ns: start },
        1 => EventKind::Span { start_ns: start, end_ns: start },
        _ => EventKind::Span { start_ns: start, end_ns: start + len },
    };
    (TRACKS[track], name, kind, Vec::new())
}

harness_proptest! {
    #![config(cases = 512)]
    /// Random streams on a short time axis: containers overlap and nest
    /// on both tracks, leaves fall inside several, one or none of them.
    #[test]
    fn integer_keyed_fold_equals_the_path_keyed_one(
        recs in vec((0usize..8, 0usize..180, 0u8..6, 0u64..300, 0u64..150), 0..160)
    ) {
        let spans: Vec<Spec> = recs.into_iter().map(record).collect();
        assert_matches_oracle(&spans)?;
    }

    /// Profiles of k random streams merged front to back and back to
    /// front: both read the rows of the streams' raw samples, concatenated.
    #[test]
    fn merged_runs_equal_the_concatenated_samples(
        streams in vec(vec((0usize..8, 0usize..180, 0u8..6, 0u64..300, 0u64..40), 0..120), 1..6)
    ) {
        let recordings: Vec<Recording> = streams
            .into_iter()
            .map(|recs| recording(&recs.into_iter().map(record).collect::<Vec<_>>()))
            .collect();
        let profiles: Vec<SpanProfile> = recordings.iter().map(SpanProfile::from_spans).collect();
        let (mut forward, mut backward) = (SpanProfile::default(), SpanProfile::default());
        profiles.iter().for_each(|p| forward.merge(p));
        profiles.iter().rev().for_each(|p| backward.merge(p));
        let mut raw = RawProfile::default();
        recordings.iter().for_each(|r| merge_raw(&mut raw, &from_spans_by_path(r)));
        prop_assert_eq!(forward.rows(), rows(&raw));
        prop_assert_eq!(backward.rows(), rows(&raw));
        prop_assert_eq!(forward, backward);
    }

    /// Streams that use many names at once: every record a different one
    /// of 150, so the name table grows past any small fixed size.
    #[test]
    fn more_than_64_distinct_names(start in 0u64..50, len in 1u64..40) {
        let spans: Vec<Spec> = (0..150)
            .map(|i| record((i % 8, i, 2, start + i as u64 % 7, len)))
            .collect();
        assert_matches_oracle(&spans)?;
    }
}

/// The attribution corner cases by name, so that a change to the random
/// generator cannot silently stop covering one.
#[test]
fn named_corner_cases_match_the_oracle() {
    let die = Track::Die { channel: 0, die: 0 };
    let cases: Vec<Vec<Spec>> = vec![
        vec![],
        // A GC-pipeline leaf that only a host container contains.
        vec![span(Track::Host, "write", 0, 100), span(die, "migrate_read", 10, 20)],
        // A host leaf that only a GC container contains.
        vec![span(Track::Gc, "gc_round", 0, 100), span(die, "read", 10, 20)],
        // Leaves and instants outside every container; a zero-length leaf.
        vec![
            span(Track::Gc, "gc_round", 50, 60),
            span(die, "erase", 0, 10),
            span(die, "erase", 70, 70),
            instant(Track::Fault, "write_fault", 5),
        ],
        // An unattributed instant whose path is a container bucket's.
        vec![span(Track::Gc, "gc_round", 10, 20), instant(Track::Gc, "gc_round", 0)],
        // A leaf whose path under its owner spells another bucket's path.
        vec![
            span(Track::Gc, "gc_round", 0, 100),
            span(die, "erase", 10, 20),
            span(Track::Gc, "gc_round/erase", 200, 230),
        ],
        // Identical containers, nested three deep, and a leaf running past
        // its owner's end.
        vec![
            span(Track::Host, "write", 0, 100),
            span(Track::Host, "write", 0, 100),
            span(Track::Gc, "gc_round", 10, 90),
            span(Track::Gc, "gc_slice", 20, 30),
            span(Track::Gc, "gc_slice", 30, 30),
            span(die, "migrate_write", 25, 95),
            span(die, "program", 95, 140),
        ],
    ];
    for spans in &cases {
        assert_matches_oracle(spans).unwrap_or_else(|e| panic!("{spans:?}: {e}"));
    }
}
