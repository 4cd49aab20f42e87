//! Span profiler: fold a recorded span stream into a hierarchical
//! profile — per phase: call count, total and self simulated time, and
//! min/p50/p99/max span duration — with deterministic CSV/JSON exports
//! and a collapsed-stack flamegraph text format.
//!
//! ## Hierarchy model
//!
//! Spans on [`Track::Gc`] and [`Track::Host`] are **containers**
//! (`gc_round`, `gc_slice`, host `read`/`write`/`trim`); every other
//! span, and every instant, is a **leaf**. A leaf is attributed to the
//! latest-starting container whose interval contains the leaf's start,
//! searched first among containers on the leaf's preferred track — GC
//! for the GC pipeline names (`migrate_read`, `migrate_write`, `erase`,
//! `fingerprint`) and everything recorded on the GC track, host for the
//! rest — then among all containers, falling back to a root bucket.
//! Containers are reported flat (one bucket per `track/name`); their
//! self time subtracts the union of attributed leaves *and* of
//! containers fully nested inside them.
//!
//! Every rule is a pure function of the recorded intervals, so two
//! identical recordings — or the same recording analyzed live vs. after
//! a JSONL round-trip — profile to identical bytes.
//!
//! ## Cost model
//!
//! Inside the fold identities are small integers: a name is the id the
//! recording interned it under, and a bucket is addressed by
//! `(parent, name id)`. Strings exist once per bucket — the slash path
//! is formatted after the last record, for tens of buckets — and the
//! duration samples are sorted once, there and after a [`merge`]
//! (`SpanProfile::merge`), never per export. Scratch is a few words per
//! container, a 4-byte owner per leaf and one 16-byte interval per child
//! (written once, into its owner's group), never one heap object per
//! record.
//!
//! [`merge`]: SpanProfile::merge

use std::collections::{BTreeMap, HashMap};

use cagc_harness::{Json, ToJson};
use cagc_metrics::Table;

use crate::event::{Track, CATEGORIES};
use crate::names::Memo;
use crate::recording::{Record, Recording};

/// Merge-union a set of closed intervals; returns the merged list,
/// sorted and disjoint.
pub(crate) fn union(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.retain(|&(s, e)| e > s);
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the union of `ivs` (sorted in place).
fn union_len(ivs: &mut [(u64, u64)]) -> u64 {
    ivs.sort_unstable();
    let (mut len, mut reach) = (0, 0);
    for &(s, e) in ivs.iter() {
        len += e.saturating_sub(s.max(reach));
        reach = reach.max(e);
    }
    len
}

/// Total length of a disjoint interval list.
pub(crate) fn total_len(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// Intersection of two disjoint sorted interval lists.
pub(crate) fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// `a` minus `b`, both disjoint and sorted.
pub(crate) fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut j = 0;
    for &(s, e) in a {
        let mut cur = s;
        while j < b.len() && b[j].1 <= cur {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].0 < e {
            if b[k].0 > cur {
                out.push((cur, b[k].0));
            }
            cur = cur.max(b[k].1);
            k += 1;
        }
        if cur < e {
            out.push((cur, e));
        }
    }
    out
}

/// Names the GC context stamps on die/hash spans: these leaves attach to
/// GC containers even when an overlapping host span also contains them.
fn gc_pipeline_name(name: &str) -> bool {
    matches!(name, "migrate_read" | "migrate_write" | "erase" | "fingerprint")
}

fn is_container(rec: &Record) -> bool {
    rec.is_span() && matches!(rec.track(), Track::Gc | Track::Host)
}

/// `durs` is kept sorted outside the fold (see [`SpanProfile::merge`]).
#[derive(Debug, Clone, Default, PartialEq)]
struct Bucket {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    durs: Vec<u64>,
}

impl Bucket {
    fn record(&mut self, dur_ns: u64) {
        self.calls += 1;
        self.total_ns += dur_ns;
        self.self_ns += dur_ns;
        self.durs.push(dur_ns);
    }

    /// Counts and times add; samples concatenate, unsorted.
    fn absorb(&mut self, other: &Bucket) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.durs.extend_from_slice(&other.durs);
    }
}

/// What a bucket hangs under: a track category (containers and
/// unattributed leaves) or a container bucket (attributed leaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Parent {
    Category(usize),
    Bucket(usize),
}

/// The fold's integer-keyed state: buckets addressed by
/// `(parent, name id)` in creation order.
#[derive(Default)]
struct Fold<'a> {
    /// The recording's spellings, by name id.
    names: &'a [Box<str>],
    /// Per name id: [`gc_pipeline_name`], classified once.
    gc_pipeline: Vec<bool>,
    keys: Vec<(Parent, usize)>,
    buckets: Vec<Bucket>,
    bucket_ids: HashMap<(Parent, usize), usize>,
    /// In front of `bucket_ids`: a recording fills a few dozen buckets a
    /// million times over, so nearly every lookup ends here.
    recent_buckets: Memo<(Parent, usize)>,
}

impl Fold<'_> {
    fn bucket_id(&mut self, parent: Parent, name: usize) -> usize {
        let key = (parent, name);
        let hash = match parent {
            Parent::Category(c) => c,
            Parent::Bucket(b) => CATEGORIES.len() + b,
        } * 64
            + name;
        if let Some(id) = self.recent_buckets.get(hash, key) {
            return id;
        }
        let id = *self.bucket_ids.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.buckets.push(Bucket::default());
            self.buckets.len() - 1
        });
        self.recent_buckets.put(hash, key, id);
        id
    }

    /// Give every bucket its slash path. A parent is created before its
    /// children, so its path is already there to extend; two keys that
    /// spell the same path (a JSONL name with a `/` in it) share a bucket.
    fn finish(self) -> SpanProfile {
        let mut paths: Vec<String> = Vec::with_capacity(self.keys.len());
        for &(parent, name) in &self.keys {
            let prefix = match parent {
                Parent::Category(c) => CATEGORIES[c],
                Parent::Bucket(b) => &paths[b],
            };
            paths.push(format!("{prefix}/{}", self.names[name]));
        }
        let mut profile = SpanProfile::default();
        for (path, bucket) in paths.into_iter().zip(&self.buckets) {
            profile.buckets.entry(path).or_default().absorb(bucket);
        }
        profile.sort_samples();
        profile
    }
}

/// A container span, resolved while its record was at hand.
struct Container {
    start: u64,
    end: u64,
    /// Position in the record stream (the order among equal intervals).
    rec: usize,
    /// On the GC track (else on the host track).
    gc: bool,
    bucket: usize,
}

/// One track's containers in `(start asc, end desc, record)` order, with
/// the prefix maxima of their ends bounding the backward search.
#[derive(Default)]
struct Lane {
    start: Vec<u64>,
    end: Vec<u64>,
    max_end: Vec<u64>,
    /// Position of each entry in the all-tracks container order.
    at: Vec<usize>,
    /// The last [`Lane::started_by`] answer.
    hint: usize,
}

impl Lane {
    fn push(&mut self, at: usize, start: u64, end: u64) {
        let run = self.max_end.last().copied().unwrap_or(0).max(end);
        self.start.push(start);
        self.end.push(end);
        self.max_end.push(run);
        self.at.push(at);
    }

    /// How many containers start at or before `ts`. Records arrive in
    /// roughly increasing time, so the search gallops outward from the
    /// previous answer before it bisects.
    fn started_by(&mut self, ts: u64) -> usize {
        let starts = &self.start[..];
        let (mut lo, mut hi, mut step) = (self.hint, self.hint, 1);
        if lo > 0 && starts[lo - 1] > ts {
            // The answer lies left of the hint: in [lo, hi] once lo stops.
            hi -= 1;
            lo = loop {
                let probe = hi.saturating_sub(step);
                if starts[probe] <= ts {
                    break probe + 1;
                }
                hi = probe;
                if probe == 0 {
                    break 0;
                }
                step *= 2;
            };
        } else {
            hi = loop {
                let probe = lo + step - 1;
                if probe >= starts.len() {
                    break starts.len();
                }
                if starts[probe] > ts {
                    break probe;
                }
                lo = probe + 1;
                step *= 2;
            };
        }
        self.hint = lo + starts[lo..hi].partition_point(|&s| s <= ts);
        self.hint
    }

    /// The latest-starting container whose interval contains `ts`.
    fn find(&mut self, ts: u64) -> Option<usize> {
        let hi = self.started_by(ts);
        for k in (0..hi).rev() {
            if self.max_end[k] < ts {
                return None; // nothing earlier can reach ts
            }
            if self.end[k] >= ts {
                return Some(self.at[k]);
            }
        }
        None
    }
}

/// One exported profile row (a bucket with its duration statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Slash-separated bucket path (`gc/gc_round/migrate_read`).
    pub path: String,
    /// Spans/instants folded into the bucket.
    pub calls: u64,
    /// Sum of span durations (instants contribute zero).
    pub total_ns: u64,
    /// Total minus the union of child intervals (equals `total_ns` for
    /// leaves).
    pub self_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Median span (nearest-rank).
    pub p50_ns: u64,
    /// 99th-percentile span (nearest-rank).
    pub p99_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

/// A mergeable hierarchical span profile.
///
/// Buckets keep their raw duration samples so profiles from many devices
/// merge exactly: quantiles are computed over the merged (sorted) sample
/// set at export time, making every output independent of merge order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    buckets: BTreeMap<String, Bucket>,
}

/// A table row: `label`, then each number in decimal.
pub(crate) fn cells<const N: usize>(label: impl Into<String>, numbers: [u64; N]) -> Vec<String> {
    std::iter::once(label.into()).chain(numbers.map(|n| n.to_string())).collect()
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[idx as usize]
}

impl SpanProfile {
    /// Fold a record stream into a profile, reading it where it lies.
    pub fn from_spans(spans: &Recording) -> Self {
        let names = spans.names().spellings();
        let gc_pipeline = names.iter().map(|n| gc_pipeline_name(n)).collect();
        let mut fold = Fold { names, gc_pipeline, ..Fold::default() };
        // Containers, bucketed while their record is at hand. Self time
        // starts at the duration; the children come off below.
        let mut containers: Vec<Container> = Vec::new();
        spans.iter().enumerate().filter(|(_, r)| is_container(r)).for_each(|(rec, r)| {
            let (start, end) = (r.ts_ns(), r.ts_ns() + r.dur_ns());
            let track = r.track();
            let bucket =
                fold.bucket_id(Parent::Category(track.category()), usize::from(r.name_id()));
            fold.buckets[bucket].record(end - start);
            containers.push(Container { start, end, rec, gc: track == Track::Gc, bucket });
        });
        containers.sort_unstable_by_key(|c| (c.start, std::cmp::Reverse(c.end), c.rec));

        let (mut all, mut gc, mut host) = (Lane::default(), Lane::default(), Lane::default());
        // The container whose self time each interval excludes — a
        // directly nested container's encloser, an attributed leaf's
        // owner — or `NO_OWNER`. Four bytes per record: the intervals
        // themselves are read again from the recording when grouped.
        const NO_OWNER: u32 = u32::MAX;
        let mut enclosers = vec![NO_OWNER; containers.len()];
        let mut owners: Vec<u32> = Vec::with_capacity(spans.len() - containers.len());

        // Nested containers: stack sweep over (start asc, end desc) order
        // finds each container's immediate enclosing container.
        let mut stack: Vec<usize> = Vec::new();
        for (k, c) in containers.iter().enumerate() {
            while stack.last().is_some_and(|&top| containers[top].end < c.end) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                enclosers[k] = top as u32;
            }
            stack.push(k);
            all.push(k, c.start, c.end);
            if c.gc { &mut gc } else { &mut host }.push(k, c.start, c.end);
        }

        // Leaves: attribute, bucket, and note the owner of each one that
        // has a duration.
        spans.iter().filter(|r| !is_container(r)).for_each(|rec| {
            let (ts, dur) = (rec.ts_ns(), rec.dur_ns());
            let (track, name) = (rec.track(), usize::from(rec.name_id()));
            let preferred = if track == Track::Gc || fold.gc_pipeline[name] {
                gc.find(ts)
            } else {
                host.find(ts)
            };
            let parent = match preferred.or_else(|| all.find(ts)) {
                Some(owner) => {
                    owners.push(if dur > 0 { owner as u32 } else { NO_OWNER });
                    Parent::Bucket(containers[owner].bucket)
                }
                None => {
                    owners.push(NO_OWNER);
                    Parent::Category(track.category())
                }
            };
            let bucket = fold.bucket_id(parent, name);
            fold.buckets[bucket].record(dur);
        });

        // Container self times: duration minus the union of the children.
        // A counting sort groups the intervals by owner (the cursors end
        // up at the group ends), then each small group is swept.
        let mut cursor = vec![0usize; containers.len()];
        for &owner in enclosers.iter().chain(&owners).filter(|&&o| o != NO_OWNER) {
            cursor[owner as usize] += 1;
        }
        let mut start = 0;
        for c in &mut cursor {
            start += std::mem::replace(c, start);
        }
        let mut grouped = vec![(0u64, 0u64); start];
        let mut place = |owner: u32, interval| {
            if owner != NO_OWNER {
                grouped[cursor[owner as usize]] = interval;
                cursor[owner as usize] += 1;
            }
        };
        for (c, &owner) in containers.iter().zip(&enclosers) {
            place(owner, (c.start, c.end));
        }
        let leaves = spans.iter().filter(|r| !is_container(r));
        for (rec, &owner) in leaves.zip(&owners) {
            if let Some(c) = containers.get(owner as usize) {
                place(owner, (rec.ts_ns(), (rec.ts_ns() + rec.dur_ns()).min(c.end)));
            }
        }
        let mut start = 0;
        for (&end, c) in cursor.iter().zip(&containers) {
            fold.buckets[c.bucket].self_ns -= union_len(&mut grouped[start..end]);
            start = end;
        }
        fold.finish()
    }

    /// Restore the invariant that every bucket's samples are sorted.
    fn sort_samples(&mut self) {
        for b in self.buckets.values_mut() {
            b.durs.sort_unstable();
        }
    }

    /// Fold `other` into this profile. Exact: counts and times add and
    /// the duration samples form one sorted multiset, so the result is
    /// independent of merge order.
    pub fn merge(&mut self, other: &SpanProfile) {
        for (path, src) in &other.buckets {
            let dst = self.buckets.entry(path.clone()).or_default();
            dst.absorb(src);
            // Two sorted runs back to back: the stable sort merges them
            // in one linear pass.
            dst.durs.sort();
        }
    }

    /// True when no span was folded in.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Exported rows in bucket-path order.
    pub fn rows(&self) -> Vec<ProfileRow> {
        self.buckets
            .iter()
            .map(|(path, b)| ProfileRow {
                path: path.clone(),
                calls: b.calls,
                total_ns: b.total_ns,
                self_ns: b.self_ns,
                min_ns: b.durs.first().copied().unwrap_or(0),
                p50_ns: percentile(&b.durs, 50),
                p99_ns: percentile(&b.durs, 99),
                max_ns: b.durs.last().copied().unwrap_or(0),
            })
            .collect()
    }

    /// One row per bucket in path order, under
    /// `path,calls,total_ns,self_ns,min_ns,p50_ns,p99_ns,max_ns`: the
    /// CSV export and the text `repro inspect` prints.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "path", "calls", "total_ns", "self_ns", "min_ns", "p50_ns", "p99_ns", "max_ns",
        ]);
        for r in self.rows() {
            t.row(cells(r.path, [r.calls, r.total_ns, r.self_ns, r.min_ns, r.p50_ns, r.p99_ns, r.max_ns]));
        }
        t
    }

    /// [`SpanProfile::table`] as CSV.
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// Collapsed-stack flamegraph text: one `a;b;c self_ns` line per
    /// bucket with nonzero self time, in path order. Feed to any
    /// flamegraph renderer.
    pub fn flamegraph(&self) -> String {
        let mut out = String::new();
        for r in self.rows() {
            if r.self_ns == 0 {
                continue;
            }
            out.push_str(&format!("{} {}\n", r.path.replace('/', ";"), r.self_ns));
        }
        out
    }
}

impl ToJson for ProfileRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", Json::Str(self.path.clone())),
            ("calls", Json::U64(self.calls)),
            ("total_ns", Json::U64(self.total_ns)),
            ("self_ns", Json::U64(self.self_ns)),
            ("min_ns", Json::U64(self.min_ns)),
            ("p50_ns", Json::U64(self.p50_ns)),
            ("p99_ns", Json::U64(self.p99_ns)),
            ("max_ns", Json::U64(self.max_ns)),
        ])
    }
}

impl ToJson for SpanProfile {
    fn to_json(&self) -> Json {
        Json::obj([(
            "buckets",
            Json::Arr(self.rows().iter().map(ToJson::to_json).collect()),
        )])
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::testing::{instant, recording, span, Spec};

    fn die(name: &'static str, start: u64, end: u64) -> Spec {
        span(Track::Die { channel: 0, die: 0 }, name, start, end)
    }

    fn profile(specs: &[Spec]) -> SpanProfile {
        SpanProfile::from_spans(&recording(specs))
    }

    #[test]
    fn interval_algebra_is_exact() {
        let u = union(vec![(5, 10), (0, 3), (9, 12), (12, 12)]);
        assert_eq!(u, vec![(0, 3), (5, 12)]);
        assert_eq!(total_len(&u), 10);
        assert_eq!(intersect(&u, &[(2, 6)]), vec![(2, 3), (5, 6)]);
        assert_eq!(subtract(&u, &[(1, 2), (6, 20)]), vec![(0, 1), (2, 3), (5, 6)]);
        assert_eq!(subtract(&[(0, 10)], &[]), vec![(0, 10)]);
    }

    #[test]
    fn known_nesting_gives_exact_self_and_total() {
        // gc_round [0,100] containing migrate_read [10,30], erase [20,60]
        // (overlapping children: union covers [10,60] = 50 ⇒ self = 50).
        let spans = vec![
            span(Track::Gc, "gc_round", 0, 100),
            die("migrate_read", 10, 30),
            die("erase", 20, 60),
        ];
        let p = profile(&spans);
        let rows = p.rows();
        let by_path = |q: &str| rows.iter().find(|r| r.path == q).unwrap().clone();
        let round = by_path("gc/gc_round");
        assert_eq!(round.calls, 1);
        assert_eq!(round.total_ns, 100);
        assert_eq!(round.self_ns, 50);
        let read = by_path("gc/gc_round/migrate_read");
        assert_eq!((read.calls, read.total_ns, read.self_ns), (1, 20, 20));
        let erase = by_path("gc/gc_round/erase");
        assert_eq!(erase.total_ns, 40);
    }

    #[test]
    fn leaves_prefer_their_context_track() {
        // Host write [0,100] overlaps gc_round [40,200]; the host-op read
        // at 50 goes to the host container despite gc_round starting
        // later, while migrate_read at 60 goes to GC.
        let spans = vec![
            span(Track::Host, "write", 0, 100),
            span(Track::Gc, "gc_round", 40, 200),
            die("read", 50, 55),
            die("migrate_read", 60, 70),
        ];
        let p = profile(&spans);
        let paths: Vec<String> = p.rows().iter().map(|r| r.path.clone()).collect();
        assert!(paths.contains(&"host/write/read".to_string()), "{paths:?}");
        assert!(paths.contains(&"gc/gc_round/migrate_read".to_string()), "{paths:?}");
    }

    #[test]
    fn unattributed_leaves_land_in_root_buckets() {
        let spans = vec![die("read", 0, 10), instant(Track::Fault, "write_fault", 3)];
        let p = profile(&spans);
        let rows = p.rows();
        assert_eq!(rows[0].path, "fault/write_fault");
        assert_eq!((rows[0].calls, rows[0].total_ns), (1, 0));
        assert_eq!(rows[1].path, "flash/read");
        assert_eq!(rows[1].self_ns, 10);
    }

    #[test]
    fn overlapping_same_track_containers_attribute_to_latest_start() {
        // Two overlapping gc_rounds; erase at ts=50 starts inside both —
        // the later-starting round owns it.
        let spans = vec![
            span(Track::Gc, "gc_round", 0, 60),
            span(Track::Gc, "gc_slice", 40, 100),
            die("erase", 50, 90),
        ];
        let p = profile(&spans);
        let rows = p.rows();
        let slice = rows.iter().find(|r| r.path == "gc/gc_slice/erase").unwrap();
        assert_eq!(slice.total_ns, 40);
        assert!(!rows.iter().any(|r| r.path == "gc/gc_round/erase"));
    }

    #[test]
    fn nested_containers_reduce_parent_self_time() {
        // A host write [0,100] fully containing a gc_round [20,80]: the
        // round's interval is excluded from the write's self time.
        let spans = vec![
            span(Track::Host, "write", 0, 100),
            span(Track::Gc, "gc_round", 20, 80),
        ];
        let p = profile(&spans);
        let rows = p.rows();
        let write = rows.iter().find(|r| r.path == "host/write").unwrap();
        assert_eq!(write.self_ns, 40);
        let round = rows.iter().find(|r| r.path == "gc/gc_round").unwrap();
        assert_eq!(round.self_ns, 60);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let spans: Vec<Spec> = [40u64, 10, 30, 20].iter().map(|&d| die("y", 0, d)).collect();
        let r = &profile(&spans).rows()[0];
        assert_eq!((r.min_ns, r.p50_ns, r.p99_ns, r.max_ns), (10, 30, 40, 40));
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let a = profile(&[span(Track::Gc, "gc_round", 0, 10), die("erase", 2, 6)]);
        let b = profile(&[span(Track::Gc, "gc_round", 0, 30), die("erase", 5, 25)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_csv(), ba.to_csv());
        assert_eq!(ab.flamegraph(), ba.flamegraph());
        let round = ab.rows().into_iter().find(|r| r.path == "gc/gc_round").unwrap();
        assert_eq!((round.calls, round.total_ns, round.self_ns), (2, 40, 16));
    }

    #[test]
    fn exports_are_deterministic_and_flamegraph_skips_zero_self() {
        let spans = vec![span(Track::Gc, "gc_round", 0, 10), die("erase", 0, 10)];
        let p = profile(&spans);
        assert_eq!(p.to_csv(), profile(&spans).to_csv());
        // gc_round self is 0 (fully covered) ⇒ absent from the flamegraph.
        let fg = p.flamegraph();
        assert_eq!(fg, "gc;gc_round;erase 10\n");
        assert!(p.to_json().render().starts_with(r#"{"buckets":[{"path":"gc/gc_round""#));
        assert!(p.table().render().contains("gc/gc_round/erase"));
    }
}
