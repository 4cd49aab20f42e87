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
//! is formatted after the last record, for tens of buckets. A bucket
//! keeps its durations as sorted `(value, count)` runs: new samples wait
//! in a pending buffer of 1 024 that is sorted into the runs when it fills
//! and after the last record, a [`merge`](SpanProfile::merge) is a linear
//! merge of two run lists, and an export reads ranks off the cumulative
//! counts. A recording of 852 k spans holds some 13 k distinct
//! (bucket, duration) pairs, so the profile keeps kilobytes, not a `u64`
//! per span.
//!
//! Scratch is sized by containers, not records: per container a 24-byte
//! record (start, end, record index, bucket with a GC bit) in one array
//! that holds the GC track's containers and then the host track's, so a
//! track's lane is a run of it plus a prefix-max end each; a `u32`
//! encloser and a `u32` cursor. Per leaf that has a duration, a `u32`
//! owner. Per child, a `u32` reference — a record index, or a nested
//! container's position with the top bit set — grouped by owner with a
//! counting sort and turned back into intervals one group at a time.
//! Nothing is one heap object per record, and the owners are reserved
//! exactly, from a count taken on the containers' pass.

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

/// Samples a bucket takes in before it sorts them into its runs.
const PENDING: usize = 1024;

/// Outside the fold `pending` is empty and `runs` holds every duration
/// sample: the distinct values in ascending order, each with how often it
/// was seen. A recording spells a few thousand distinct durations across
/// hundreds of thousands of spans, so the runs are what a profile keeps.
#[derive(Debug, Clone, Default, PartialEq)]
struct Bucket {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    runs: Vec<(u64, u64)>,
    /// Samples not yet in `runs`, in arrival order.
    pending: Vec<u64>,
}

impl Bucket {
    /// One span or instant of `dur_ns` whose own time is `self_ns` (a
    /// container's is added once its children are known). Sums saturate:
    /// a JSONL span may end at `u64::MAX`.
    fn record(&mut self, dur_ns: u64, self_ns: u64) {
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(dur_ns);
        self.self_ns = self.self_ns.saturating_add(self_ns);
        self.pending.push(dur_ns);
        if self.pending.len() == PENDING {
            self.settle();
        }
    }

    /// Sort the pending samples into the runs. A value already in a run
    /// adds to its count in place; only new values are merged in.
    fn settle(&mut self) {
        self.pending.sort_unstable();
        let mut fresh: Vec<(u64, u64)> = Vec::new();
        let mut from = 0;
        for run in self.pending.chunk_by(|a, b| a == b) {
            let (value, count) = (run[0], run.len() as u64);
            match self.runs[from..].binary_search_by_key(&value, |&(v, _)| v) {
                Ok(i) => {
                    from += i;
                    self.runs[from].1 += count;
                }
                Err(i) => {
                    from += i;
                    fresh.push((value, count));
                }
            }
        }
        self.pending.clear();
        if !fresh.is_empty() {
            self.runs = merge_runs(&self.runs, &fresh);
        }
    }

    /// Counts and times add; the runs merge into one sorted multiset.
    fn absorb(&mut self, other: &Bucket) {
        debug_assert!(self.pending.is_empty() && other.pending.is_empty());
        self.calls += other.calls;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.runs = merge_runs(&self.runs, &other.runs);
    }

    /// Nearest-rank min, p50, p99 and max over the runs (all 0 when
    /// there is no sample), read off their cumulative counts.
    fn quantiles(&self) -> [u64; 4] {
        let n: u64 = self.runs.iter().map(|&(_, count)| count).sum();
        let at = |p: u64| {
            let mut rank = (p * n.saturating_sub(1) + 50) / 100;
            for &(value, count) in &self.runs {
                if rank < count {
                    return value;
                }
                rank -= count;
            }
            0
        };
        let (min, max) = match (self.runs.first(), self.runs.last()) {
            (Some(first), Some(last)) => (first.0, last.0),
            _ => (0, 0),
        };
        [min, at(50), at(99), max]
    }
}

/// Linear merge of two run lists; equal values add their counts.
fn merge_runs(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.0.cmp(&y.0) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((x.0, x.1 + y.1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
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
    fn finish(mut self) -> SpanProfile {
        let mut paths: Vec<String> = Vec::with_capacity(self.keys.len());
        for &(parent, name) in &self.keys {
            let prefix = match parent {
                Parent::Category(c) => CATEGORIES[c],
                Parent::Bucket(b) => &paths[b],
            };
            paths.push(format!("{prefix}/{}", self.names[name]));
        }
        let mut profile = SpanProfile::default();
        for (path, bucket) in paths.into_iter().zip(&mut self.buckets) {
            bucket.settle();
            profile.buckets.entry(path).or_default().absorb(bucket);
        }
        profile
    }
}

/// A child reference with this bit set is a nested container's position
/// in the sorted container array; without it, a leaf's record index. On a
/// container's bucket it marks a span on the GC track.
const TOP_BIT: u32 = 1 << 31;

/// Record index `i` as a child reference (31 bits).
fn reference(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&r| r < TOP_BIT)
        .unwrap_or_else(|| panic!("record {i}: a profile folds at most 2^31 records"))
}

/// A container span, resolved while its record was at hand: 24 bytes.
#[derive(Clone, Copy)]
struct Container {
    start: u64,
    end: u64,
    /// Position in the record stream (the order among equal intervals).
    rec: u32,
    /// Its bucket, with [`TOP_BIT`] set for a span on the GC track.
    bucket: u32,
}

impl Container {
    fn bucket(&self) -> usize {
        (self.bucket & !TOP_BIT) as usize
    }

    fn gc(&self) -> bool {
        self.bucket & TOP_BIT != 0
    }
}

/// One track's containers: a run of the container array, which holds the
/// GC track's containers and then the host track's, each in
/// `(start asc, end desc, record)` order; with the prefix maxima of their
/// ends bounding the backward search.
struct Lane<'c> {
    run: &'c [Container],
    /// Where the run starts in the container array.
    first: usize,
    max_end: Vec<u64>,
    /// The last [`Lane::started_by`] answer.
    hint: usize,
}

impl<'c> Lane<'c> {
    fn new(run: &'c [Container], first: usize) -> Self {
        let mut reach = 0;
        let max_end = run.iter().map(|c| {
            reach = reach.max(c.end);
            reach
        });
        Lane { run, first, max_end: max_end.collect(), hint: 0 }
    }

    /// How many of the lane's containers start at or before `ts`. Records
    /// arrive in roughly increasing time, so the search gallops outward
    /// from the previous answer before it bisects.
    fn started_by(&mut self, ts: u64) -> usize {
        let run = self.run;
        let (mut lo, mut hi, mut step) = (self.hint, self.hint, 1);
        if lo > 0 && run[lo - 1].start > ts {
            // The answer lies left of the hint: in [lo, hi] once lo stops.
            hi -= 1;
            lo = loop {
                let probe = hi.saturating_sub(step);
                if run[probe].start <= ts {
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
                if probe >= run.len() {
                    break run.len();
                }
                if run[probe].start > ts {
                    break probe;
                }
                lo = probe + 1;
                step *= 2;
            };
        }
        self.hint = lo + run[lo..hi].partition_point(|c| c.start <= ts);
        self.hint
    }

    /// The position of the latest-starting container of this lane whose
    /// interval contains `ts`.
    fn find(&mut self, ts: u64) -> Option<usize> {
        let (run, hi) = (self.run, self.started_by(ts));
        for k in (0..hi).rev() {
            if self.max_end[k] < ts {
                return None; // nothing earlier can reach ts
            }
            if run[k].end >= ts {
                return Some(self.first + k);
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
/// Buckets keep every duration sample, as sorted `(value, count)` runs,
/// so profiles from many devices merge exactly: quantiles are read off
/// the merged runs at export time, making every output independent of
/// merge order. Times saturate at `u64::MAX` rather than wrap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    buckets: BTreeMap<String, Bucket>,
}

/// A table row: `label`, then each number in decimal.
pub(crate) fn cells<const N: usize>(label: impl Into<String>, numbers: [u64; N]) -> Vec<String> {
    std::iter::once(label.into()).chain(numbers.map(|n| n.to_string())).collect()
}

impl SpanProfile {
    /// Fold a record stream into a profile, reading it where it lies.
    ///
    /// # Panics
    /// When a container, or a leaf with a duration, sits past record
    /// 2³¹ − 1: a child reference is a 31-bit record index.
    pub fn from_spans(spans: &Recording) -> Self {
        let names = spans.names().spellings();
        let gc_pipeline = names.iter().map(|n| gc_pipeline_name(n)).collect();
        let mut fold = Fold { names, gc_pipeline, ..Fold::default() };
        // Containers, bucketed while their record is at hand; their self
        // time is added below, once their children are known. The leaves
        // with a duration are counted on the way.
        let mut containers: Vec<Container> = Vec::new();
        let mut timed_leaves = 0;
        spans.iter().enumerate().for_each(|(rec, r)| {
            if !is_container(&r) {
                timed_leaves += usize::from(r.dur_ns() > 0);
                return;
            }
            let (start, end) = (r.ts_ns(), r.ts_ns() + r.dur_ns());
            let track = r.track();
            let bucket =
                fold.bucket_id(Parent::Category(track.category()), usize::from(r.name_id()));
            fold.buckets[bucket].record(end - start, 0);
            let gc = if track == Track::Gc { TOP_BIT } else { 0 };
            containers.push(Container { start, end, rec: reference(rec), bucket: bucket as u32 | gc });
        });
        let order = |c: &Container| (c.start, std::cmp::Reverse(c.end), c.rec);
        containers.sort_unstable_by_key(|c| (!c.gc(), order(c)));
        let split = containers.partition_point(Container::gc);
        let (mut gc, mut host) =
            (Lane::new(&containers[..split], 0), Lane::new(&containers[split..], split));

        // The container whose self time each child excludes — a directly
        // nested container's encloser, a timed leaf's owner — or
        // `NO_OWNER`. Four bytes per container and per leaf with a
        // duration: the intervals are read again when grouped.
        const NO_OWNER: u32 = u32::MAX;
        let mut enclosers = vec![NO_OWNER; containers.len()];
        let mut owners: Vec<u32> = Vec::with_capacity(timed_leaves);

        // Nested containers: a stack sweep over both lanes merged into
        // (start asc, end desc, record) order finds each container's
        // immediate enclosing container.
        let mut stack: Vec<usize> = Vec::new();
        let (mut g, mut h) = (0, split);
        while g < split || h < containers.len() {
            let from_gc = h == containers.len()
                || (g < split && order(&containers[g]) < order(&containers[h]));
            let k = if from_gc { g += 1; g - 1 } else { h += 1; h - 1 };
            while stack.last().is_some_and(|&top| containers[top].end < containers[k].end) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                enclosers[k] = top as u32;
            }
            stack.push(k);
        }

        // Leaves: attribute and bucket each one, and note the owner of
        // each one that has a duration. When the preferred lane holds no
        // container of `ts`, the latest-starting one of all is the other
        // lane's.
        spans.iter().filter(|r| !is_container(r)).for_each(|rec| {
            let (ts, dur) = (rec.ts_ns(), rec.dur_ns());
            let (track, name) = (rec.track(), usize::from(rec.name_id()));
            let (preferred, other) = if track == Track::Gc || fold.gc_pipeline[name] {
                (&mut gc, &mut host)
            } else {
                (&mut host, &mut gc)
            };
            let owner = preferred.find(ts).or_else(|| other.find(ts));
            if dur > 0 {
                owners.push(owner.map_or(NO_OWNER, |o| o as u32));
            }
            let parent = match owner {
                Some(owner) => Parent::Bucket(containers[owner].bucket()),
                None => Parent::Category(track.category()),
            };
            let bucket = fold.bucket_id(parent, name);
            fold.buckets[bucket].record(dur, dur);
        });
        drop((gc, host));

        // Container self times: duration minus the union of the children.
        // A counting sort groups the children by owner as `u32`
        // references (the cursors end up at the group ends); each group
        // is turned back into intervals and swept on its own.
        let mut cursor = vec![0u32; containers.len()];
        for &owner in enclosers.iter().chain(&owners).filter(|&&o| o != NO_OWNER) {
            cursor[owner as usize] += 1;
        }
        let mut start = 0;
        for c in &mut cursor {
            start += std::mem::replace(c, start);
        }
        let mut grouped = vec![0u32; start as usize];
        let mut place = |owner: u32, child: u32| {
            if owner != NO_OWNER {
                grouped[cursor[owner as usize] as usize] = child;
                cursor[owner as usize] += 1;
            }
        };
        for (k, &owner) in enclosers.iter().enumerate() {
            place(owner, k as u32 | TOP_BIT);
        }
        let timed = spans.iter().enumerate().filter(|(_, r)| !is_container(r) && r.dur_ns() > 0);
        for ((rec, _), &owner) in timed.zip(&owners) {
            place(owner, reference(rec));
        }
        drop((enclosers, owners));
        let (mut from, mut intervals) = (0, Vec::new());
        for (&to, c) in cursor.iter().zip(&containers) {
            intervals.clear();
            intervals.extend(grouped[from as usize..to as usize].iter().map(|&child| {
                if child & TOP_BIT != 0 {
                    let nested = &containers[(child & !TOP_BIT) as usize];
                    (nested.start, nested.end)
                } else {
                    let leaf = spans.record(child as usize);
                    (leaf.ts_ns(), (leaf.ts_ns() + leaf.dur_ns()).min(c.end))
                }
            }));
            let own = (c.end - c.start).saturating_sub(union_len(&mut intervals));
            let bucket = &mut fold.buckets[c.bucket()];
            bucket.self_ns = bucket.self_ns.saturating_add(own);
            from = to;
        }
        fold.finish()
    }

    /// Fold `other` into this profile. Exact: counts and times add and
    /// the duration runs merge into one sorted multiset, so the result is
    /// independent of merge order.
    pub fn merge(&mut self, other: &SpanProfile) {
        for (path, src) in &other.buckets {
            self.buckets.entry(path.clone()).or_default().absorb(src);
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
            .map(|(path, b)| {
                let [min_ns, p50_ns, p99_ns, max_ns] = b.quantiles();
                ProfileRow {
                    path: path.clone(),
                    calls: b.calls,
                    total_ns: b.total_ns,
                    self_ns: b.self_ns,
                    min_ns,
                    p50_ns,
                    p99_ns,
                    max_ns,
                }
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

    #[test]
    fn a_container_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Container>(), 24);
    }

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
        let one = profile(&[die("y", 0, 7)]);
        assert_eq!(one.rows()[0].p99_ns, 7);
    }

    #[test]
    fn an_empty_bucket_reads_zero() {
        assert_eq!(Bucket::default().quantiles(), [0; 4]);
    }

    #[test]
    fn a_hundred_thousand_equal_spans_are_one_run() {
        let spans: Vec<Spec> = (0..100_000).map(|i| die("read", i, i + 5)).collect();
        let p = profile(&spans);
        let bucket = &p.buckets["flash/read"];
        assert_eq!(bucket.runs, [(5, 100_000)]);
        assert!(bucket.pending.is_empty());
        let r = &p.rows()[0];
        assert_eq!((r.calls, r.total_ns, r.min_ns, r.p50_ns, r.p99_ns, r.max_ns), (100_000, 500_000, 5, 5, 5, 5));
    }

    /// Interleaved distinct values across several settles of the pending
    /// buffer: the runs count every sample once, in order, and read the
    /// same ranks a sorted sample vector would.
    #[test]
    fn runs_across_the_pending_boundary_count_every_sample() {
        let n = 3 * PENDING + 17;
        let value = |i: usize| (i * 7 % 11) as u64 * 10;
        let mut b = Bucket::default();
        for i in 0..n {
            b.record(value(i), 0);
            assert!(b.pending.len() < PENDING);
        }
        assert_eq!(b.runs.iter().map(|r| r.1).sum::<u64>(), 3 * PENDING as u64);
        b.settle();
        assert!(b.pending.is_empty());
        assert_eq!(b.runs.len(), 11);
        assert!(b.runs.windows(2).all(|w| w[0].0 < w[1].0));
        for (v, count) in &b.runs {
            assert_eq!(*count, (0..n).filter(|&i| value(i) == *v).count() as u64);
        }
        let mut sorted: Vec<u64> = (0..n).map(value).collect();
        sorted.sort_unstable();
        let rank = |p: usize| sorted[(p * (n - 1) + 50) / 100];
        assert_eq!(b.quantiles(), [sorted[0], rank(50), rank(99), sorted[n - 1]]);
    }

    #[test]
    #[should_panic(expected = "a profile folds at most 2^31 records")]
    fn a_record_index_past_31_bits_panics() {
        assert_eq!(reference((1 << 31) - 1), (1 << 31) - 1);
        reference(1 << 31);
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
