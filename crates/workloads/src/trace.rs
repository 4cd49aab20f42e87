//! The trace model: timestamped page-granular I/O requests with content.
//!
//! Mirrors what the FIU SyLab traces provide (Sec. IV-A): each request has
//! an arrival time, an operation, a logical extent, and — for writes — a
//! content hash per page, which is what makes dedup studies possible
//! without the actual data.
//!
//! ## Layout
//!
//! A [`Trace`] is an arena ([`Requests`]) of three allocations however
//! many writes it carries:
//!
//! * one packed 16-byte record per request: the low 32 bits of the arrival
//!   and of the LPN, the page count and operation in one word, and the
//!   offset of its first content id;
//! * a run table holding the high 32 bits of arrival and LPN once per
//!   maximal stretch of records that share them (a run opens when an
//!   arrival crosses a 2³² ns ≈ 4.29 s boundary or an LPN crosses 2³²,
//!   so a long trace has one run per 4.29 s of its span);
//! * one slab holding every written page's [`ContentId`].
//!
//! Readers get [`RequestView`]s, which borrow their contents from the slab;
//! an iterator carries its run's high halves, and `get(i)` binary-searches
//! the run table. Producers append views. [`Request`] is the owned form
//! hand-built traces and tests use ([`Trace::new`]).

use std::fmt;
use std::mem::size_of;

use cagc_dedup::ContentId;
use cagc_sim::time::Nanos;

/// Request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read an extent.
    Read,
    /// Write an extent (contents carried per page).
    Write,
    /// Trim/discard an extent (file deletion in the FIU traces).
    Trim,
}

/// One I/O request covering `pages` logical pages starting at `lpn`, with
/// its contents owned: the builder and test convenience behind
/// [`Trace::new`]. A trace stores requests packed ([`Requests`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Arrival time.
    pub at_ns: Nanos,
    /// Operation.
    pub kind: OpKind,
    /// First logical page.
    pub lpn: u64,
    /// Extent length in pages (≥ 1).
    pub pages: u32,
    /// Per-page content identities; length == `pages` for writes, empty
    /// otherwise.
    pub contents: Vec<ContentId>,
}

impl Request {
    /// A read request.
    pub fn read(at_ns: Nanos, lpn: u64, pages: u32) -> Self {
        Self { at_ns, kind: OpKind::Read, lpn, pages, contents: Vec::new() }
    }

    /// A write request carrying one content id per page.
    ///
    /// # Panics
    /// Panics if `contents` is empty (a write must carry content).
    pub fn write(at_ns: Nanos, lpn: u64, contents: Vec<ContentId>) -> Self {
        assert!(!contents.is_empty(), "write with no content");
        Self { at_ns, kind: OpKind::Write, lpn, pages: contents.len() as u32, contents }
    }

    /// A trim request.
    pub fn trim(at_ns: Nanos, lpn: u64, pages: u32) -> Self {
        Self { at_ns, kind: OpKind::Trim, lpn, pages, contents: Vec::new() }
    }

    /// The borrowed form a device is driven with.
    #[inline]
    pub fn view(&self) -> RequestView<'_> {
        RequestView {
            at_ns: self.at_ns,
            kind: self.kind,
            lpn: self.lpn,
            pages: self.pages,
            contents: &self.contents,
        }
    }
}

impl<'a> From<&'a Request> for RequestView<'a> {
    fn from(r: &'a Request) -> Self {
        r.view()
    }
}

/// One request with its contents borrowed: what a trace yields and what a
/// device is driven with. `Copy`, so a driver that issues a traced request
/// at another time or in another namespace restamps the field with a
/// struct update (`RequestView { at_ns, ..req }`) and copies no content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView<'a> {
    /// Arrival time.
    pub at_ns: Nanos,
    /// Operation.
    pub kind: OpKind,
    /// First logical page.
    pub lpn: u64,
    /// Extent length in pages.
    pub pages: u32,
    /// Per-page content identities (see [`Request::contents`]).
    pub contents: &'a [ContentId],
}

impl RequestView<'_> {
    /// A read of `pages` pages from `lpn`.
    pub fn read(at_ns: Nanos, lpn: u64, pages: u32) -> Self {
        Self { at_ns, kind: OpKind::Read, lpn, pages, contents: &[] }
    }

    /// A trim of `pages` pages from `lpn`.
    pub fn trim(at_ns: Nanos, lpn: u64, pages: u32) -> Self {
        Self { at_ns, kind: OpKind::Trim, lpn, pages, contents: &[] }
    }

    /// Iterate the logical pages this request covers.
    pub fn lpns(self) -> std::ops::Range<u64> {
        self.lpn..self.lpn + u64::from(self.pages)
    }
}

/// Bit position of the operation in [`Record::pages_kind`].
const KIND_SHIFT: u32 = 30;
/// Widest extent a record holds: the page count shares its word with the
/// operation.
const MAX_PAGES: u32 = (1 << KIND_SHIFT) - 1;
/// Most content ids one slab holds: a record addresses its first page's id
/// with a `u32` offset.
const MAX_SLAB: u64 = 1 << 32;

/// One packed request: 16 bytes, where a [`Request`] is 48 plus its
/// contents' own allocation. The arrival and the LPN keep their low 32
/// bits here; their high halves live once per [`Run`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// Low 32 bits of the arrival time.
    at_lo: u32,
    /// Low 32 bits of the first logical page.
    lpn_lo: u32,
    /// Page count in the low 30 bits, the operation in the top two.
    pages_kind: u32,
    /// Slab index of the first page's content id (0 for non-writes).
    slab: u32,
}

/// A maximal stretch of records whose arrivals and LPNs share their high
/// 32 bits, from record `first` up to the next run's `first`.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    at_hi: u32,
    lpn_hi: u32,
}

impl Run {
    /// The high halves of the run, shifted into place.
    #[inline]
    fn bases(&self) -> (u64, u64) {
        (u64::from(self.at_hi) << 32, u64::from(self.lpn_hi) << 32)
    }
}

/// Each run with the range of records it covers in an arena of `len`.
fn spans(runs: &[Run], len: usize) -> impl Iterator<Item = (Run, std::ops::Range<usize>)> + '_ {
    let ends = runs.iter().skip(1).map(|next| next.first).chain([len]);
    runs.iter().zip(ends).map(|(&run, end)| (run, run.first..end))
}

/// Open a run at record `first` unless the last run already carries the
/// high halves of `at_ns` and `lpn`.
fn extend_runs(runs: &mut Vec<Run>, first: usize, at_ns: Nanos, lpn: u64) {
    let (at_hi, lpn_hi) = ((at_ns >> 32) as u32, (lpn >> 32) as u32);
    if runs.last().is_none_or(|r| (r.at_hi, r.lpn_hi) != (at_hi, lpn_hi)) {
        runs.push(Run { first, at_hi, lpn_hi });
    }
}

impl Record {
    #[inline]
    fn unpack(self, (at_base, lpn_base): (u64, u64), slab: &[ContentId]) -> RequestView<'_> {
        let pages = self.pages_kind & MAX_PAGES;
        let (kind, contents) = match self.pages_kind >> KIND_SHIFT {
            0 => (OpKind::Read, &[][..]),
            1 => (OpKind::Write, &slab[self.slab as usize..][..pages as usize]),
            _ => (OpKind::Trim, &[][..]),
        };
        RequestView {
            at_ns: at_base | u64::from(self.at_lo),
            kind,
            lpn: lpn_base | u64::from(self.lpn_lo),
            pages,
            contents,
        }
    }
}

/// The slab offset of a write of `pages` pages appended to a slab of
/// `len` ids, or the limit it would cross.
fn slab_offset(len: usize, pages: u32) -> Result<u32, String> {
    if len as u64 + u64::from(pages) > MAX_SLAB {
        return Err(format!("content slab would pass its limit of {MAX_SLAB} ids"));
    }
    Ok(len as u32)
}

/// A trace's requests, packed: one record per request, one run per
/// stretch of records sharing the high halves of arrival and LPN, and one
/// content slab. Indexed and iterated as [`RequestView`]s.
#[derive(Clone, Default)]
pub struct Requests {
    records: Vec<Record>,
    runs: Vec<Run>,
    slab: Vec<ContentId>,
}

impl Requests {
    /// An empty arena with room for `requests` records and `contents`
    /// content ids.
    pub(crate) fn with_capacity(requests: usize, contents: usize) -> Self {
        Self {
            records: Vec::with_capacity(requests),
            runs: Vec::new(),
            slab: Vec::with_capacity(contents),
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no requests.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Content ids held, one per page written.
    pub(crate) fn contents_len(&self) -> usize {
        self.slab.len()
    }

    /// The `i`-th request: a binary search of the run table, then one
    /// record.
    #[inline]
    pub fn get(&self, i: usize) -> Option<RequestView<'_>> {
        let r = self.records.get(i)?;
        let run = &self.runs[self.runs.partition_point(|run| run.first <= i) - 1];
        Some(r.unpack(run.bases(), &self.slab))
    }

    /// The first request.
    pub fn first(&self) -> Option<RequestView<'_>> {
        self.get(0)
    }

    /// The last request.
    pub fn last(&self) -> Option<RequestView<'_>> {
        let r = self.records.last()?;
        Some(r.unpack(self.runs.last()?.bases(), &self.slab))
    }

    /// The requests in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            run: [].iter(),
            bases: (0, 0),
            rest: &self.records,
            runs: &self.runs,
            slab: &self.slab,
        }
    }

    /// Append a request, copying its contents into the slab.
    ///
    /// Errs, appending nothing, if a write's contents do not match its
    /// page count, a non-write carries contents, or a packing limit would
    /// be crossed.
    pub(crate) fn push(&mut self, r: RequestView<'_>) -> Result<(), String> {
        if r.kind == OpKind::Write {
            return self.push_write(r.at_ns, r.lpn, r.pages, r.contents.iter().copied());
        }
        check_pages(r.pages)?;
        if !r.contents.is_empty() {
            return Err("non-write carries contents".into());
        }
        self.push_record(r.at_ns, r.kind, r.lpn, r.pages, 0);
        Ok(())
    }

    /// Append a write of `pages` pages whose contents `contents` yields,
    /// straight into the slab (no staging copy).
    ///
    /// Errs, appending nothing, if `contents` does not yield exactly
    /// `pages` ids or a packing limit would be crossed.
    pub(crate) fn push_write(
        &mut self,
        at_ns: Nanos,
        lpn: u64,
        pages: u32,
        contents: impl IntoIterator<Item = ContentId>,
    ) -> Result<(), String> {
        check_pages(pages)?;
        let start = slab_offset(self.slab.len(), pages)?;
        self.slab.extend(contents.into_iter().take(pages as usize + 1));
        let carried = self.slab.len() - start as usize;
        if carried != pages as usize {
            self.slab.truncate(start as usize);
            return Err(format!("write covers {pages} pages but carries {carried} contents"));
        }
        self.push_record(at_ns, OpKind::Write, lpn, pages, start);
        Ok(())
    }

    /// Append a record whose page count [`check_pages`] accepted, opening
    /// a run if its high halves differ from the last run's.
    fn push_record(&mut self, at_ns: Nanos, kind: OpKind, lpn: u64, pages: u32, slab: u32) {
        let kind_bits = match kind {
            OpKind::Read => 0,
            OpKind::Write => 1,
            OpKind::Trim => 2,
        };
        extend_runs(&mut self.runs, self.records.len(), at_ns, lpn);
        self.records.push(Record {
            at_lo: at_ns as u32,
            lpn_lo: lpn as u32,
            pages_kind: pages | kind_bits << KIND_SHIFT,
            slab,
        });
    }

    /// Heap bytes held, by capacity: records, run table and slab.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.records.capacity() * size_of::<Record>()
            + self.run_table_bytes()
            + self.slab.capacity() * size_of::<ContentId>()
    }

    /// Heap bytes the run table holds, by capacity.
    pub(crate) fn run_table_bytes(&self) -> usize {
        self.runs.capacity() * size_of::<Run>()
    }

    /// Stable-sort the requests by arrival, through a temporary keyed by
    /// the full arrival and LPN. Records keep their slab offsets, so no
    /// content moves.
    pub(crate) fn sort_by_arrival(&mut self) {
        let mut keyed = Vec::with_capacity(self.records.len());
        for (run, range) in spans(&self.runs, self.records.len()) {
            let (at_base, lpn_base) = run.bases();
            for r in &self.records[range] {
                keyed.push((at_base | u64::from(r.at_lo), lpn_base | u64::from(r.lpn_lo), *r));
            }
        }
        keyed.sort_by_key(|&(at, _, _)| at);
        self.records.clear();
        self.runs.clear();
        for (at, lpn, r) in keyed {
            extend_runs(&mut self.runs, self.records.len(), at, lpn);
            self.records.push(r);
        }
    }

    /// Rewrite every arrival time in place and rebuild the run table.
    pub(crate) fn retime(&mut self, mut f: impl FnMut(Nanos) -> Nanos) {
        let old = std::mem::take(&mut self.runs);
        for (run, range) in spans(&old, self.records.len()) {
            let (at_base, lpn_base) = run.bases();
            for i in range {
                let r = &mut self.records[i];
                let at = f(at_base | u64::from(r.at_lo));
                r.at_lo = at as u32;
                extend_runs(&mut self.runs, i, at, lpn_base);
            }
        }
    }
}

fn check_pages(pages: u32) -> Result<(), String> {
    if pages > MAX_PAGES {
        return Err(format!("{pages} pages exceed a packed record's limit of {MAX_PAGES}"));
    }
    Ok(())
}

/// Equal when they yield the same requests, whatever the slab layout.
impl PartialEq for Requests {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl Eq for Requests {}

impl fmt::Debug for Requests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

/// The iterator [`Requests::iter`] returns. It walks one run at a time
/// with that run's high halves in hand, so a step within a run is the one
/// end-of-slice compare a plain slice iterator makes.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// The current run's records not yet yielded.
    run: std::slice::Iter<'a, Record>,
    /// The current run's arrival and LPN bases.
    bases: (u64, u64),
    /// The records of the runs not yet entered.
    rest: &'a [Record],
    /// The runs not yet entered.
    runs: &'a [Run],
    slab: &'a [ContentId],
}

impl Iter<'_> {
    /// Move to the next run; `None` past the last.
    fn enter_next_run(&mut self) -> Option<()> {
        let (run, later) = self.runs.split_first()?;
        let len = later.first().map_or(self.rest.len(), |next| next.first - run.first);
        let (records, rest) = self.rest.split_at(len);
        self.run = records.iter();
        self.bases = run.bases();
        self.rest = rest;
        self.runs = later;
        Some(())
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = RequestView<'a>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = self.run.next() {
                return Some(r.unpack(self.bases, self.slab));
            }
            self.enter_next_run()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.run.len() + self.rest.len();
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a Requests {
    type Item = RequestView<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A full trace: named, time-ordered, bounded to a logical space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Workload name ("Mail", "Homes", …).
    pub name: String,
    /// Number of logical pages the trace addresses (LPNs are `< this`).
    pub logical_pages: u64,
    /// Time-ordered requests.
    pub requests: Requests,
}

impl Trace {
    /// Pack hand-built requests into a trace and validate it.
    ///
    /// # Panics
    /// Panics naming the broken rule: requests out of time order, an
    /// extent outside the logical space, contents that do not match a
    /// request, or a packing limit.
    pub fn new(name: impl Into<String>, logical_pages: u64, requests: Vec<Request>) -> Self {
        let name = name.into();
        let contents = requests.iter().map(|r| r.contents.len()).sum();
        let mut packed = Requests::with_capacity(requests.len(), contents);
        for (i, r) in requests.iter().enumerate() {
            if let Err(e) = packed.push(r.view()) {
                panic!("invalid trace `{name}`: request {i}: {e}");
            }
        }
        Self::from_requests(name.clone(), logical_pages, packed)
            .unwrap_or_else(|e| panic!("invalid trace `{name}`: {e}"))
    }

    /// Wrap the arena a producer filled: validate it and release its
    /// spare capacity.
    pub(crate) fn from_requests(
        name: impl Into<String>,
        logical_pages: u64,
        mut requests: Requests,
    ) -> Result<Self, String> {
        requests.records.shrink_to_fit();
        requests.runs.shrink_to_fit();
        requests.slab.shrink_to_fit();
        let t = Self { name: name.into(), logical_pages, requests };
        t.validate()?;
        Ok(t)
    }

    /// Validation used by every constructor and by the parsers on
    /// untrusted input: requests time-ordered, extents nonempty and in
    /// range.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0;
        for (i, r) in self.requests.iter().enumerate() {
            if r.pages == 0 {
                return Err(format!("request {i}: zero-length request"));
            }
            if r.at_ns < prev {
                return Err(format!("request {i}: time goes backwards"));
            }
            if r.lpn.checked_add(u64::from(r.pages)).is_none_or(|end| end > self.logical_pages) {
                return Err(format!(
                    "request {i}: {} pages at lpn {} reach beyond logical space {}",
                    r.pages, r.lpn, self.logical_pages
                ));
            }
            prev = r.at_ns;
        }
        Ok(())
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total pages written across all write requests.
    pub fn written_pages(&self) -> u64 {
        self.requests.contents_len() as u64
    }

    /// Heap bytes the trace's requests hold (records plus content slab, by
    /// capacity).
    pub fn heap_bytes(&self) -> usize {
        self.requests.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = Request::read(5, 10, 3);
        assert_eq!(r.view().lpns().collect::<Vec<_>>(), vec![10, 11, 12]);
        let w = Request::write(6, 0, vec![ContentId(1), ContentId(2)]);
        assert_eq!(w.pages, 2);
        let t = Request::trim(7, 1, 1);
        assert!(t.contents.is_empty());
    }

    #[test]
    #[should_panic(expected = "no content")]
    fn empty_write_rejected() {
        Request::write(0, 0, vec![]);
    }

    #[test]
    fn a_record_is_16_bytes() {
        assert_eq!(size_of::<Record>(), 16);
    }

    #[test]
    fn records_round_trip_every_kind_at_the_page_limit() {
        let mut reqs = Requests::default();
        let contents: Vec<ContentId> = (0..3).map(ContentId).collect();
        let views = [
            RequestView::read(1, u64::MAX - 1, MAX_PAGES),
            RequestView { at_ns: 2, kind: OpKind::Write, lpn: 7, pages: 3, contents: &contents },
            RequestView::trim(3, 0, 1),
        ];
        for v in views {
            reqs.push(v).unwrap();
        }
        assert!(reqs.iter().eq(views));
        assert_eq!(reqs.get(1), Some(views[1]));
        assert_eq!(reqs.last(), Some(views[2]));
        assert_eq!(reqs.contents_len(), 3);
    }

    #[test]
    fn packing_limits_are_errors_not_wraps() {
        let mut reqs = Requests::default();
        let e = reqs.push(RequestView::read(0, 0, MAX_PAGES + 1)).unwrap_err();
        assert!(e.contains("1073741823"), "{e}");
        assert!(reqs.is_empty());
        assert_eq!(slab_offset(u32::MAX as usize, 1), Ok(u32::MAX));
        let e = slab_offset(u32::MAX as usize, 2).unwrap_err();
        assert!(e.contains("4294967296"), "{e}");
    }

    #[test]
    fn content_mismatch_is_rejected_and_rolled_back() {
        let mut reqs = Requests::default();
        let one = [ContentId(1)];
        let short = RequestView { at_ns: 0, kind: OpKind::Write, lpn: 0, pages: 2, contents: &one };
        assert!(reqs.push(short).unwrap_err().contains("carries 1 contents"));
        assert!(reqs.push_write(0, 0, 1, [ContentId(1), ContentId(2)]).is_err());
        assert!(reqs.push(RequestView { contents: &one, ..RequestView::read(0, 0, 1) }).is_err());
        assert!(reqs.is_empty() && reqs.contents_len() == 0);
    }

    fn packed(views: &[RequestView<'_>]) -> Requests {
        let mut reqs = Requests::default();
        for &r in views {
            reqs.push(r).unwrap();
        }
        reqs
    }

    #[test]
    fn trace_validation_catches_time_travel() {
        let reqs = packed(&[RequestView::read(10, 0, 1), RequestView::read(5, 0, 1)]);
        assert!(Trace::from_requests("x", 100, reqs).unwrap_err().contains("backwards"));
    }

    #[test]
    fn trace_validation_catches_overflow_extent() {
        let t = Trace::from_requests("x", 10, packed(&[RequestView::read(0, 8, 3)]));
        assert!(t.unwrap_err().contains("beyond logical space"));
        let wrapping = Trace::from_requests("x", 10, packed(&[RequestView::read(0, u64::MAX, 1)]));
        assert!(wrapping.unwrap_err().contains("beyond logical space"));
    }

    #[test]
    #[should_panic(expected = "invalid trace")]
    fn new_panics_on_invalid() {
        Trace::new("bad", 1, vec![Request::read(0, 0, 5)]);
    }

    #[test]
    #[should_panic(expected = "limit of 1073741823")]
    fn new_panics_naming_the_page_limit() {
        Trace::new("wide", 1 << 40, vec![Request::read(0, 0, MAX_PAGES + 1)]);
    }

    #[test]
    fn written_pages_counts_only_writes() {
        let t = Trace::new(
            "w",
            100,
            vec![
                Request::write(0, 0, vec![ContentId(1), ContentId(2)]),
                Request::read(1, 0, 50),
                Request::write(2, 10, vec![ContentId(3)]),
                Request::trim(3, 0, 20),
            ],
        );
        assert_eq!(t.written_pages(), 3);
    }
}
