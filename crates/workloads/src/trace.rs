//! The trace model: timestamped page-granular I/O requests with content.
//!
//! Mirrors what the FIU SyLab traces provide (Sec. IV-A): each request has
//! an arrival time, an operation, a logical extent, and — for writes — a
//! content hash per page, which is what makes dedup studies possible
//! without the actual data.

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

/// One I/O request covering `pages` logical pages starting at `lpn`.
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

    /// Iterate the logical pages this request covers.
    pub fn lpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.view().lpns()
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

    /// Internal consistency: write ⇔ contents present and sized.
    pub fn validate(&self) -> Result<(), String> {
        if self.pages == 0 {
            return Err("zero-length request".into());
        }
        match self.kind {
            OpKind::Write if self.contents.len() != self.pages as usize => Err(format!(
                "write covers {} pages but carries {} contents",
                self.pages,
                self.contents.len()
            )),
            OpKind::Read | OpKind::Trim if !self.contents.is_empty() => {
                Err("non-write carries contents".into())
            }
            _ => Ok(()),
        }
    }
}

/// A [`Request`] with its contents borrowed: what a device is driven with
/// ([`Request::view`]). `Copy`, so a driver that issues a traced request at
/// another time or in another namespace restamps the field with a struct
/// update (`RequestView { at_ns, ..req.view() }`) and copies no content.
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
    /// Iterate the logical pages this request covers.
    pub fn lpns(self) -> std::ops::Range<u64> {
        self.lpn..self.lpn + u64::from(self.pages)
    }

    /// An owned copy.
    pub fn to_request(self) -> Request {
        Request {
            at_ns: self.at_ns,
            kind: self.kind,
            lpn: self.lpn,
            pages: self.pages,
            contents: self.contents.to_vec(),
        }
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
    pub requests: Vec<Request>,
}

impl Trace {
    /// Construct and validate: requests time-ordered, extents in range.
    pub fn new(name: impl Into<String>, logical_pages: u64, requests: Vec<Request>) -> Self {
        let t = Self { name: name.into(), logical_pages, requests };
        if let Err(e) = t.validate() {
            panic!("invalid trace `{}`: {e}", t.name);
        }
        t
    }

    /// Validation used by `new` and by the parser on untrusted input.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0;
        for (i, r) in self.requests.iter().enumerate() {
            r.validate().map_err(|e| format!("request {i}: {e}"))?;
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
        self.requests
            .iter()
            .filter(|r| r.kind == OpKind::Write)
            .map(|r| r.pages as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = Request::read(5, 10, 3);
        assert_eq!(r.lpns().collect::<Vec<_>>(), vec![10, 11, 12]);
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
    fn trace_validation_catches_time_travel() {
        let t = Trace {
            name: "x".into(),
            logical_pages: 100,
            requests: vec![Request::read(10, 0, 1), Request::read(5, 0, 1)],
        };
        assert!(t.validate().unwrap_err().contains("backwards"));
    }

    #[test]
    fn trace_validation_catches_overflow_extent() {
        let t = Trace {
            name: "x".into(),
            logical_pages: 10,
            requests: vec![Request::read(0, 8, 3)],
        };
        assert!(t.validate().unwrap_err().contains("beyond logical space"));
        let wrapping = Trace {
            name: "x".into(),
            logical_pages: 10,
            requests: vec![Request::read(0, u64::MAX, 1)],
        };
        assert!(wrapping.validate().unwrap_err().contains("beyond logical space"));
    }

    #[test]
    fn trace_validation_catches_content_mismatch() {
        let mut r = Request::write(0, 0, vec![ContentId(1)]);
        r.pages = 2; // corrupt
        let t = Trace { name: "x".into(), logical_pages: 10, requests: vec![r] };
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid trace")]
    fn new_panics_on_invalid() {
        Trace::new("bad", 1, vec![Request::read(0, 0, 5)]);
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
