//! Trace characteristics analyzer (regenerates Table II from any trace).

use crate::trace::{OpKind, Trace};
use std::collections::HashSet;

/// Aggregate characteristics of a trace, in Table II's terms.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Workload name.
    pub name: String,
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Trim requests.
    pub trims: u64,
    /// writes / (reads + writes) — Table II "Write Ratio".
    pub write_ratio: f64,
    /// Fraction of written pages whose content appeared earlier in the
    /// trace — Table II "Dedup. Ratio".
    pub dedup_ratio: f64,
    /// Mean request size in KB (4 KB pages) — Table II "Aver. Req. Size".
    pub mean_req_kb: f64,
    /// Total pages written.
    pub written_pages: u64,
    /// Distinct contents observed.
    pub unique_contents: u64,
}

impl TraceProfile {
    /// Analyze `trace` (single pass).
    pub fn of(trace: &Trace) -> Self {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut trims = 0u64;
        let mut total_pages = 0u64;
        let mut written_pages = 0u64;
        let mut dup_pages = 0u64;
        let mut seen = HashSet::new();

        for r in &trace.requests {
            total_pages += r.pages as u64;
            match r.kind {
                OpKind::Read => reads += 1,
                OpKind::Trim => trims += 1,
                OpKind::Write => {
                    writes += 1;
                    written_pages += r.pages as u64;
                    for c in r.contents {
                        if !seen.insert(*c) {
                            dup_pages += 1;
                        }
                    }
                }
            }
        }
        let rw = reads + writes;
        Self {
            name: trace.name.clone(),
            reads,
            writes,
            trims,
            write_ratio: if rw == 0 { 0.0 } else { writes as f64 / rw as f64 },
            dedup_ratio: if written_pages == 0 {
                0.0
            } else {
                dup_pages as f64 / written_pages as f64
            },
            mean_req_kb: if trace.requests.is_empty() {
                0.0
            } else {
                total_pages as f64 * 4.0 / trace.requests.len() as f64
            },
            written_pages,
            unique_contents: seen.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Request;
    use cagc_dedup::ContentId;

    #[test]
    fn profile_of_hand_built_trace() {
        let t = Trace::new(
            "t",
            100,
            vec![
                Request::write(0, 0, vec![ContentId(1), ContentId(2)]),
                Request::write(1, 2, vec![ContentId(1)]), // duplicate page
                Request::read(2, 0, 1),
                Request::trim(3, 0, 4),
            ],
        );
        let p = TraceProfile::of(&t);
        assert_eq!(p.reads, 1);
        assert_eq!(p.writes, 2);
        assert_eq!(p.trims, 1);
        assert!((p.write_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.dedup_ratio - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.written_pages, 3);
        assert_eq!(p.unique_contents, 2);
        // (2 + 1 + 1 + 4) pages * 4KB / 4 requests = 8KB
        assert!((p.mean_req_kb - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_profile_is_zeroes() {
        let p = TraceProfile::of(&Trace::new("e", 10, vec![]));
        assert_eq!(p.write_ratio, 0.0);
        assert_eq!(p.dedup_ratio, 0.0);
        assert_eq!(p.mean_req_kb, 0.0);
    }

    #[test]
    fn all_duplicate_trace_has_high_ratio() {
        let reqs = (0..100)
            .map(|i| Request::write(i, 0, vec![ContentId(7)]))
            .collect();
        let p = TraceProfile::of(&Trace::new("dup", 10, reqs));
        assert!((p.dedup_ratio - 0.99).abs() < 1e-12);
        assert_eq!(p.unique_contents, 1);
    }
}
