//! Shared tenant-trace storage: generate once, share everywhere.
//!
//! A fleet run replays the same tenant blends on many devices. Traces
//! are by far the largest allocation in a run (tens of MB each at
//! reporting scale), so the library interns them: each distinct
//! `(workload, pages, requests, seed, rate)` tuple is generated exactly
//! once and handed out as an [`Arc<Trace>`]. Fleet memory therefore
//! scales with the number of *distinct tenant variants*, not with
//! devices × trace size — the property `fleet::tests` asserts by
//! pointer identity.

use std::sync::Arc;

use cagc_workloads::{mixer, FiuWorkload, Trace};

/// Interning key: every generator input that affects the trace bytes.
/// The rate factor is stored in millis so the key stays `Eq`-able.
type Key = (u8, u64, usize, u64, u64);

/// Deduplicating store of generated tenant traces.
#[derive(Debug, Default)]
pub struct TraceLibrary {
    entries: Vec<(Key, Arc<Trace>)>,
}

impl TraceLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace for a tenant variant, generating it on first request.
    /// Same arguments, same `Arc` — callers clone the handle, never the
    /// trace.
    pub fn get(
        &mut self,
        workload: FiuWorkload,
        logical_pages: u64,
        requests: usize,
        seed: u64,
        rate_factor: f64,
    ) -> Arc<Trace> {
        assert!(rate_factor > 0.0, "rate factor must be positive");
        let key: Key =
            (workload as u8, logical_pages, requests, seed, (rate_factor * 1000.0).round() as u64);
        if let Some((_, t)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(t);
        }
        let base = workload.synth_config(logical_pages, requests, seed).generate();
        let trace = if rate_factor == 1.0 { base } else { mixer::scale_rate(base, rate_factor) };
        let trace = Arc::new(trace);
        self.entries.push((key, Arc::clone(&trace)));
        trace
    }

    /// Number of distinct traces generated so far.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_by_full_key() {
        let mut lib = TraceLibrary::new();
        let a = lib.get(FiuWorkload::Mail, 2_000, 50, 7, 1.0);
        let b = lib.get(FiuWorkload::Mail, 2_000, 50, 7, 1.0);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one trace");
        assert_eq!(lib.distinct(), 1);

        // Any key component change produces a distinct trace.
        let c = lib.get(FiuWorkload::Mail, 2_000, 50, 8, 1.0);
        let d = lib.get(FiuWorkload::Mail, 2_000, 50, 7, 0.5);
        let e = lib.get(FiuWorkload::Homes, 2_000, 50, 7, 1.0);
        assert!(!Arc::ptr_eq(&a, &c) && !Arc::ptr_eq(&a, &d) && !Arc::ptr_eq(&a, &e));
        assert_eq!(lib.distinct(), 4);
    }

    #[test]
    fn rate_factor_rescales_arrivals() {
        let mut lib = TraceLibrary::new();
        let native = lib.get(FiuWorkload::Homes, 2_000, 50, 7, 1.0);
        let fast = lib.get(FiuWorkload::Homes, 2_000, 50, 7, 0.5);
        let last = native.requests.last().unwrap().at_ns;
        let fast_last = fast.requests.last().unwrap().at_ns;
        assert!(fast_last < last, "0.5x factor must compress the timeline");
    }
}
