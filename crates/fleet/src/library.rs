//! Shared tenant-trace storage: generate once, share everywhere.
//!
//! A fleet run replays the same tenant blends on many devices. Traces
//! are by far the largest allocation in a run (tens of MB each at
//! reporting scale), so the library interns them: each distinct
//! `(workload, pages, requests, seed, rate)` tuple is generated exactly
//! once and handed out as an [`Arc<Trace>`]. Fleet memory therefore
//! scales with the number of *distinct tenant variants*, not with
//! devices × trace size — the property `fleet::tests` asserts by
//! pointer identity. `run_fleet` generates a fleet's variants up front,
//! in parallel on the pool (`TraceLibrary::synthesize`);
//! [`TraceLibrary::get`] generates a missing one on the calling thread.

use std::sync::Arc;

use cagc_harness::pool::map_ordered;
use cagc_workloads::{mixer, FiuWorkload, Trace};

/// Interning key: every generator input that affects the trace bytes.
/// The rate factor is stored in millis so the key stays `Eq`-able.
pub(crate) type Key = (u8, u64, usize, u64, u64);

/// The generator inputs of one tenant trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Variant {
    pub(crate) workload: FiuWorkload,
    pub(crate) logical_pages: u64,
    pub(crate) requests: usize,
    pub(crate) seed: u64,
    pub(crate) rate_factor: f64,
}

impl Variant {
    /// The interning key; panics on a rate factor that is not positive.
    pub(crate) fn key(&self) -> Key {
        assert!(self.rate_factor > 0.0, "rate factor must be positive");
        let rate = (self.rate_factor * 1000.0).round() as u64;
        (self.workload as u8, self.logical_pages, self.requests, self.seed, rate)
    }

    fn generate(&self) -> Trace {
        let base =
            self.workload.synth_config(self.logical_pages, self.requests, self.seed).generate();
        if self.rate_factor == 1.0 {
            base
        } else {
            mixer::scale_rate(base, self.rate_factor)
        }
    }
}

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
        self.intern(Variant { workload, logical_pages, requests, seed, rate_factor })
    }

    /// [`Self::get`] for `v`.
    pub(crate) fn intern(&mut self, v: Variant) -> Arc<Trace> {
        let key = v.key();
        if let Some(t) = self.held(key) {
            return t;
        }
        let trace = Arc::new(v.generate());
        self.entries.push((key, Arc::clone(&trace)));
        trace
    }

    /// Generate every variant of `variants` the library does not hold yet,
    /// each once, on `workers` pool threads, and intern them in
    /// first-appearance order: what the library holds afterwards does
    /// not depend on the worker count, and [`Self::intern`] hands each
    /// out without generating.
    pub(crate) fn synthesize(
        &mut self,
        variants: impl IntoIterator<Item = Variant>,
        workers: usize,
    ) {
        let mut fresh: Vec<(Key, Variant)> = Vec::new();
        for v in variants {
            let key = v.key();
            if self.held(key).is_none() && fresh.iter().all(|(k, _)| *k != key) {
                fresh.push((key, v));
            }
        }
        let traces = map_ordered(&fresh, workers, |(_, v)| Arc::new(v.generate()));
        self.entries.extend(fresh.into_iter().map(|(key, _)| key).zip(traces));
    }

    fn held(&self, key: Key) -> Option<Arc<Trace>> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, t)| Arc::clone(t))
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
    fn synthesis_on_the_pool_interns_what_get_generates() {
        let variant = |workload, seed, rate_factor| Variant {
            workload,
            logical_pages: 2_000,
            requests: 50,
            seed,
            rate_factor,
        };
        let variants = [
            variant(FiuWorkload::Mail, 7, 1.0),
            variant(FiuWorkload::Homes, 7, 0.5),
            variant(FiuWorkload::Mail, 7, 1.0),
            variant(FiuWorkload::Mail, 8, 1.0),
        ];
        let mut serial = TraceLibrary::new();
        let want: Vec<Arc<Trace>> = variants.iter().map(|&v| serial.intern(v)).collect();
        for workers in [1, 3] {
            let mut lib = TraceLibrary::new();
            lib.intern(variants[1]);
            lib.synthesize(variants, workers);
            assert_eq!(lib.distinct(), serial.distinct(), "each variant once");
            let keys: Vec<Key> = lib.entries.iter().map(|(k, _)| *k).collect();
            let serial_keys: Vec<Key> = serial.entries.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys[1..], [serial_keys[0], serial_keys[2]], "first-appearance order");
            let held: Vec<Arc<Trace>> = variants.iter().map(|&v| lib.intern(v)).collect();
            assert_eq!(lib.distinct(), serial.distinct(), "interning found every variant");
            assert!(Arc::ptr_eq(&held[0], &held[2]), "one Arc per variant");
            for (got, want) in held.iter().zip(&want) {
                assert_eq!(**got, **want, "{workers} workers generated another trace");
            }
        }
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
