//! Trace composition: merge tenants, rescale arrivals, inject trims.
//!
//! Evaluation studies routinely need composed workloads — tenants
//! interleaved on one device, the same trace at twice the arrival rate, a
//! trim-intensified variant of a trim-free trace. These operators build
//! such variants from existing traces while preserving validity
//! (time-ordering, extent bounds).

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::trace::{Iter, OpKind, RequestView, Requests, Trace};

/// The one k-way tenant merge: yields `(tenant index, request)` over every
/// request of `tenants`, ordered by arrival time with ties broken by tenant
/// index then FIFO within a tenant. Tenant `i`'s LPNs are rebased past the
/// combined space of tenants `0..i`, so no two tenants ever collide.
/// Nothing is copied: the views borrow the tenants' contents, and the
/// state is one cursor per tenant with requests left plus a heap of those
/// cursors keyed by their next arrival.
pub fn merge<'a>(tenants: &[&'a Trace]) -> Merge<'a> {
    let mut cursors = Vec::with_capacity(tenants.len());
    let mut heap = BinaryHeap::with_capacity(tenants.len());
    let mut offset = 0u64;
    for (tenant, t) in tenants.iter().enumerate() {
        let mut requests = t.requests.iter();
        if let Some(head) = requests.next() {
            // Cursors are numbered in tenant order, so a heap keyed
            // (arrival, cursor) breaks ties by tenant index; each tenant
            // trace is time-ordered, so the order is globally stable.
            heap.push(Reverse((head.at_ns, cursors.len())));
            cursors.push(Cursor { tenant, offset, head, requests });
        }
        offset += t.logical_pages;
    }
    let left = tenants.iter().map(|t| t.len()).sum();
    Merge { cursors, heap, left }
}

/// One tenant's place in a [`Merge`].
#[derive(Debug, Clone)]
struct Cursor<'a> {
    tenant: usize,
    /// Where the tenant's namespace starts.
    offset: u64,
    /// The tenant's next request to yield.
    head: RequestView<'a>,
    /// The requests after `head`.
    requests: Iter<'a>,
}

/// The iterator [`merge`] returns.
#[derive(Debug, Clone)]
pub struct Merge<'a> {
    cursors: Vec<Cursor<'a>>,
    /// `(head arrival, cursor)` for every cursor with requests left.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Requests not yet yielded.
    left: usize,
}

impl<'a> Iterator for Merge<'a> {
    type Item = (usize, RequestView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        // Rekey the top in place (one sift on drop) rather than pop + push.
        let mut top = self.heap.peek_mut()?;
        let Reverse((_, k)) = *top;
        let c = &mut self.cursors[k];
        let r = c.head;
        match c.requests.next() {
            Some(following) => {
                c.head = following;
                *top = Reverse((following.at_ns, k));
            }
            None => {
                PeekMut::pop(top);
            }
        }
        self.left -= 1;
        Some((c.tenant, RequestView { lpn: r.lpn + c.offset, ..r }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Merge<'_> {}

/// Materialise [`merge`] as one trace over the tenants' combined namespace.
///
/// # Panics
/// Panics on an empty tenant list.
pub fn interleave_n(tenants: &[&Trace]) -> Trace {
    assert!(!tenants.is_empty(), "interleave_n needs at least one tenant");
    let merged = merge(tenants);
    let contents = tenants.iter().map(|t| t.requests.contents_len()).sum();
    let mut requests = Requests::with_capacity(merged.len(), contents);
    for (_, r) in merged {
        requests.push(r).unwrap_or_else(|e| panic!("interleave_n: {e}"));
    }
    let name = tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join("||");
    let total_pages = tenants.iter().map(|t| t.logical_pages).sum();
    Trace::from_requests(name, total_pages, requests)
        .unwrap_or_else(|e| panic!("interleave_n: {e}"))
}

/// Rescale arrival times by `factor` (2.0 = twice as slow, 0.5 = twice as
/// fast), in place. Useful for load sweeps on a fixed access pattern.
///
/// # Panics
/// Panics on non-positive factors.
pub fn scale_rate(mut t: Trace, factor: f64) -> Trace {
    assert!(factor > 0.0, "rate factor must be positive");
    // Scaling by a positive factor is monotone, so the trace stays
    // time-ordered and needs no revalidation.
    t.requests.retime(|at| (at as f64 * factor) as u64);
    t.name = format!("{}x{factor}", t.name);
    t
}

/// Derive a trim-intensified variant of a trace: each write request is,
/// with probability `trim_fraction`, followed by a trim of the same extent
/// `delay_requests` arrivals later (at that later request's timestamp, so
/// time-ordering is preserved without inventing a clock). This models a
/// filesystem issuing discards for freed space some time after the data
/// stopped mattering — the knob behind Frankie-style trim/overprovisioning
/// sweeps on workloads whose generator has no trim stream of its own.
///
/// Selection is seeded and deterministic; `trim_fraction` of 0 returns an
/// identical-requests copy.
///
/// # Panics
/// Panics unless `trim_fraction` is within `[0, 1]`.
pub fn inject_trims(
    t: &Trace,
    trim_fraction: f64,
    delay_requests: usize,
    seed: u64,
) -> Trace {
    assert!(
        (0.0..=1.0).contains(&trim_fraction),
        "trim_fraction {trim_fraction} outside [0, 1]"
    );
    let mut rng = cagc_sim::SimRng::seed_from_u64(seed ^ 0x7219_6D5F);
    let last_at = t.requests.last().map_or(0, |r| r.at_ns);
    // Each trim takes the arrival of the request `later` names, which runs
    // `delay_requests` ahead of `r`, so the trims come out time-ordered too.
    let mut later = t.requests.iter().skip(delay_requests.max(1));
    let mut trims = Vec::new();
    for r in &t.requests {
        let later_at = later.next().map_or(last_at, |l| l.at_ns);
        if r.kind != OpKind::Write || !rng.gen_bool(trim_fraction) {
            continue;
        }
        trims.push(RequestView::trim(later_at, r.lpn, r.pages));
    }
    // Merge the two ordered streams; on equal arrivals the original
    // request goes first.
    let mut requests =
        Requests::with_capacity(t.len() + trims.len(), t.requests.contents_len());
    let mut trims = trims.into_iter().peekable();
    let fits = |pushed: Result<(), String>| pushed.expect("a valid trace's requests repack");
    for r in &t.requests {
        while let Some(trim) = trims.next_if(|trim| trim.at_ns < r.at_ns) {
            fits(requests.push(trim));
        }
        fits(requests.push(r));
    }
    trims.for_each(|trim| fits(requests.push(trim)));
    Trace::from_requests(format!("{}~trim{trim_fraction}", t.name), t.logical_pages, requests)
        .expect("injected trims keep the trace valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;
    use crate::trace::Request;
    use cagc_dedup::ContentId;

    fn small(seed: u64) -> Trace {
        SynthConfig {
            requests: 200,
            logical_pages: 1_000,
            prefill_fraction: 0.0,
            seed,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn interleave_separates_tenants() {
        let a = small(1);
        let b = small(2);
        let c = interleave_n(&[&a, &b]);
        assert_eq!(c.len(), a.len() + b.len());
        assert_eq!(c.logical_pages, 2_000);
        c.validate().unwrap();
        // The stream, not only its materialisation: same requests in the
        // same order, and it knows its own length.
        let stream = merge(&[&a, &b]);
        assert_eq!(stream.size_hint(), (c.len(), Some(c.len())));
        assert!(stream.map(|(_, r)| r).eq(c.requests.iter()));
        // Tenant B's extents all land in the upper half.
        assert_eq!(c.requests.iter().filter(|r| r.lpn >= 1_000).count(), b.len());
    }

    #[test]
    fn interleave_n_handles_simultaneous_arrivals_stably() {
        // All tenants fire at the same instants: ties must resolve in
        // tenant order then FIFO.
        let mk = |name: &str| {
            Trace::new(
                name,
                16,
                vec![
                    Request::write(100, 0, vec![ContentId(1)]),
                    Request::write(100, 1, vec![ContentId(2)]),
                    Request::read(200, 0, 1),
                ],
            )
        };
        let (a, b, c) = (mk("a"), mk("b"), mk("c"));
        let merged = interleave_n(&[&a, &b, &c]);
        // First three requests: the t=100 writes of a, a, then b.
        let lpns: Vec<u64> = merged.requests.iter().take(3).map(|r| r.lpn).collect();
        assert_eq!(lpns, [0, 1, 16]);
        // The stream attributes them so: per instant, tenants in index
        // order, each tenant's own requests FIFO, LPNs rebased by 16 each.
        let streamed: Vec<(usize, u64, u64)> =
            merge(&[&a, &b, &c]).map(|(i, r)| (i, r.at_ns, r.lpn)).collect();
        assert_eq!(
            streamed,
            [
                (0, 100, 0), (0, 100, 1), (1, 100, 16), (1, 100, 17), (2, 100, 32), (2, 100, 33),
                (0, 200, 0), (1, 200, 16), (2, 200, 32),
            ]
        );
    }

    #[test]
    fn merge_attributes_every_request_to_its_tenant() {
        let traces: Vec<Trace> = (1..=3).map(small).collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        // Each tagged request falls inside its tenant's namespace and
        // matches that tenant's FIFO order, and every request is tagged.
        let mut pos = vec![0usize; traces.len()];
        let offsets = [0, traces[0].logical_pages, traces[0].logical_pages + traces[1].logical_pages];
        for (i, r) in merge(&refs) {
            let orig = traces[i].requests.get(pos[i]).unwrap();
            assert_eq!(r, RequestView { lpn: orig.lpn + offsets[i], ..orig });
            pos[i] += 1;
        }
        assert!(pos.iter().zip(&traces).all(|(&n, t)| n == t.len()));
    }

    #[test]
    fn interleave_n_single_tenant_is_identity() {
        let a = small(5);
        let merged = interleave_n(&[&a]);
        assert_eq!(merged.name, a.name);
        assert_eq!(merged.requests, a.requests);
        assert_eq!(merged.logical_pages, a.logical_pages);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn interleave_n_rejects_empty_input() {
        interleave_n(&[]);
    }

    #[test]
    fn scale_rate_stretches_time() {
        let a = small(1);
        let slow = scale_rate(a.clone(), 2.0);
        slow.validate().unwrap();
        assert_eq!(
            slow.requests.last().unwrap().at_ns,
            (a.requests.last().unwrap().at_ns as f64 * 2.0) as u64
        );
        let fast = scale_rate(a.clone(), 0.25);
        fast.validate().unwrap();
        assert!(fast.requests.last().unwrap().at_ns < a.requests.last().unwrap().at_ns);
        // Only the clock moves: same extents, same contents, in order.
        assert!(fast.requests.iter().zip(&a.requests).all(|(f, r)| f == RequestView {
            at_ns: (r.at_ns as f64 * 0.25) as u64,
            ..r
        }));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        scale_rate(small(1), 0.0);
    }

    #[test]
    fn inject_trims_adds_deterministic_trims() {
        // Start from a trim-free trace so every trim in the result is ours.
        let a = SynthConfig {
            requests: 200,
            logical_pages: 1_000,
            prefill_fraction: 0.0,
            trim_ratio: 0.0,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let writes = a.requests.iter().filter(|r| r.kind == OpKind::Write).count();
        let t1 = inject_trims(&a, 0.5, 8, 42);
        let t2 = inject_trims(&a, 0.5, 8, 42);
        assert_eq!(t1.requests, t2.requests, "same seed, same trims");
        t1.validate().unwrap();
        let trims = t1.requests.iter().filter(|r| r.kind == OpKind::Trim).count();
        assert!(trims > 0, "a 50% fraction must add trims");
        assert!(trims <= writes);
        assert_eq!(t1.len(), a.len() + trims, "originals are all preserved");
        // Every injected trim covers the extent of some earlier write.
        for r in t1.requests.iter().filter(|r| r.kind == OpKind::Trim) {
            assert!(a
                .requests
                .iter()
                .any(|w| w.kind == OpKind::Write && w.lpn == r.lpn && w.pages == r.pages));
        }
    }

    #[test]
    fn inject_trims_zero_fraction_is_identity() {
        let a = small(6);
        let t = inject_trims(&a, 0.0, 4, 1);
        assert_eq!(t.requests, a.requests);
    }

    #[test]
    fn inject_trims_merges_as_a_stable_sort_of_originals_then_trims() {
        // The reference: append every injected trim after the originals,
        // then stable-sort by arrival (so an original precedes a trim
        // that arrives at the same instant).
        let a = small(3);
        let (fraction, delay, seed) = (0.5, 3, 9);
        let mut rng = cagc_sim::SimRng::seed_from_u64(seed ^ 0x7219_6D5F);
        let last_at = a.requests.last().unwrap().at_ns;
        let mut want: Vec<RequestView<'_>> = a.requests.iter().collect();
        for (i, r) in a.requests.iter().enumerate() {
            if r.kind == OpKind::Write && rng.gen_bool(fraction) {
                let at = a.requests.get(i + delay).map_or(last_at, |l| l.at_ns);
                want.push(RequestView::trim(at, r.lpn, r.pages));
            }
        }
        want.sort_by_key(|r| r.at_ns);
        assert!(inject_trims(&a, fraction, delay, seed).requests.iter().eq(want));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn inject_trims_rejects_bad_fraction() {
        inject_trims(&small(1), 1.5, 4, 0);
    }

    #[test]
    fn composition_preserves_content_semantics() {
        // Two tenants writing the same ContentId still deduplicate when
        // interleaved — content identity is global, as on a real device.
        let a = Trace::new(
            "a",
            10,
            vec![Request::write(0, 0, vec![ContentId(7)])],
        );
        let b = Trace::new(
            "b",
            10,
            vec![Request::write(5, 0, vec![ContentId(7)])],
        );
        let c = interleave_n(&[&a, &b]);
        let writes: Vec<_> =
            c.requests.iter().filter(|r| r.kind == OpKind::Write).collect();
        assert_eq!(writes[0].contents, writes[1].contents);
        assert_ne!(writes[0].lpn, writes[1].lpn);
    }
}
