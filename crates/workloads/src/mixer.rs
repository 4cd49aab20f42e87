//! Trace composition: concatenate, interleave, rescale and truncate traces.
//!
//! Evaluation studies routinely need composed workloads — a mail server
//! phase followed by a backup sweep, two tenants interleaved on one
//! device, the same trace at twice the arrival rate. These operators build
//! such variants from existing traces while preserving validity
//! (time-ordering, extent bounds).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::trace::{Request, RequestView, Trace};

/// Append `b` after `a`, shifting `b`'s timestamps to start `gap_ns` after
/// `a`'s last arrival. LPN spaces are unioned (max).
pub fn concat(a: &Trace, b: &Trace, gap_ns: u64) -> Trace {
    let offset = a.requests.last().map(|r| r.at_ns + gap_ns).unwrap_or(0);
    let mut requests = a.requests.clone();
    requests.extend(b.requests.iter().map(|r| Request { at_ns: r.at_ns + offset, ..r.clone() }));
    Trace::new(
        format!("{}+{}", a.name, b.name),
        a.logical_pages.max(b.logical_pages),
        requests,
    )
}

/// Merge two traces on a shared timeline (multi-tenant): `b`'s LPNs are
/// offset past `a`'s space so the tenants never collide. Wrapper over
/// [`interleave_n`].
pub fn interleave(a: &Trace, b: &Trace) -> Trace {
    interleave_n(&[a, b])
}

/// The one k-way tenant merge: yields `(tenant index, request)` over every
/// request of `tenants`, ordered by arrival time with ties broken by tenant
/// index then FIFO within a tenant — exactly the order a pairwise
/// [`interleave`] fold produces (verified in this module's tests). Tenant
/// `i`'s LPNs are rebased past the combined space of tenants `0..i`, so no
/// two tenants ever collide. Nothing is copied: the views borrow the
/// tenants' contents, and the state is one cursor per tenant plus a heap of
/// the tenants with requests left.
pub fn merge<'a>(tenants: &[&'a Trace]) -> Merge<'a> {
    let mut rest = Vec::with_capacity(tenants.len());
    let mut offset = 0u64;
    for t in tenants {
        rest.push((offset, t.requests.as_slice()));
        offset += t.logical_pages;
    }
    // Each tenant trace is already time-ordered, so a heap keyed
    // (arrival, tenant index) yields the globally stable order.
    let heap = tenants
        .iter()
        .enumerate()
        .filter_map(|(i, t)| Some(Reverse((t.requests.first()?.at_ns, i))))
        .collect();
    Merge { rest, heap }
}

/// The iterator [`merge`] returns.
#[derive(Debug, Clone)]
pub struct Merge<'a> {
    /// Per tenant: its namespace offset and the requests not yet yielded.
    rest: Vec<(u64, &'a [Request])>,
    /// `(next arrival, tenant)` for every tenant with requests left.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl<'a> Iterator for Merge<'a> {
    type Item = (usize, RequestView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, i)) = self.heap.pop()?;
        let (offset, rest) = &mut self.rest[i];
        let (r, tail) = rest.split_first().expect("the heap names only tenants with requests left");
        *rest = tail;
        if let Some(next) = tail.first() {
            self.heap.push(Reverse((next.at_ns, i)));
        }
        Some((i, RequestView { lpn: r.lpn + *offset, ..r.view() }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rest.iter().map(|(_, rest)| rest.len()).sum();
        (left, Some(left))
    }
}

/// Materialise [`merge`] as one trace over the tenants' combined namespace.
///
/// # Panics
/// Panics on an empty tenant list.
pub fn interleave_n(tenants: &[&Trace]) -> Trace {
    interleave_n_tagged(tenants).0
}

/// [`interleave_n`] plus per-request tenant attribution: the second
/// element tags each merged request with the index (into `tenants`) of
/// the trace it came from. The fleet's host mode uses the tags to account
/// per-command latency per tenant after replaying the merged trace.
///
/// # Panics
/// Panics on an empty tenant list.
pub fn interleave_n_tagged(tenants: &[&Trace]) -> (Trace, Vec<u32>) {
    assert!(!tenants.is_empty(), "interleave_n needs at least one tenant");
    let (tags, requests) = merge(tenants).map(|(i, r)| (i as u32, r.to_request())).unzip();
    let name = tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join("||");
    let total_pages = tenants.iter().map(|t| t.logical_pages).sum();
    (Trace::new(name, total_pages, requests), tags)
}

/// Rescale arrival times by `factor` (2.0 = twice as slow, 0.5 = twice as
/// fast). Useful for load sweeps on a fixed access pattern.
///
/// # Panics
/// Panics on non-positive factors.
pub fn scale_rate(t: &Trace, factor: f64) -> Trace {
    assert!(factor > 0.0, "rate factor must be positive");
    let requests = t
        .requests
        .iter()
        .map(|r| Request { at_ns: (r.at_ns as f64 * factor) as u64, ..r.clone() })
        .collect();
    Trace::new(format!("{}x{factor}", t.name), t.logical_pages, requests)
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
    let mut requests = t.requests.clone();
    let last_at = t.requests.last().map(|r| r.at_ns).unwrap_or(0);
    for (i, r) in t.requests.iter().enumerate() {
        if r.kind != crate::trace::OpKind::Write || !rng.gen_bool(trim_fraction) {
            continue;
        }
        let at = t
            .requests
            .get(i + delay_requests.max(1))
            .map(|later| later.at_ns)
            .unwrap_or(last_at);
        requests.push(Request::trim(at, r.lpn, r.pages));
    }
    requests.sort_by_key(|r| r.at_ns);
    Trace::new(
        format!("{}~trim{trim_fraction}", t.name),
        t.logical_pages,
        requests,
    )
}

/// Re-time a trace as an open-loop Poisson arrival process: request order
/// is preserved, but the gaps between consecutive arrivals are redrawn as
/// i.i.d. exponentials with the given mean. This turns any access pattern
/// into a memoryless arrival stream — the canonical open-loop driver for
/// queue-depth studies, where bursts must come from the *process*, not
/// from whatever clock the original generator used.
///
/// Seeded and deterministic: same inputs, same byte-identical trace.
///
/// # Panics
/// Panics if `mean_interarrival_ns` is zero.
pub fn retime_poisson(t: &Trace, mean_interarrival_ns: u64, seed: u64) -> Trace {
    assert!(mean_interarrival_ns > 0, "mean interarrival must be positive");
    let mut rng = cagc_sim::SimRng::seed_from_u64(seed ^ 0x9035_7A11);
    let mut at = 0u64;
    let requests = t
        .requests
        .iter()
        .map(|r| {
            // Inverse-CDF exponential; clamp the uniform away from 0 so the
            // log is finite. Gaps round to >= 1 ns, keeping arrivals
            // strictly increasing (FIFO ties never depend on the sort).
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            let gap = (-u.ln() * mean_interarrival_ns as f64).round().max(1.0) as u64;
            at += gap;
            Request { at_ns: at, ..r.clone() }
        })
        .collect();
    Trace::new(
        format!("{}@poisson{mean_interarrival_ns}", t.name),
        t.logical_pages,
        requests,
    )
}

/// Keep only the first `n` requests.
pub fn truncate(t: &Trace, n: usize) -> Trace {
    Trace::new(
        format!("{}[..{n}]", t.name),
        t.logical_pages,
        t.requests.iter().take(n).cloned().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;
    use crate::trace::OpKind;
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
    fn concat_preserves_order_and_counts() {
        let a = small(1);
        let b = small(2);
        let c = concat(&a, &b, 1_000_000);
        assert_eq!(c.len(), a.len() + b.len());
        c.validate().unwrap();
        // b's first request starts after a's last.
        let a_last = a.requests.last().unwrap().at_ns;
        assert!(c.requests[a.len()].at_ns >= a_last + 1_000_000);
    }

    #[test]
    fn concat_with_empty_prefix() {
        let empty = Trace::new("e", 10, vec![]);
        let b = small(3);
        let c = concat(&empty, &b, 500);
        assert_eq!(c.len(), b.len());
        c.validate().unwrap();
    }

    #[test]
    fn interleave_separates_tenants() {
        let a = small(1);
        let b = small(2);
        let c = interleave(&a, &b);
        assert_eq!(c.len(), a.len() + b.len());
        assert_eq!(c.logical_pages, 2_000);
        c.validate().unwrap();
        // Tenant B's extents all land in the upper half.
        let b_writes: Vec<&Request> =
            c.requests.iter().filter(|r| r.lpn >= 1_000).collect();
        assert_eq!(b_writes.len(), b.len());
    }

    #[test]
    fn interleave_n_equals_pairwise_fold() {
        // The contract the fleet relies on: one stable k-way pass is
        // byte-identical to folding the pairwise operator.
        let traces: Vec<Trace> = (1..=4).map(small).collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        for k in 1..=traces.len() {
            let folded = refs[1..k]
                .iter()
                .fold(traces[0].clone(), |acc, t| interleave(&acc, t));
            let merged = interleave_n(&refs[..k]);
            assert_eq!(merged.name, folded.name, "k={k}");
            assert_eq!(merged.logical_pages, folded.logical_pages, "k={k}");
            assert_eq!(merged.requests, folded.requests, "k={k}");
            merged.validate().unwrap();
            // The stream itself, not only its materialisation: same
            // requests in the same order, and it knows its own length.
            let stream = merge(&refs[..k]);
            assert_eq!(stream.size_hint(), (folded.len(), Some(folded.len())), "k={k}");
            assert!(stream.map(|(_, r)| r).eq(folded.requests.iter().map(Request::view)), "k={k}");
        }
    }

    #[test]
    fn interleave_n_handles_simultaneous_arrivals_stably() {
        // All tenants fire at the same instants: ties must resolve in
        // tenant order then FIFO, matching a stable pairwise sort.
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
        let folded = interleave(&interleave(&a, &b), &c);
        let merged = interleave_n(&[&a, &b, &c]);
        assert_eq!(merged.requests, folded.requests);
        // First three requests: the t=100 writes of a, a, then b.
        assert_eq!(merged.requests[0].lpn, 0);
        assert_eq!(merged.requests[1].lpn, 1);
        assert_eq!(merged.requests[2].lpn, 16);
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
    fn interleave_n_tags_attribute_every_request() {
        let traces: Vec<Trace> = (1..=3).map(small).collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let (merged, tags) = interleave_n_tagged(&refs);
        assert_eq!(tags.len(), merged.len());
        // Per-tenant request counts survive the merge...
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(tags.iter().filter(|&&g| g == i as u32).count(), t.len());
        }
        // ...and each tagged request falls inside its tenant's namespace
        // and matches that tenant's FIFO order.
        let mut pos = vec![0usize; traces.len()];
        let offsets = [0, traces[0].logical_pages, traces[0].logical_pages + traces[1].logical_pages];
        for (r, &tag) in merged.requests.iter().zip(&tags) {
            let i = tag as usize;
            let orig = &traces[i].requests[pos[i]];
            assert_eq!(r.lpn, orig.lpn + offsets[i]);
            assert_eq!(r.at_ns, orig.at_ns);
            assert_eq!(r.kind, orig.kind);
            pos[i] += 1;
        }
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
        let slow = scale_rate(&a, 2.0);
        slow.validate().unwrap();
        assert_eq!(
            slow.requests.last().unwrap().at_ns,
            (a.requests.last().unwrap().at_ns as f64 * 2.0) as u64
        );
        let fast = scale_rate(&a, 0.25);
        fast.validate().unwrap();
        assert!(fast.requests.last().unwrap().at_ns < a.requests.last().unwrap().at_ns);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        scale_rate(&small(1), 0.0);
    }

    #[test]
    fn truncate_takes_a_prefix() {
        let a = small(1);
        let t = truncate(&a, 50);
        assert_eq!(t.len(), 50);
        assert_eq!(t.requests[..], a.requests[..50]);
        assert_eq!(truncate(&a, 10_000).len(), a.len());
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
    #[should_panic(expected = "outside [0, 1]")]
    fn inject_trims_rejects_bad_fraction() {
        inject_trims(&small(1), 1.5, 4, 0);
    }

    #[test]
    fn retime_poisson_preserves_order_and_is_deterministic() {
        let a = small(8);
        let p1 = retime_poisson(&a, 50_000, 9);
        let p2 = retime_poisson(&a, 50_000, 9);
        assert_eq!(p1.requests, p2.requests, "same seed, same arrivals");
        p1.validate().unwrap();
        assert_eq!(p1.len(), a.len());
        // Only the clock changed: op sequence, extents and contents are
        // untouched, and arrivals are strictly increasing.
        for (orig, re) in a.requests.iter().zip(&p1.requests) {
            assert_eq!(orig.kind, re.kind);
            assert_eq!(orig.lpn, re.lpn);
            assert_eq!(orig.pages, re.pages);
            assert_eq!(orig.contents, re.contents);
        }
        for w in p1.requests.windows(2) {
            assert!(w[0].at_ns < w[1].at_ns);
        }
        // The realized mean gap lands near the requested mean.
        let span = p1.requests.last().unwrap().at_ns - p1.requests[0].at_ns;
        let mean = span as f64 / (p1.len() - 1) as f64;
        assert!((mean / 50_000.0 - 1.0).abs() < 0.25, "mean gap {mean} vs 50000");
    }

    #[test]
    fn retime_poisson_rate_scales_with_mean() {
        let a = small(9);
        let fast = retime_poisson(&a, 10_000, 3);
        let slow = retime_poisson(&a, 200_000, 3);
        assert!(fast.requests.last().unwrap().at_ns < slow.requests.last().unwrap().at_ns);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn retime_poisson_rejects_zero_mean() {
        retime_poisson(&small(1), 0, 1);
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
        let c = interleave(&a, &b);
        let writes: Vec<_> =
            c.requests.iter().filter(|r| r.kind == OpKind::Write).collect();
        assert_eq!(writes[0].contents, writes[1].contents);
        assert_ne!(writes[0].lpn, writes[1].lpn);
    }
}
