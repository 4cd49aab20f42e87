//! Property-based tests for the simulation substrate.

use cagc_sim::event::EventQueue;
use cagc_sim::time::Nanos;
use cagc_sim::timeline::Timeline;
use cagc_harness::prop::*;

harness_proptest! {
    /// Events always pop in nondecreasing timestamp order, and ties preserve
    /// push (FIFO) order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut prev: Option<(Nanos, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(ev.at >= pt, "time went backwards");
                if ev.at == pt {
                    prop_assert!(ev.payload > pi, "FIFO violated on tie");
                }
            }
            prev = Some((ev.at, ev.payload));
        }
    }

    /// Popping a queue returns exactly the multiset of pushed payloads.
    #[test]
    fn event_queue_loses_nothing(times in vec(0u64..100, 0..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    }

    /// All events at one timestamp pop in exactly their push order — the
    /// FIFO tie-break is total, not merely pairwise.
    #[test]
    fn same_timestamp_events_pop_in_push_order(
        n in 1usize..300,
        t in 0u64..1_000,
    ) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(t, i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Interleaving scheduling with popping never reorders causally
    /// dependent events: an event scheduled *while handling* another (at a
    /// timestamp >= the handler's) always pops after it — even at zero
    /// delay, where only the FIFO tie-break separates parent and child.
    /// This is the property the host interface's doorbell/completion/irq
    /// event chains lean on.
    #[test]
    fn interleaved_schedule_pop_preserves_causal_order(
        delays in vec((0u64..300, 0u64..300), 1..100)
    ) {
        // Payload: (id, parent id). Each handled event schedules two
        // children at `now + d1` / `now + d2`; one event is handled per
        // script step, the rest drain at the end.
        let mut q = EventQueue::new();
        q.push(0, (0usize, usize::MAX));
        let mut next_id = 1usize;
        let mut parent_of: Vec<usize> = vec![usize::MAX];
        let mut pop_index: Vec<Option<usize>> = vec![None];
        let mut pops = 0usize;
        let mut now = 0u64;
        let handle = |ev: &cagc_sim::event::Event<(usize, usize)>,
                      now: &mut u64,
                      pops: &mut usize,
                      pop_index: &mut Vec<Option<usize>>|
         -> Result<(), TestCaseError> {
            if ev.at < *now {
                return Err(TestCaseError::fail("time went backwards"));
            }
            *now = ev.at;
            pop_index[ev.payload.0] = Some(*pops);
            *pops += 1;
            Ok(())
        };
        for &(d1, d2) in &delays {
            let ev = q.pop().expect("queue never runs dry while scheduling");
            handle(&ev, &mut now, &mut pops, &mut pop_index)?;
            let (id, at) = (ev.payload.0, ev.at);
            for d in [d1, d2] {
                q.push(at + d, (next_id, id));
                parent_of.push(id);
                pop_index.push(None);
                next_id += 1;
            }
        }
        while let Some(ev) = q.pop() {
            handle(&ev, &mut now, &mut pops, &mut pop_index)?;
        }
        for (child, &parent) in parent_of.iter().enumerate() {
            if parent == usize::MAX {
                continue;
            }
            let c = pop_index[child].expect("every scheduled event pops");
            let p = pop_index[parent].expect("parents popped before scheduling");
            prop_assert!(
                c > p,
                "child {child} (pop #{c}) overtook its parent {parent} (pop #{p})"
            );
        }
    }

    /// Timeline invariants: service is in-order and non-overlapping, every
    /// reservation starts no earlier than requested, and total busy time is
    /// the sum of durations.
    #[test]
    fn timeline_reservations_never_overlap(
        ops in vec((0u64..10_000, 1u64..500), 1..200)
    ) {
        let mut t = Timeline::new();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for &(ready, dur) in &ops {
            let r = t.reserve(ready, dur);
            prop_assert!(r.start >= ready);
            prop_assert!(r.start >= prev_end, "overlapping service");
            prop_assert_eq!(r.end, r.start + dur);
            prop_assert_eq!(r.queued, r.start - ready);
            prev_end = r.end;
            total += dur;
        }
        prop_assert_eq!(t.busy_total(), total);
        prop_assert_eq!(t.next_free(), prev_end);
    }

    /// With monotone nondecreasing arrivals the queueing delay telescopes:
    /// completion of the k-th op equals max over prefixes of
    /// (arrival_i + sum of durations i..=k).
    #[test]
    fn timeline_matches_lindley_recurrence(
        ops in vec((0u64..1_000, 1u64..100), 1..100)
    ) {
        // Sort arrivals to form a valid arrival process.
        let mut arrivals: Vec<(u64, u64)> = ops;
        arrivals.sort_by_key(|&(a, _)| a);
        let mut t = Timeline::new();
        let mut lindley_end = 0u64; // Lindley: W_k = max(A_k, C_{k-1}) + S_k
        for &(a, s) in &arrivals {
            let r = t.reserve(a, s);
            lindley_end = a.max(lindley_end) + s;
            prop_assert_eq!(r.end, lindley_end);
        }
    }
}
