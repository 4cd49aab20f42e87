//! The packed trace arena against the owned requests it is built from:
//! packing loses nothing a reader can see, and it costs what it says.

use cagc_dedup::ContentId;
use cagc_flash::UllConfig;
use cagc_harness::prop::{harness_proptest, prop_assert, prop_assert_eq, vec, Strategy};
use cagc_sim::SimRng;
use cagc_workloads::{
    inject_trims, interleave_n, parse_fiu, scale_rate, write_native, FiuWorkload, OpKind, Request,
    Trace, TraceProfile,
};
use std::collections::HashSet;

/// The native format rendered straight from owned requests.
fn render(requests: &[Request]) -> String {
    let mut out = String::from("# time_us op lpn pages [contents]\n");
    for r in requests {
        let t = r.at_ns / 1_000;
        match r.kind {
            OpKind::Read => out.push_str(&format!("{t} R {} {}\n", r.lpn, r.pages)),
            OpKind::Trim => out.push_str(&format!("{t} T {} {}\n", r.lpn, r.pages)),
            OpKind::Write => {
                let ids: Vec<String> = r.contents.iter().map(|c| c.0.to_string()).collect();
                out.push_str(&format!("{t} W {} {} {}\n", r.lpn, r.pages, ids.join(",")));
            }
        }
    }
    out
}

/// Table II's characteristics folded straight from owned requests.
fn profile(name: &str, requests: &[Request]) -> TraceProfile {
    let (mut reads, mut writes, mut trims, mut pages, mut written, mut dup) = (0, 0, 0, 0, 0, 0);
    let mut seen = HashSet::new();
    for r in requests {
        pages += u64::from(r.pages);
        match r.kind {
            OpKind::Read => reads += 1,
            OpKind::Trim => trims += 1,
            OpKind::Write => {
                writes += 1;
                written += u64::from(r.pages);
                dup += r.contents.iter().filter(|&&c| !seen.insert(c)).count() as u64;
            }
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    TraceProfile {
        name: name.into(),
        reads,
        writes,
        trims,
        write_ratio: ratio(writes, reads + writes),
        dedup_ratio: ratio(dup, written),
        mean_req_kb: if requests.is_empty() {
            0.0
        } else {
            pages as f64 * 4.0 / requests.len() as f64
        },
        written_pages: written,
        unique_contents: seen.len() as u64,
    }
}

harness_proptest! {
    #![config(cases = 256)]
    /// Random reads, writes and trims of 1–64 pages, contents drawn from a
    /// small pool so they repeat, arrivals nondecreasing (ties included):
    /// the packed trace yields the same views by `iter()` and by `get(i)`,
    /// renders the same native text and profiles the same.
    #[test]
    fn packing_preserves_every_view_the_text_and_the_profile(
        ops in vec((0u8..3, 1u32..65, 0u64..2_000, 0u64..3, 0u64..12), 0..60),
    ) {
        let mut at = 0;
        let requests: Vec<Request> = ops
            .iter()
            .map(|&(kind, pages, lpn, gap, content)| {
                at += gap * 1_000;
                match kind {
                    0 => Request::read(at, lpn, pages),
                    1 => Request::write(at, lpn, (0..u64::from(pages)).map(|p| ContentId((content + p) % 12)).collect()),
                    _ => Request::trim(at, lpn, pages),
                }
            })
            .collect();
        let trace = Trace::new("prop", 2_064, requests.clone());

        prop_assert_eq!(trace.len(), requests.len());
        prop_assert!(trace.requests.iter().eq(requests.iter().map(Request::view)));
        for (i, r) in requests.iter().enumerate() {
            prop_assert_eq!(trace.requests.get(i), Some(r.view()));
        }
        prop_assert_eq!(trace.requests.get(requests.len()), None);
        prop_assert_eq!(trace.requests.first(), requests.first().map(Request::view));
        prop_assert_eq!(trace.requests.last(), requests.last().map(Request::view));
        prop_assert_eq!(write_native(&trace), render(&requests));
        prop_assert_eq!(TraceProfile::of(&trace), profile("prop", &requests));
    }
}

/// Owned requests whose arrival gaps reach six seconds, so a 60-request
/// case crosses a 2³² ns (≈ 4.29 s) boundary dozens of times, and whose
/// LPNs on a 2³⁴-page space are small (half the draws), within ±4 096 of
/// 2³², or past 2³³. Every change of a high half opens a run.
fn wide(ops: &[(u8, u32, u8, u64, u64, u64)]) -> Vec<Request> {
    let mut at = 0;
    ops.iter()
        .map(|&(kind, pages, class, off, gap_ms, content)| {
            at += gap_ms * 1_000_000;
            let lpn = match class {
                0 | 1 => off % 2_000,
                2 => (1 << 32) - 4_096 + off,
                _ => (1 << 33) + off * 1_000_003,
            };
            match kind {
                0 => Request::read(at, lpn, pages),
                1 => Request::write(at, lpn, (0..u64::from(pages)).map(|p| ContentId((content + p) % 12)).collect()),
                _ => Request::trim(at, lpn, pages),
            }
        })
        .collect()
}

/// The strategy [`wide`] draws from.
fn wide_ops() -> impl Strategy<Value = Vec<(u8, u32, u8, u64, u64, u64)>> {
    vec((0u8..3, 1u32..65, 0u8..4, 0u64..8_193, 0u64..6_000, 0u64..12), 0..60)
}

/// The logical space of [`wide`]'s traces.
const WIDE: u64 = 1 << 34;

/// `inject_trims` applied to owned requests: each chosen write is followed
/// by a trim at the arrival `delay` requests later, merged by a stable
/// sort so an original precedes a trim that arrives with it.
fn trims_of(requests: &[Request], fraction: f64, delay: usize, seed: u64) -> Vec<Request> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7219_6D5F);
    let last_at = requests.last().map_or(0, |r| r.at_ns);
    let mut out = requests.to_vec();
    for (i, r) in requests.iter().enumerate() {
        if r.kind == OpKind::Write && rng.gen_bool(fraction) {
            let at = requests.get(i + delay).map_or(last_at, |l| l.at_ns);
            out.push(Request::trim(at, r.lpn, r.pages));
        }
    }
    out.sort_by_key(|r| r.at_ns);
    out
}

/// The FIU-style line for an owned read or write at raw timestamp `ts`,
/// its hash the first content id (so equal hashes repeat).
fn fiu_line(ts: u64, r: &Request) -> String {
    let (op, hash) = match r.kind {
        OpKind::Write => ("W", r.contents[0].0),
        _ => ("R", 0),
    };
    format!("{ts} 1 p {} {} {op} 8 1 {hash}", r.lpn * 8, u64::from(r.pages) * 8)
}

harness_proptest! {
    #![config(cases = 256)]
    /// Requests whose arrivals and LPNs cross their 2³² boundaries, often
    /// back and forth: every reader, every transform and the FIU parser
    /// agree with the same work done on the owned requests.
    #[test]
    fn run_boundaries_lose_nothing_in_any_reader_or_transform(
        ops_a in wide_ops(),
        ops_b in wide_ops(),
        shuffle in 0u64..u64::MAX,
    ) {
        let (a, b) = (wide(&ops_a), wide(&ops_b));
        let trace = Trace::new("a", WIDE, a.clone());
        prop_assert!(trace.requests.iter().eq(a.iter().map(Request::view)));
        for (i, r) in a.iter().enumerate() {
            prop_assert_eq!(trace.requests.get(i), Some(r.view()));
        }
        prop_assert_eq!(trace.requests.get(a.len()), None);
        prop_assert_eq!(trace.requests.first(), a.first().map(Request::view));
        prop_assert_eq!(trace.requests.last(), a.last().map(Request::view));

        for factor in [0.5, 3.0] {
            let scaled = scale_rate(trace.clone(), factor);
            let want: Vec<Request> = a
                .iter()
                .map(|r| Request { at_ns: (r.at_ns as f64 * factor) as u64, ..r.clone() })
                .collect();
            prop_assert_eq!(&scaled.requests, &Trace::new("want", WIDE, want.clone()).requests);
            for (i, r) in want.iter().enumerate() {
                prop_assert_eq!(scaled.requests.get(i), Some(r.view()));
            }
            prop_assert_eq!(scaled.requests.last(), want.last().map(Request::view));
        }

        let trimmed = inject_trims(&trace, 0.5, 3, shuffle);
        let want = Trace::new("want", WIDE, trims_of(&a, 0.5, 3, shuffle));
        prop_assert_eq!(&trimmed.requests, &want.requests);

        let other = Trace::new("b", WIDE, b.clone());
        let merged = interleave_n(&[&trace, &other]);
        let mut want: Vec<Request> = a.clone();
        want.extend(b.iter().map(|r| Request { lpn: r.lpn + WIDE, ..r.clone() }));
        want.sort_by_key(|r| r.at_ns);
        let want = Trace::new("want", 2 * WIDE, want);
        prop_assert_eq!(&merged.requests, &want.requests);
        for (i, r) in want.requests.iter().enumerate() {
            prop_assert_eq!(merged.requests.get(i), Some(r));
        }

        // Raw timestamps straddle 2³² ns; the lines arrive shuffled.
        let base = (1 << 32) - 1_000_000_000;
        let mut lines: Vec<(u64, &Request)> =
            a.iter().filter(|r| r.kind != OpKind::Trim).map(|r| (base + r.at_ns, r)).collect();
        let mut rng = SimRng::seed_from_u64(shuffle);
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range_usize(0..i + 1));
        }
        let text: String = lines.iter().map(|&(ts, r)| fiu_line(ts, r) + "\n").collect();
        let parsed = parse_fiu("fiu", WIDE, &text).unwrap();
        lines.sort_by_key(|&(ts, _)| ts);
        let t0 = lines.first().map_or(0, |&(ts, _)| ts);
        prop_assert_eq!(parsed.len(), lines.len());
        for (i, (p, &(ts, r))) in parsed.requests.iter().zip(&lines).enumerate() {
            prop_assert_eq!((p.at_ns, p.kind, p.lpn, p.pages), (ts - t0, r.kind, r.lpn, r.pages));
            prop_assert_eq!(parsed.requests.get(i), Some(p));
            for (q, &(_, s)) in parsed.requests.iter().zip(&lines) {
                if p.kind == OpKind::Write && q.kind == OpKind::Write {
                    prop_assert_eq!(p.contents[0] == q.contents[0], r.contents[0] == s.contents[0]);
                }
            }
        }
    }
}

/// What the `read_mostly` benchmark workload's trace costs: 16 B per
/// request plus 8 B per content id plus at most 4 KiB of run table, where
/// an owned `Request` took 48 B plus an allocation per write. Its LPNs all
/// sit below 2³², so a run opens only where an arrival crosses a 2³² ns
/// boundary.
#[test]
fn read_mostly_trace_costs_16_bytes_a_request_plus_8_a_content_id() {
    let footprint = (UllConfig::scaled_gb(1).logical_pages() as f64 * 0.60) as u64;
    let mut cfg = FiuWorkload::Homes.synth_config(footprint, 2_400_000, 7);
    cfg.write_ratio = 0.02;
    cfg.trim_ratio = 0.0;
    let trace = cfg.generate();
    let (requests, contents) = (trace.len(), trace.written_pages() as usize);
    assert!(requests > 2_400_000, "{requests} requests");
    let run_table = trace.heap_bytes().checked_sub(16 * requests + 8 * contents).unwrap_or_else(|| {
        panic!("{} bytes for {requests} requests and {contents} content ids", trace.heap_bytes())
    });
    assert!(run_table <= 4 << 10, "{run_table} bytes of run table");
    // A run-table entry is 16 bytes.
    let span = trace.requests.last().unwrap().at_ns - trace.requests.first().unwrap().at_ns;
    assert!(run_table / 16 <= (span >> 32) as usize + 1, "{} runs over {span} ns", run_table / 16);
}
