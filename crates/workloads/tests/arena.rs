//! The packed trace arena against the owned requests it is built from:
//! packing loses nothing a reader can see, and it costs what it says.

use cagc_dedup::ContentId;
use cagc_flash::UllConfig;
use cagc_harness::prop::{harness_proptest, prop_assert, prop_assert_eq, vec};
use cagc_workloads::{write_native, FiuWorkload, OpKind, Request, Trace, TraceProfile};
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

/// What the `read_mostly` benchmark workload's trace costs: at most 24 B
/// per request plus 8 B per content id, where an owned `Request` took 48 B
/// plus an allocation per write.
#[test]
fn read_mostly_trace_costs_24_bytes_a_request_plus_8_a_content_id() {
    let footprint = (UllConfig::scaled_gb(1).logical_pages() as f64 * 0.60) as u64;
    let mut cfg = FiuWorkload::Homes.synth_config(footprint, 2_400_000, 7);
    cfg.write_ratio = 0.02;
    cfg.trim_ratio = 0.0;
    let trace = cfg.generate();
    let (requests, contents) = (trace.len(), trace.written_pages() as usize);
    assert!(requests > 2_400_000, "{requests} requests");
    assert!(
        trace.heap_bytes() <= 24 * requests + 8 * contents,
        "{} bytes for {requests} requests and {contents} content ids",
        trace.heap_bytes()
    );
}
