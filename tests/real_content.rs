//! Validates the ContentId abstraction against real bytes.
//!
//! The simulator represents page contents as opaque 64-bit identities and
//! fingerprints them by an injective mix of the id
//! (`Fingerprint::of_content`). These tests confirm that nothing is lost
//! by the abstraction: expanding ids to real payloads and running the
//! actual SHA-1 data path produces exactly the same duplicate
//! structure, so every dedup decision the simulator makes is the decision
//! a real-content FTL would make.

use cagc::dedup::{ContentId, Fingerprint};
use cagc::prelude::*;
use cagc_harness::pool::map_ordered_dynamic_chunked;
use std::collections::HashMap;

#[test]
fn byte_level_fingerprints_induce_the_same_duplicate_structure() {
    // A duplicate-heavy trace: many requests share ContentIds.
    let trace = FiuWorkload::Mail.synth_config(40_000, 30_000, 13).generate();
    let contents: Vec<ContentId> =
        trace.requests.iter().flat_map(|r| r.contents.iter().copied()).collect();
    assert!(contents.len() >= 100_000, "only {} contents", contents.len());

    // Real data path: expand every content to bytes and SHA-1 them on the
    // worker pool, a batch at a time, each worker claiming runs of pages.
    // 512-byte sectors here: which contents are equal does not depend on
    // the payload length, and 100 k 4 KiB SHA-1s take 20 s unoptimised
    // (the test below hashes whole pages).
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let byte_fps: Vec<Fingerprint> = contents
        .chunks(4096)
        .flat_map(|batch| {
            let payloads: Vec<Vec<u8>> = batch.iter().map(|c| c.synth_bytes(512)).collect();
            let run = payloads.len().div_ceil(4 * workers);
            map_ordered_dynamic_chunked(&payloads, workers, run, |p| Fingerprint::of_bytes(p))
        })
        .collect();

    // Simulator path: fingerprint of the content id.
    let id_fps: Vec<Fingerprint> =
        contents.iter().map(|&c| Fingerprint::of_content(c)).collect();

    // The two fingerprint streams must induce identical equality classes.
    let mut byte_class: HashMap<Fingerprint, usize> = HashMap::new();
    let mut id_class: HashMap<Fingerprint, usize> = HashMap::new();
    let mut byte_labels = Vec::new();
    let mut id_labels = Vec::new();
    for (bf, idf) in byte_fps.iter().zip(&id_fps) {
        let next = byte_class.len();
        byte_labels.push(*byte_class.entry(*bf).or_insert(next));
        let next = id_class.len();
        id_labels.push(*id_class.entry(*idf).or_insert(next));
    }
    assert_eq!(byte_labels, id_labels, "duplicate structure diverged");
    // And there really are duplicates to find (Mail is ~89% redundant).
    assert!(byte_class.len() * 2 < contents.len());
}

#[test]
fn simulator_dedup_hits_match_byte_level_ground_truth() {
    // Replay under Inline-Dedupe and independently count, from the raw
    // bytes, how many written pages were duplicates of an earlier page.
    let flash = UllConfig::tiny_for_tests();
    let trace = FiuWorkload::WebVm
        .synth_config((flash.logical_pages() as f64 * 0.3) as u64, 1_200, 17)
        .generate();

    let mut ssd = Ssd::new(SsdConfig::tiny(Scheme::InlineDedup));
    let report = ssd.replay(&trace);

    // Ground truth on real bytes: a page is a duplicate if its byte-level
    // fingerprint was seen before (matching inline dedup's view, which
    // also counts re-writes of content whose stored copy is still live).
    // The simulator's "index hits" additionally count overwrites with
    // identical content and misses content whose copy died — so compare
    // the *unique stored page* count instead, which must be exact while
    // nothing has been released: first-run uniques == distinct fingerprints
    // seen, as long as every content stays referenced.
    let mut seen = std::collections::HashSet::new();
    let mut unique_pages = 0u64;
    for r in trace.requests.iter().filter(|r| r.kind == OpKind::Write) {
        for c in r.contents {
            if seen.insert(Fingerprint::of_bytes(&c.synth_bytes(4096))) {
                unique_pages += 1;
            }
        }
    }
    // Inline programs once per first sighting; re-programs only occur after
    // a content's last reference dies, so programs >= unique and every
    // program registered a fingerprint insert.
    assert!(report.user_programs >= unique_pages);
    assert_eq!(report.user_programs, report.index.inserts);
    // With this footprint and volume, overwrite churn is mild: programs
    // should stay close to the byte-level unique count.
    assert!(
        report.user_programs <= unique_pages + unique_pages / 3,
        "programs {} far above byte-level uniques {}",
        report.user_programs,
        unique_pages
    );
}
