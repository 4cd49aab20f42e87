//! Bytes per physical page of a *replayed* device.
//!
//! `ssd.rs` pins what a fresh device costs, but a fresh device has not yet
//! grown the table replay fills — the fingerprint index — so it misses
//! much of what a long run holds. This replays Web-vm at the paper's 0.95
//! footprint, as the benchmark's `gc_write_heavy` workload does, on an
//! eighth of its 1 GB device with an eighth of its requests (the same
//! shape, small enough for a debug test run), and pins
//! the whole device per physical page and the index per live entry. The
//! two "replayed eighth" rows of docs/PERFORMANCE.md's "Bytes per
//! physical page" table print what it measures, at their precision. It
//! also pins the inline size of the `Ssd` record itself.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::UllConfig;
use cagc_workloads::FiuWorkload;

#[test]
fn a_replayed_device_costs_what_its_tables_cost_per_physical_page() {
    let mut flash = UllConfig::scaled_gb(1);
    flash.blocks_per_plane /= 8;
    let footprint = (flash.logical_pages() as f64 * 0.95) as u64;
    let trace = FiuWorkload::WebVm.synth_config(footprint, 150_000 / 8, 7).generate();
    let mut ssd = Ssd::new(SsdConfig::paper(flash, Scheme::Cagc));
    ssd.replay(&trace);
    ssd.audit().expect("consistent after the replay");

    let index = ssd.fingerprint_index();
    let per_page = ssd.heap_bytes() as f64 / ssd.device().geometry().total_pages() as f64;
    let per_entry = index.heap_bytes() as f64 / index.len() as f64;
    // Measured: 15 471 live entries, 59.64 B per physical page (1.95 of
    // them the four latency histograms: their bucket windows and exact
    // tails) and 63.57 B per live entry — 32 768 cells of 8 B, 16 384
    // slab records of 32 B, the PPN map and the free list (the full 1 GB
    // device: 57.05 B per page, 124 k entries).
    assert!(per_page <= 59.7, "device: {per_page:.3} B per physical page");
    assert!(per_entry <= 63.6, "index: {per_entry:.3} B per live entry");

    let page = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PERFORMANCE.md");
    let page = std::fs::read_to_string(page).expect("read docs/PERFORMANCE.md");
    let printed: Vec<&str> = page
        .lines()
        .filter(|l| l.starts_with("| replayed eighth |"))
        .map(|l| l.split('|').nth(3).expect("a fault-free cell").trim())
        .collect();
    let [device, index] = printed[..] else { panic!("want two replayed rows: {printed:?}") };
    for (what, prose, value) in [("device", device, per_page), ("index", index, per_entry)] {
        let decimals = prose.split_once('.').map_or(0, |(_, frac)| frac.len());
        assert_eq!(prose, format!("{value:.decimals$}"), "{what}: PERFORMANCE.md says {prose}");
    }
}

/// `Ssd`'s inline record, pinned exactly: its speed moves with it. A
/// 16-byte larger `Histogram` (four sit inline) once cost `paper_grid` 7 %
/// of `req_per_s`, so a field that grows or moves this record is measured
/// on the benchmark before the pin moves. `Ssd::submit` reads these
/// inline fields on every command: `map` (the logical page count), `dev`
/// (the crash flag), `tracer` (host-op sampling), `cfg.idle_gc`, `tctx`,
/// `gc_active_until`, the four latency histograms `lat_read`,
/// `lat_write`, `lat_trim` and `lat_during_gc`, and `end_ns`.
#[test]
fn an_ssd_is_2640_bytes_inline() {
    assert_eq!(std::mem::size_of::<Ssd>(), 2640);
}
