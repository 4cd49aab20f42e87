//! What a fleet report holds.
//!
//! A `DeviceReport` is a fixed-size record; its variable-size parts — the
//! tenant records (each with its latency distribution as a full
//! `Histogram`, so the fleet rollups merge exactly), the mix name, the
//! telemetry capture and the SLO ledgers — are shared allocations, one per
//! fleet cell. A finished report freezes each histogram: the exact tail
//! keeps the top `min(count, 1 024)` values at exactly that capacity.
//!
//! Every figure here counts each shared allocation once, by pointer. This
//! builds the benchmark's `fleet_fanout` shape — 96 tiny devices, all four
//! mixes of three tenants, 6 000 requests a tenant, four seed groups, seed
//! 7, so four cells — and pins the bytes of its 300 histograms (288 device
//! tenants plus 12 per-mix tenant rollups); then holds the heap of the
//! same fleet at 4 800 devices to that of 96; then pins the bytes a
//! fault-armed fleet's report holds per device, where every device is its
//! own cell. docs/FLEET.md, "What a report costs", prints these figures.

use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::Arc;

use cagc_core::Scheme;
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::report::{MixSummary, TenantSummary};
use cagc_fleet::{run_fleet, DeviceReport, FleetConfig, FleetReport, TenantMix, TenantReport};

/// Values a frozen exact tail keeps at most.
const TAIL_KEEP: u64 = 1_024;

fn fleet_fanout() -> FleetConfig {
    FleetConfig {
        devices: 96,
        mixes: TenantMix::all(),
        scheme: Scheme::Cagc,
        flash: UllConfig::tiny_for_tests(),
        requests_per_tenant: 6_000,
        footprint_frac: 0.90,
        seed: 7,
        seed_groups: 4,
        workers: 2,
        chunk: 1,
        host_queues: None,
        faults: FaultConfig::none(),
        gc_preempt: false,
        read_only_floor_blocks: None,
        telemetry: None,
        slo: None,
    }
}

/// A frozen histogram's tail holds `min(count, TAIL_KEEP)` values at
/// exactly that capacity.
fn assert_frozen(t: &TenantReport) {
    let h = &t.hist;
    assert!(h.is_frozen(), "{}: histogram not frozen", t.tenant);
    let tail = h.count().min(TAIL_KEEP) as usize * size_of::<u64>();
    assert_eq!(h.tail_bytes(), tail, "{}: {} values", t.tenant, h.count());
}

/// The bytes of an `Arc` allocation holding `payload` bytes: its two
/// reference counts, then the payload.
fn arc_bytes(payload: usize) -> usize {
    2 * size_of::<usize>() + payload
}

/// What a tenant record holds on the heap: its label and its histogram.
fn tenant_heap(t: &TenantReport) -> usize {
    t.tenant.capacity() + t.hist.heap_bytes()
}

/// What the shared parts of `d` hold: its mix name, and its tenant slice
/// with every record's label and histogram.
fn shared_bytes(d: &DeviceReport) -> (usize, usize) {
    assert!(d.obs.is_none() && d.slo.is_none());
    let tenants = arc_bytes(d.tenants.len() * size_of::<TenantReport>())
        + d.tenants.iter().map(tenant_heap).sum::<usize>();
    (arc_bytes(d.mix.len()), tenants)
}

/// The heap a fault-free report holds, split into its device column
/// (one fixed-size record a device) and everything else: each distinct
/// shared allocation once, by pointer, and the rollups.
fn report_heap(r: &FleetReport) -> (usize, usize) {
    let column = r.devices.capacity() * size_of::<DeviceReport>();
    let (mut mixes, mut slices) = (BTreeSet::new(), BTreeSet::new());
    let mut shared = 0;
    for d in &r.devices {
        let (mix, tenants) = shared_bytes(d);
        if mixes.insert(Arc::as_ptr(&d.mix) as *const u8) {
            shared += mix;
        }
        if slices.insert(Arc::as_ptr(&d.tenants) as *const u8) {
            shared += tenants;
        }
    }
    let by_mix = r.by_mix.capacity() * size_of::<MixSummary>()
        + r.by_mix.iter().map(|m| m.mix.capacity()).sum::<usize>();
    let by_tenant = r.by_tenant.capacity() * size_of::<TenantSummary>()
        + r.by_tenant.iter().map(|s| s.mix.capacity() + tenant_heap(&s.report)).sum::<usize>();
    (column, shared + by_mix + by_tenant)
}

#[test]
fn a_fleet_fanout_report_shares_its_300_histograms_as_24() {
    let report = run_fleet(&fleet_fanout());
    let mut tenants: Vec<&TenantReport> =
        report.devices.iter().flat_map(|d| d.tenants.iter()).collect();
    tenants.extend(report.by_tenant.iter().map(|t| &t.report));
    assert_eq!(tenants.len(), 300);
    tenants.iter().for_each(|t| assert_frozen(t));

    // Each distinct histogram once, by address: 4 cells x 3 tenants, and
    // the 12 rollups.
    let mut seen = BTreeSet::new();
    tenants.retain(|t| seen.insert(*t as *const TenantReport));
    assert_eq!(tenants.len(), 24);
    let bytes: Vec<usize> = tenants.iter().map(|t| t.hist.heap_bytes()).collect();
    let total: usize = bytes.iter().sum();
    // Measured: 324 096 B in all, 13 312 to 14 080 B each — a bucket
    // window of the 20-odd tiers a tenant's latencies reach, and a frozen
    // tail of 1 024 values (8 KiB). Cloned into every device, the 300 held
    // 4 051 200 B.
    assert!(total <= 324_096, "{total} B for 24 histograms");
    let (least, most) = (bytes.iter().min().unwrap(), bytes.iter().max().unwrap());
    assert!(*most <= 14_080, "one histogram holds {most} B (the least {least} B)");
    let inline = size_of::<TenantReport>();
    assert!(inline <= 160, "{inline} B inline");
}

#[test]
fn a_4800_device_report_holds_what_its_4_cells_hold_plus_a_record_a_device() {
    let (small, big) = (fleet_fanout(), FleetConfig { devices: 4_800, ..fleet_fanout() });
    assert_eq!(small.cells().len(), 4);
    assert_eq!(big.cells().len(), 4);
    let (small_column, small_rest) = report_heap(&run_fleet(&small));
    let (big_column, big_rest) = report_heap(&run_fleet(&big));
    // A device costs its record and nothing more.
    let record = size_of::<DeviceReport>();
    assert_eq!((small_column, big_column), (96 * record, 4_800 * record));
    assert!(record <= 264, "{record} B a device record");
    // Measured: 96 devices and 4 800 alike hold 330 123 B besides their
    // column of 264-byte records: the 4 cells' tenant records and the 12
    // rollups. Cloned into every device, the tenant records grew with the
    // fleet: 4 051 200 B of histograms at 96 devices.
    assert!(
        big_rest * 2 <= small_rest * 3,
        "4 800 devices hold {big_rest} B besides their column, 96 hold {small_rest} B"
    );
    assert!(small_rest <= 330_123, "{small_rest} B besides the column");
}

/// What one device's report holds: its record, its mix name, and its
/// tenant slice with each record's label and histogram.
fn device_bytes(d: &DeviceReport) -> usize {
    let (mix, tenants) = shared_bytes(d);
    size_of::<DeviceReport>() + mix + tenants
}

#[test]
fn a_fault_armed_report_holds_a_pinned_size_per_device() {
    // A never-reached crash arms every device: each is its own cell.
    let faults = FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() };
    let cfg = FleetConfig { devices: 12, faults, ..fleet_fanout() };
    assert_eq!(cfg.cells().len(), 12);
    let report = run_fleet(&cfg);
    for d in &report.devices {
        d.tenants.iter().for_each(assert_frozen);
        assert_eq!(Arc::strong_count(&d.tenants), 1, "device {}: one owner", d.device);
        assert_eq!(Arc::strong_count(&d.mix), 1, "device {}: one owner", d.device);
    }
    let bytes: Vec<usize> = report.devices.iter().map(device_bytes).collect();
    // Measured: 495 864 B for 12 devices, 41 322 B a device (40 744 to
    // 43 051 B each), of which its three histograms hold 39 936 to
    // 42 240 B and its record 264 B (360 B when the record held its
    // tenants, mix and scheme inline).
    let total: usize = bytes.iter().sum();
    assert!(total / 12 <= 41_322, "{} B a device: {bytes:?}", total / 12);
}
