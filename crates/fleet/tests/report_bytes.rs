//! What a fleet report holds per tenant.
//!
//! Every `DeviceReport` keeps one `TenantReport` per tenant, and each of
//! those keeps its latency distribution as a full `Histogram`, so the
//! fleet rollups can merge across devices exactly. A finished report
//! freezes each of them: the exact tail keeps the top `min(count, 1 024)`
//! values at exactly that capacity. This builds the benchmark's
//! `fleet_fanout` shape — 96 tiny devices, all four mixes of three
//! tenants, 6 000 requests a tenant, four seed groups, seed 7 — and pins
//! the bytes of its 300 histograms (288 device tenants plus 12 per-mix
//! tenant rollups), then the bytes a fault-armed fleet's report holds per
//! device, where every device is its own cell; docs/FLEET.md, "What a
//! report costs", prints these figures.

use std::mem::size_of;

use cagc_core::Scheme;
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::{run_fleet, DeviceReport, FleetConfig, TenantMix, TenantReport};

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

#[test]
fn a_fleet_fanout_report_holds_its_300_histograms_in_3_87_mib() {
    let report = run_fleet(&fleet_fanout());
    let mut tenants: Vec<&TenantReport> = report.devices.iter().flat_map(|d| &d.tenants).collect();
    tenants.extend(report.by_tenant.iter().map(|t| &t.report));
    assert_eq!(tenants.len(), 300);
    tenants.iter().for_each(|t| assert_frozen(t));

    let bytes: Vec<usize> = tenants.iter().map(|t| t.hist.heap_bytes()).collect();
    let total: usize = bytes.iter().sum();
    // Measured: 4 051 200 B in all, 13 312 to 14 080 B each — a bucket
    // window of the 20-odd tiers a tenant's latencies reach, and a frozen
    // tail of 1 024 values (8 KiB). Unfrozen, the tails held up to 2 047
    // values: 4 759 296 B in all, up to 22 272 B each.
    assert!(total <= 4_051_200, "{total} B for 300 histograms");
    let (least, most) = (bytes.iter().min().unwrap(), bytes.iter().max().unwrap());
    assert!(*most <= 14_080, "one histogram holds {most} B (the least {least} B)");
    let inline = size_of::<TenantReport>();
    assert!(inline <= 160, "{inline} B inline");
}

/// What one device's report holds: its record, its strings, and each
/// tenant's record, label and histogram.
fn device_bytes(d: &DeviceReport) -> usize {
    assert!(d.obs.is_none() && d.slo.is_none());
    let tenants: usize = d.tenants.iter().map(|t| t.tenant.capacity() + t.hist.heap_bytes()).sum();
    size_of::<DeviceReport>()
        + d.mix.capacity()
        + d.scheme.capacity()
        + d.tenants.capacity() * size_of::<TenantReport>()
        + tenants
}

#[test]
fn a_fault_armed_report_holds_a_pinned_size_per_device() {
    // A never-reached crash arms every device: each is its own cell.
    let faults = FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() };
    let cfg = FleetConfig { devices: 12, faults, ..fleet_fanout() };
    assert_eq!(cfg.cells().len(), 12);
    let report = run_fleet(&cfg);
    report.devices.iter().flat_map(|d| &d.tenants).for_each(assert_frozen);
    let bytes: Vec<usize> = report.devices.iter().map(device_bytes).collect();
    // Measured: 496 680 B for 12 devices, 41 390 B a device (40 812 to
    // 43 119 B each), of which its three histograms hold 39 936 to
    // 42 240 B and its record 360 B.
    let total: usize = bytes.iter().sum();
    assert!(total / 12 <= 41_390, "{} B a device: {bytes:?}", total / 12);
}
