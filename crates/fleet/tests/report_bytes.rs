//! What a fleet report holds per tenant.
//!
//! Every `DeviceReport` keeps one `TenantReport` per tenant, and each of
//! those keeps its latency distribution as a full `Histogram`, so the
//! fleet rollups can merge across devices exactly. This builds the
//! benchmark's `fleet_fanout` shape — 96 tiny devices, all four mixes of
//! three tenants, 6 000 requests a tenant, four seed groups, seed 7 — and
//! pins the bytes of its 300 histograms (288 device tenants plus 12
//! per-mix tenant rollups); docs/FLEET.md, "What a report costs", prints
//! these figures.

use cagc_core::Scheme;
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::{run_fleet, FleetConfig, TenantMix, TenantReport};

#[test]
fn a_fleet_fanout_report_holds_its_300_histograms_in_5_mib() {
    let cfg = FleetConfig {
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
    };
    let report = run_fleet(&cfg);
    let mut tenants: Vec<&TenantReport> = report.devices.iter().flat_map(|d| &d.tenants).collect();
    tenants.extend(report.by_tenant.iter().map(|t| &t.report));
    assert_eq!(tenants.len(), 300);

    let bytes: Vec<usize> = tenants.iter().map(|t| t.hist.heap_bytes()).collect();
    let total: usize = bytes.iter().sum();
    // Measured: 4 759 296 B in all, 13 312 to 22 272 B each — a bucket
    // window of the 20-odd tiers a tenant's latencies reach, and an exact
    // tail of up to 2 048 values (16 KiB).
    assert!(total <= 5 << 20, "{total} B for 300 histograms");
    let (least, most) = (bytes.iter().min().unwrap(), bytes.iter().max().unwrap());
    assert!(*most <= 22 * 1024, "one histogram holds {most} B (the least {least} B)");
    let inline = std::mem::size_of::<TenantReport>();
    assert!(inline <= 160, "{inline} B inline");
}
