//! Byte-identity pins for the fleet rollup.
//!
//! Every `FleetReport` output — the JSON report, the per-device CSV, the
//! per-tenant QoS CSV and the timeline CSV — is pinned by digest for four
//! fleets that between them reach every pay-as-you-go section: a plain
//! direct-mode fleet, the same fleet through the host interface, that
//! host-mode fleet with gauge telemetry and SLO tracking armed, and a
//! chaos fleet whose devices degrade mid-replay. A rewrite of how device
//! reports fold into the rollups must leave every byte where it was.
//!
//! A mismatch prints the whole freshly-computed table, so an *intended*
//! change to the report can re-pin by pasting it over the table below.

use cagc_fleet::{run_fleet, FleetConfig, FleetReport, SloConfig};
use cagc_flash::{FaultConfig, Timing, UllConfig};
use cagc_harness::ToJson;
use cagc_trace::TraceConfig;

/// FNV-1a, 64-bit: enough to pin bytes, no dependency.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn host_mode() -> FleetConfig {
    FleetConfig { host_queues: Some((2, 8)), ..FleetConfig::small_test() }
}

fn observed() -> FleetConfig {
    FleetConfig {
        telemetry: Some(TraceConfig::gauges_only(1_000_000, 1)),
        slo: Some(SloConfig::uniform(200_000, 900, 1_000_000)),
        ..host_mode()
    }
}

/// Four 32-block devices with erase failures and a read-only floor that
/// spans the whole device: some devices degrade, at least one survives.
fn chaos() -> FleetConfig {
    FleetConfig {
        devices: 4,
        flash: UllConfig {
            channels: 1,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block: 8,
            page_size: 4096,
            op_ratio: 0.12,
            gc_watermark: 0.20,
            hash_ns: 14_000,
            timing: Timing::ull(),
        },
        requests_per_tenant: 400,
        faults: FaultConfig {
            erase_fail_prob: 0.002,
            read_ecc_prob: 0.02,
            unrecoverable_prob: 0.3,
            seed: 99,
            ..FaultConfig::none()
        },
        read_only_floor_blocks: Some(32),
        ..FleetConfig::small_test()
    }
}

/// `(cell, [json, device_csv, qos_csv, timeline_csv])`; an absent
/// timeline digests as the empty string.
const PINNED: &[(&str, [u64; 4])] = &[
    ("plain", [0xba9488e43b686758, 0xfda204e802c6dbd0, 0x4e5b6986896da957, 0xcbf29ce484222325]),
    ("host", [0xcc883e7ab436fd2d, 0xc17b3ad9cdaf411c, 0xd8360dcd4b673daa, 0xcbf29ce484222325]),
    ("observed", [0x5c8ced2ad6056ace, 0xc17b3ad9cdaf411c, 0xd8360dcd4b673daa, 0x2c238499b32f30ab]),
    ("chaos", [0x4c1c36bb342b75a5, 0x8d13afc6914cf198, 0x36feced45ee5f38c, 0xcbf29ce484222325]),
];

fn digests(rep: &FleetReport) -> [u64; 4] {
    [
        digest(rep.to_json().render().as_bytes()),
        digest(rep.device_csv().as_bytes()),
        digest(rep.qos_csv().as_bytes()),
        digest(rep.timeline_csv().unwrap_or_default().as_bytes()),
    ]
}

#[test]
fn fleet_reports_are_byte_identical_to_the_pins() {
    let cells = [
        ("plain", FleetConfig::small_test()),
        ("host", host_mode()),
        ("observed", observed()),
        ("chaos", chaos()),
    ];
    let mut got = Vec::new();
    for (name, cfg) in &cells {
        let rep = run_fleet(cfg);
        match *name {
            "observed" => {
                assert!(rep.slo.as_ref().is_some_and(|s| !s.is_empty()), "observed: no SLO rollup");
                assert!(rep.timeline.is_some(), "observed: no timeline");
            }
            "chaos" => {
                assert!(rep.degraded_devices >= 1, "chaos: no device degraded");
                assert!(rep.degraded_devices < rep.devices.len() as u64, "chaos: no survivor");
                assert!(rep.failed_ops > 0, "chaos: no failed ops");
            }
            _ => assert!(rep.timeline_csv().is_none() && rep.failed_ops == 0, "{name}"),
        }
        got.push((*name, digests(&rep)));
    }
    let table: String = got
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert!(
        got.iter().zip(PINNED).all(|((n, d), (pn, pd))| n == pn && d == pd),
        "fleet report bytes moved; fresh table:\n{table}"
    );
}
