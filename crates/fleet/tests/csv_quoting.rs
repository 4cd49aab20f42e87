//! Every fleet CSV is RFC 4180: a mix name or a tenant label that holds
//! `,` or `"` is written as one quoted cell, so it never shifts the
//! columns after it. Each CSV is parsed back and every row must have
//! exactly as many fields as its header, with the quoted cells equal to
//! the original names.

use cagc_core::Scheme;
use cagc_flash::{FaultConfig, UllConfig};
use cagc_fleet::{
    run_fleet, simulate_device, DeviceSpec, FleetConfig, FleetReport, SloConfig, TenantMix,
    TenantTrace, TraceLibrary,
};
use cagc_workloads::FiuWorkload;

/// A name that breaks an unquoted CSV row twice over.
const AWKWARD: &str = "mail, \"hot\" tier";

fn slo() -> Option<SloConfig> {
    Some(SloConfig::uniform(200_000, 900, 1_000_000))
}

/// RFC 4180 records of `csv`: fields are split on `,`, and a quoted
/// field may hold `,`, line breaks and doubled `""`.
fn parse(csv: &str) -> Vec<Vec<String>> {
    let (mut rows, mut row, mut cell) = (Vec::new(), Vec::new(), String::new());
    let (mut chars, mut quoted) = (csv.chars().peekable(), false);
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            (true, '"') => quoted = false,
            (false, '"') if cell.is_empty() => quoted = true,
            (false, ',') => row.push(std::mem::take(&mut cell)),
            (false, '\n') => {
                row.push(std::mem::take(&mut cell));
                rows.push(std::mem::take(&mut row));
            }
            (_, c) => cell.push(c),
        }
    }
    assert!(!quoted && cell.is_empty() && row.is_empty(), "unterminated CSV:\n{csv}");
    rows
}

/// The parsed rows of `csv` after checking each has header-many fields.
fn rectangular(csv: &str) -> Vec<Vec<String>> {
    let rows = parse(csv);
    let width = rows[0].len();
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), width, "row {i} has {} fields, the header {width}:\n{csv}", r.len());
    }
    rows
}

/// Column `name` of every data row.
fn column(rows: &[Vec<String>], name: &str) -> Vec<String> {
    let i = rows[0].iter().position(|h| h == name).expect("column present");
    rows[1..].iter().map(|r| r[i].clone()).collect()
}

/// The distinct timeline series of `rows`, in order of appearance.
fn series(rows: &[Vec<String>]) -> Vec<String> {
    let mut names = column(rows, "series");
    names.dedup();
    names
}

#[test]
fn a_mix_name_with_comma_and_quote_stays_one_cell() {
    let awkward = TenantMix { name: AWKWARD, ..TenantMix::balanced() };
    let cfg = FleetConfig {
        devices: 2,
        mixes: vec![awkward, TenantMix::balanced()],
        slo: slo(),
        ..FleetConfig::small_test()
    };
    let rep = run_fleet(&cfg);

    let devices = rectangular(&rep.device_csv());
    assert_eq!(column(&devices, "mix"), [AWKWARD, "balanced"]);
    assert_eq!(column(&devices, "device"), ["0", "1"]);

    let qos = rectangular(&rep.qos_csv());
    let mixes = column(&qos, "mix");
    assert_eq!(mixes.len(), 6, "three tenants per mix");
    assert!(mixes[..3].iter().all(|m| m == AWKWARD), "{mixes:?}");
    assert!(mixes[3..].iter().all(|m| m == "balanced"), "{mixes:?}");

    let timeline = rectangular(&rep.timeline_csv().expect("SLO tracking armed"));
    let want: Vec<String> = [AWKWARD, "balanced"]
        .iter()
        .flat_map(|m| ["Homes[0]", "Web-vm[1]", "Mail[2]"].map(|t| format!("slo/{m}/{t}")))
        .collect();
    assert_eq!(series(&timeline), want);
}

#[test]
fn a_tenant_label_with_comma_and_quote_stays_one_cell() {
    let flash = UllConfig::tiny_for_tests();
    let pages = (flash.logical_pages() as f64 * 0.9 / 2.0) as u64;
    let mut lib = TraceLibrary::new();
    let labels = [AWKWARD.to_string(), "Homes[1]".to_string()];
    let spec = DeviceSpec {
        id: 0,
        mix_name: "labels".into(),
        scheme: Scheme::Cagc,
        flash,
        tenants: [FiuWorkload::Mail, FiuWorkload::Homes]
            .into_iter()
            .zip(&labels)
            .map(|(w, label)| TenantTrace {
                label: label.clone(),
                trace: lib.get(w, pages, 300, 11, 1.0),
            })
            .collect(),
        host_queues: None,
        faults: FaultConfig::none(),
        gc_preempt: false,
        read_only_floor_blocks: None,
        telemetry: None,
        slo: slo(),
    };
    let rep = FleetReport::aggregate(vec![simulate_device(&spec)], lib.distinct());

    let devices = rectangular(&rep.device_csv());
    assert_eq!(column(&devices, "mix"), ["labels"]);

    let qos = rectangular(&rep.qos_csv());
    assert_eq!(column(&qos, "tenant"), labels);

    let timeline = rectangular(&rep.timeline_csv().expect("SLO tracking armed"));
    assert_eq!(series(&timeline), labels.map(|l| format!("slo/labels/{l}")));
}
