//! Replay a Mail-server-like deduplicating workload (Table II: 69.8 %
//! writes, 89.3 % duplicate content, 14.8 KB requests) against all three
//! schemes on an aged ULL SSD, and print the paper's headline comparison.
//!
//! ```bash
//! cargo run --release --example mail_server
//! ```

use cagc::flash::UllConfig;
use cagc::metrics::{reduction_pct, Table};
use cagc::prelude::*;

fn main() {
    let flash = UllConfig::scaled_gb(1);
    let footprint = (flash.logical_pages() as f64 * 0.95) as u64;
    let trace = FiuWorkload::Mail.synth_config(footprint, 120_000, 7).generate();

    println!("== Mail workload on a {}-block ULL SSD ==", flash.geometry().total_blocks());
    let profile = TraceProfile::of(&trace);
    println!(
        "trace: {} requests | write ratio {:.1}% | dedup ratio {:.1}% | mean {:.1}KB\n",
        trace.len(),
        profile.write_ratio * 100.0,
        profile.dedup_ratio * 100.0,
        profile.mean_req_kb
    );

    // The three schemes run in parallel — each simulation is deterministic.
    let cells: Vec<(SsdConfig, &Trace)> = Scheme::ALL
        .iter()
        .map(|&s| (SsdConfig::paper(flash, s), &trace))
        .collect();
    let reports = run_cells(&cells, 0);

    let mut t = Table::new(vec![
        "scheme", "workload", "requests", "mean_us", "p99_us", "gc_rounds", "blocks_erased",
        "pages_migrated", "dedup_hits", "waf",
    ]);
    for r in &reports {
        t.row(vec![
            r.scheme.clone(),
            r.workload.clone(),
            r.all.count.to_string(),
            format!("{:.2}", r.all.mean_ns / 1e3),
            format!("{:.2}", r.all.p99_ns as f64 / 1e3),
            r.gc.invocations.to_string(),
            r.gc.blocks_erased.to_string(),
            r.gc.pages_migrated.to_string(),
            r.index.hits.to_string(),
            format!("{:.3}", r.waf()),
        ]);
    }
    println!("{}", t.render());

    let base = reports.iter().find(|r| r.scheme == "Baseline").expect("baseline ran");
    let cagc = reports.iter().find(|r| r.scheme == "CAGC").expect("cagc ran");
    println!("== CAGC vs Baseline (paper, Mail: erases -86.6%, migrations -85.9%) ==");
    println!(
        "blocks erased : -{:.1}%",
        reduction_pct(base.gc.blocks_erased as f64, cagc.gc.blocks_erased as f64)
    );
    println!(
        "pages migrated: -{:.1}%",
        reduction_pct(base.gc.pages_migrated as f64, cagc.gc.pages_migrated as f64)
    );
    println!(
        "mean response : -{:.1}%",
        reduction_pct(base.all.mean_ns, cagc.all.mean_ns)
    );
    println!(
        "p99 response  : -{:.1}%",
        reduction_pct(base.all.p99_ns as f64, cagc.all.p99_ns as f64)
    );
}
