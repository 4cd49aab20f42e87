//! EXPERIMENTS.md's Fig. 6, 9, 10, 11 and 13 tables mirror
//! `results/fig{6,9,10,11,13}.csv`, and its "Trim sensitivity", "Fault
//! sensitivity", "Queue-depth sensitivity" and "Fleet scale" tables mirror
//! `results/sweep_{trim,faults,qd,fleet}.csv`, and every number its
//! "Ablations (beyond the paper)" bullets quote comes from
//! `results/{ablate_*,compare_inline,sweep_utilization,wear_study}.csv`:
//! every cell must agree with its CSV value at the precision the prose
//! prints, so a golden cannot be re-pinned without its prose. Fig. 13's
//! Greedy rows are Figs. 9 and 10's cells, so the CSVs must also agree
//! with each other.

use std::collections::HashMap;

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The CSV as `(key columns joined by '/', column name) -> cell`.
fn csv(rel: &str, keys: usize) -> HashMap<(String, String), String> {
    let text = read(rel);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let mut cells = HashMap::new();
    for line in lines {
        let row: Vec<&str> = line.split(',').collect();
        let key = row[..keys].join("/");
        for (name, cell) in header.iter().zip(&row).skip(keys) {
            cells.insert((key.clone(), name.to_string()), cell.to_string());
        }
    }
    cells
}

/// The first Markdown table at or after `marker` (a heading, or the
/// table's own first characters): its header row, then its body rows.
fn table(md: &str, marker: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let from = md.find(marker).unwrap_or_else(|| panic!("`{marker}` not in EXPERIMENTS.md"));
    let mut rows = md[from..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("|---"))
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect());
    let header = rows.next().expect("table header");
    (header, rows.collect())
}

/// Check one prose cell against a CSV value at the number of decimals the
/// prose prints. A `negated` column prints a reduction as `−x` and an
/// increase (a negative reduction) as `+x`.
fn check(what: &str, prose: &str, value: &str, negated: bool) {
    let cleaned: String = prose
        .chars()
        .filter(|c| !matches!(c, '*' | '¹' | '%' | ' ' | '\u{a0}' | '+'))
        .map(|c| if c == '−' { '-' } else { c })
        .collect();
    let decimals = cleaned.split_once('.').map_or(0, |(_, frac)| frac.len());
    let value: f64 = value.parse().unwrap_or_else(|e| panic!("{what}: csv `{value}`: {e}"));
    assert_eq!(
        cleaned,
        format!("{:.*}", decimals, if negated { -value } else { value }),
        "{what}: EXPERIMENTS.md says `{prose}`, the CSV says {value}"
    );
}

/// Figs. 9 and 10 share a layout: workload, Baseline, CAGC, reduction,
/// paper — and a "Scale stability" table whose default column repeats the
/// reduction.
fn check_counts_figure(fig: u32) {
    let md = read("EXPERIMENTS.md");
    let data = csv(&format!("results/fig{fig}.csv"), 1);
    let get = |w: &str, col: &str| data[&(w.to_string(), col.to_string())].clone();
    let (_, rows) = table(&md, &format!("## Fig. {fig} "));
    assert_eq!(rows.len(), 3, "Fig. {fig}: one row per workload");
    for row in &rows {
        let w = row[0].as_str();
        check(&format!("Fig. {fig} {w} baseline"), &row[1], &get(w, "baseline"), false);
        check(&format!("Fig. {fig} {w} cagc"), &row[2], &get(w, "cagc"), false);
        check(&format!("Fig. {fig} {w} reduction"), &row[3], &get(w, "reduction_pct"), true);
        check(&format!("Fig. {fig} {w} paper"), &row[4], &get(w, "paper_reduction_pct"), true);
    }
    let (header, scale) = table(&md, &format!("| Fig. {fig} reduction |"));
    assert_eq!(scale.len(), 3, "Fig. {fig} scale stability: one row per workload");
    let default = header.iter().position(|c| c.starts_with("default")).expect("default column");
    for row in &scale {
        let w = row[0].as_str();
        check(&format!("Fig. {fig} {w} default scale"), &row[default], &get(w, "reduction_pct"), true);
        let paper = row.last().expect("paper column");
        check(&format!("Fig. {fig} {w} scale paper"), paper, &get(w, "paper_reduction_pct"), true);
    }
}

/// Fig. 6 prints percentages of fractions the CSV keeps to four decimals,
/// so a cell passes within half a unit of its last printed digit plus the
/// CSV's own rounding (0.005 percentage points). The prose's shape claim
/// is checked on the CSV: refcount-1 pages make up more than 80 % of the
/// invalidations and refcount > 3 less than 1 %, for every workload.
#[test]
fn fig6_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/fig6.csv", 1);
    let (_, rows) = table(&md, "## Fig. 6 ");
    assert_eq!(rows.len(), 3, "Fig. 6: one row per workload");
    for row in &rows {
        let w = row[0].as_str();
        let get = |col: &str| -> f64 {
            data[&(w.to_string(), col.to_string())].parse().expect("csv fraction")
        };
        for (cell, col) in row[1..5].iter().zip(["ref1", "ref2", "ref3", "ref_gt3"]) {
            let prose = cell.trim_end_matches('%').trim();
            let decimals = prose.split_once('.').map_or(0, |(_, frac)| frac.len());
            let printed: f64 =
                prose.parse().unwrap_or_else(|e| panic!("Fig. 6 {w} {col}: `{cell}`: {e}"));
            let tolerance = 0.5 * 10f64.powi(-(decimals as i32)) + 0.005;
            let value = 100.0 * get(col);
            assert!(
                (printed - value).abs() <= tolerance + 1e-9,
                "Fig. 6 {w} {col}: EXPERIMENTS.md says `{cell}`, the CSV says {value:.2} %"
            );
        }
        assert!(get("ref1") > 0.80, "Fig. 6 {w}: refcount-1 share not above 80 %");
        assert!(get("ref_gt3") < 0.01, "Fig. 6 {w}: refcount > 3 share not below 1 %");
    }
}

#[test]
fn fig9_prose_matches_its_golden() {
    check_counts_figure(9);
}

#[test]
fn fig10_prose_matches_its_golden() {
    check_counts_figure(10);
}

#[test]
fn fig11_prose_matches_its_golden() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/fig11.csv", 2);
    let (_, rows) = table(&md, "## Fig. 11 ");
    assert_eq!(rows.len(), 3, "Fig. 11: one row per workload");
    for row in &rows {
        let w = row[0].as_str();
        for (cell, scheme) in row[1..4].iter().zip(["Inline-Dedupe", "Baseline", "CAGC"]) {
            let key = (format!("{w}/{scheme}"), "normalized".to_string());
            check(&format!("Fig. 11 {w} {scheme}"), cell, &data[&key], false);
        }
        let key = (format!("{w}/CAGC"), "paper_cagc_reduction_pct".to_string());
        check(&format!("Fig. 11 {w} paper"), &row[4], &data[&key], true);
    }
}

#[test]
fn fig13_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/fig13.csv", 2);
    let (_, rows) = table(&md, "## Fig. 13 ");
    assert_eq!(rows.len(), 9, "Fig. 13: one row per workload and policy");
    let columns = ["erase_reduction_pct", "migration_reduction_pct", "response_reduction_pct"];
    for row in &rows {
        let key = format!("{}/{}", row[0], row[1]);
        for (cell, col) in row[2..5].iter().zip(columns) {
            check(&format!("Fig. 13 {key} {col}"), cell, &data[&(key.clone(), col.to_string())], true);
        }
    }
}

/// Fig. 13 under the default Greedy policy replays the same aged cells as
/// Figs. 9 and 10, so its reductions are theirs, digit for digit.
#[test]
fn fig13_greedy_rows_equal_figs_9_and_10() {
    let fig13 = csv("results/fig13.csv", 2);
    let (fig9, fig10) = (csv("results/fig9.csv", 1), csv("results/fig10.csv", 1));
    for w in ["Homes", "Web-vm", "Mail"] {
        let greedy = |col: &str| &fig13[&(format!("{w}/Greedy"), col.to_string())];
        let reduction = |fig: &HashMap<(String, String), String>| fig[&(w.to_string(), "reduction_pct".to_string())].clone();
        assert_eq!(greedy("erase_reduction_pct"), &reduction(&fig9), "{w}: Fig. 13 vs Fig. 9");
        assert_eq!(greedy("migration_reduction_pct"), &reduction(&fig10), "{w}: Fig. 13 vs Fig. 10");
    }
}

/// The "Fleet scale" per-mix table prints the 32-device rows of
/// `sweep_fleet.csv` (WAF per scheme, then CAGC's dedup hit rate), and the
/// prose's stability claim — 8 → 32 devices moves per-mix WAF by < 1 % —
/// holds for every (scheme, mix) in the CSV.
#[test]
fn fleet_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/sweep_fleet.csv", 3);
    let get = |devices: u32, scheme: &str, mix: &str, col: &str| -> &String {
        let key = (format!("{devices}/{scheme}/{mix}"), col.to_string());
        data.get(&key).unwrap_or_else(|| panic!("sweep_fleet.csv has no {key:?}"))
    };
    let schemes = ["Inline-Dedupe", "Baseline", "CAGC"];
    let (_, rows) = table(&md, "## Fleet scale");
    assert_eq!(rows.len(), 4, "Fleet scale: one row per mix");
    for row in &rows {
        let mix = row[0].as_str();
        for (cell, scheme) in row[1..4].iter().zip(schemes) {
            check(&format!("Fleet {mix} {scheme} WAF"), cell, get(32, scheme, mix, "waf"), false);
        }
        let hit = get(32, "CAGC", mix, "dedup_hit_rate");
        check(&format!("Fleet {mix} CAGC dedup hit"), &row[4], hit, false);
        for scheme in schemes {
            let waf = |devices| -> f64 { get(devices, scheme, mix, "waf").parse().expect("waf") };
            let moved = (waf(32) - waf(8)).abs() / waf(8);
            assert!(moved < 0.01, "Fleet {scheme}/{mix}: 8 -> 32 devices moves WAF by {moved:.4}");
        }
    }
}

/// A prose cell holding two values, `a / b`.
fn pair(cell: &str) -> (&str, &str) {
    cell.split_once(" / ").unwrap_or_else(|| panic!("`{cell}` is not an `a / b` pair"))
}

/// The "Trim sensitivity" table prints `sweep_trim.csv`: per injected trim
/// fraction, Baseline WAF and erases and CAGC WAF, each honoring / ignoring
/// the hints.
#[test]
fn trim_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/sweep_trim.csv", 3);
    let (_, rows) = table(&md, "## Trim sensitivity");
    assert_eq!(rows.len(), 5, "Trim sensitivity: one row per trim fraction");
    for row in &rows {
        let pct: f64 = row[0].trim_end_matches('%').trim().parse().expect("trim percent");
        let frac = format!("{}", pct / 100.0);
        let cells = [("Baseline", "waf"), ("Baseline", "blocks_erased"), ("CAGC", "waf")];
        for (cell, (scheme, col)) in row[1..4].iter().zip(cells) {
            let (honor, ignore) = pair(cell);
            for (prose, honored) in [(honor, "true"), (ignore, "false")] {
                let key = (format!("{frac}/{scheme}/{honored}"), col.to_string());
                check(&format!("Trim {frac} {scheme} {col} honor={honored}"), prose, &data[&key], false);
            }
        }
    }
}

/// A fault rate as the prose prints it (`0`, `10⁻⁴`, `5·10⁻³`), spelled
/// the way `sweep_faults.csv` keys it (`0.0001`, `0.005`).
fn fault_rate(prose: &str) -> String {
    if prose == "0" {
        return prose.to_string();
    }
    let (mantissa, power) = prose.split_once('·').unwrap_or(("1", prose));
    let exponent = power.strip_prefix("10⁻").expect("a negative power of ten").chars().fold(0, |e, c| {
        10 * e + "⁰¹²³⁴⁵⁶⁷⁸⁹".chars().position(|d| d == c).expect("a superscript digit") as i32
    });
    let mantissa: f64 = mantissa.parse().expect("mantissa");
    format!("{}", mantissa / 10f64.powi(exponent))
}

/// The "Fault sensitivity" table prints `sweep_faults.csv`: per fault rate
/// and scheme, program / ECC failures, WAF, and mean / p99 latency.
#[test]
fn fault_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/sweep_faults.csv", 2);
    let (_, rows) = table(&md, "## Fault sensitivity");
    assert_eq!(rows.len(), 5, "Fault sensitivity: one row per fault rate");
    for row in &rows {
        let rate = fault_rate(&row[0]);
        for (scheme, cells) in [("Baseline", &row[1..4]), ("CAGC", &row[4..7])] {
            let get = |col: &str| &data[&(format!("{rate}/{scheme}"), col.to_string())];
            let what = |col: &str| format!("Faults {rate} {scheme} {col}");
            let (prog, ecc) = pair(&cells[0]);
            check(&what("program_failures"), prog, get("program_failures"), false);
            check(&what("read_ecc_errors"), ecc, get("read_ecc_errors"), false);
            check(&what("waf"), &cells[1], get("waf"), false);
            let (mean, p99) = pair(&cells[2]);
            check(&what("mean_us"), mean, get("mean_us"), false);
            check(&what("p99_us"), p99, get("p99_us"), false);
        }
    }
}

/// The "Queue-depth sensitivity" table prints the read tail of
/// `sweep_qd.csv`: per queue depth, p99, p99.9 and max with preemptible
/// GC off and on.
#[test]
fn qd_prose_matches_its_csv() {
    let md = read("EXPERIMENTS.md");
    let data = csv("results/sweep_qd.csv", 4);
    let (_, rows) = table(&md, "## Queue-depth sensitivity");
    assert_eq!(rows.len(), 6, "Queue-depth sensitivity: one row per depth");
    for row in &rows {
        let qd = &row[0];
        let cols = ["reads_p99_us", "reads_p999_us", "reads_max_us"];
        for (pair, col) in row[1..7].chunks(2).zip(cols) {
            for (cell, preempt) in pair.iter().zip(["false", "true"]) {
                let key = (format!("Mail/1/{qd}/{preempt}"), col.to_string());
                check(&format!("QD {qd} {col} preempt={preempt}"), cell, &data[&key], false);
            }
        }
    }
}

/// `n` with its thousands grouped by spaces, as the prose prints counts
/// (`12 456`).
fn grouped(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(d);
    }
    out
}

/// The lowest and highest of `values`, as the prose prints a range
/// (`16-32`) at `decimals` places.
fn span(values: impl IntoIterator<Item = f64>, decimals: usize) -> String {
    let (lo, hi) = values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
    format!("{lo:.decimals$}-{hi:.decimals$}")
}

/// The "Ablations (beyond the paper)" bullets quote numbers from
/// `results/ablate_*.csv`, `compare_inline.csv`, `sweep_utilization.csv`
/// and `wear_study.csv`. Each phrase is rebuilt from its CSV at the
/// precision the prose prints and must appear in the section (line breaks
/// read as spaces), so neither side can move alone.
#[test]
fn ablation_prose_matches_its_csvs() {
    let md = read("EXPERIMENTS.md");
    let from = md.find("## Ablations (beyond the paper)").expect("ablations section");
    let to = md[from + 1..].find("\n## ").map_or(md.len(), |i| from + 1 + i);
    let prose = md[from..to].split_whitespace().collect::<Vec<_>>().join(" ");
    let mut claims = Vec::new();

    let number = |data: &HashMap<(String, String), String>, key: &str, col: &str| -> f64 {
        let cell = data
            .get(&(key.to_string(), col.to_string()))
            .unwrap_or_else(|| panic!("no {key}/{col}"));
        cell.parse().unwrap_or_else(|e| panic!("{key}/{col}: `{cell}`: {e}"))
    };
    let count = |data: &HashMap<(String, String), String>, key: &str, col: &str| {
        grouped(number(data, key, col) as u64)
    };
    let workloads = ["Homes", "Web-vm", "Mail"];

    // Placement: dedup-in-GC alone vs full CAGC, and what promotion costs.
    let placement = csv("results/ablate_placement.csv", 2);
    let threshold = csv("results/ablate_threshold.csv", 2);
    claims.push(format!(
        "Mail {} vs {}",
        count(&placement, "Mail/dedup_only", "blocks_erased"),
        count(&placement, "Mail/full", "blocks_erased"),
    ));
    let promotions = workloads.map(|w| number(&threshold, &format!("{w}/1"), "promotions") / 1e3);
    let extra = workloads.map(|w| {
        let migrated = |v: &str| number(&placement, &format!("{w}/{v}"), "pages_migrated");
        (migrated("full") - migrated("dedup_only")) / 1e3
    });
    claims.push(format!(
        "({} k promotions at threshold 1, {} k more migrations than dedup-only)",
        span(promotions, 0),
        span(extra, 0),
    ));

    // Threshold 1 -> 8 on Mail.
    claims.push(format!(
        "(Mail: {}→{}) and total migrations ({:.0} k→{:.0} k)",
        count(&threshold, "Mail/1", "promotions"),
        count(&threshold, "Mail/8", "promotions"),
        number(&threshold, "Mail/1", "pages_migrated") / 1e3,
        number(&threshold, "Mail/8", "pages_migrated") / 1e3,
    ));

    // Hash overlap: serial vs overlapped GC busy time and GC-period mean.
    let overlap = csv("results/ablate_overlap.csv", 2);
    let growth = |w: &str, col: &str| {
        100.0 * (number(&overlap, &format!("{w}/serial"), col)
            / number(&overlap, &format!("{w}/overlap"), col)
            - 1.0)
    };
    claims.push(format!(
        "by ~{} % (Homes: {:.1} s→{:.1} s) and GC-period response by up to {:.0} % (Homes: {:.0}→{:.0} µs)",
        span(workloads.map(|w| growth(w, "gc_busy_ms")), 0),
        number(&overlap, "Homes/overlap", "gc_busy_ms") / 1e3,
        number(&overlap, "Homes/serial", "gc_busy_ms") / 1e3,
        workloads.map(|w| growth(w, "gc_mean_us")).into_iter().fold(f64::MIN, f64::max),
        number(&overlap, "Homes/overlap", "gc_mean_us"),
        number(&overlap, "Homes/serial", "gc_mean_us"),
    ));

    // Idle-period GC: the cut per scheme, erases, and the best cell.
    let idle = csv("results/ablate_idle_gc.csv", 3);
    let cut = |w: &str, s: &str, col: &str| {
        let at = |on: &str| number(&idle, &format!("{w}/{s}/{on}"), col);
        100.0 * (1.0 - at("true") / at("false"))
    };
    let cuts = |ws: &[&str]| -> Vec<f64> {
        ws.iter().flat_map(|w| ["Baseline", "CAGC"].map(|s| cut(w, s, "gc_mean_us"))).collect()
    };
    claims.push(format!(
        "(by {} % on Homes and Mail, {} % on Web-vm) with erase counts within 1 %",
        span(cuts(&["Homes", "Mail"]), 0),
        span(cuts(&["Web-vm"]), 0),
    ));
    for w in workloads {
        for s in ["Baseline", "CAGC"] {
            let moved = cut(w, s, "blocks_erased").abs();
            assert!(moved < 1.0, "idle GC moves {w}/{s} erases by {moved:.2} %");
        }
        let best = number(&idle, &format!("{w}/CAGC/true"), "gc_mean_us");
        for cell in ["Baseline/false", "Baseline/true", "CAGC/false"] {
            let other = number(&idle, &format!("{w}/{cell}"), "gc_mean_us");
            assert!(best < other, "idle GC: {w} CAGC+idle {best} is not below {cell} {other}");
        }
    }
    claims.push(format!(
        "Mail {:.0} µs vs Baseline-no-idle {:.0} µs",
        number(&idle, "Mail/CAGC/true", "gc_mean_us"),
        number(&idle, "Mail/Baseline/false", "gc_mean_us"),
    ));

    // Inline design space on Homes.
    let inline = csv("results/compare_inline.csv", 2);
    claims.push(format!(
        "(Homes: {:.2}× vs {:.2}× Baseline) but keeps only part of the dedup coverage ({:.1} k vs {:.1} k hits)",
        number(&inline, "Homes/Inline-Sampled", "normalized"),
        number(&inline, "Homes/Inline-Dedupe", "normalized"),
        number(&inline, "Homes/Inline-Sampled", "dedup_hits") / 1e3,
        number(&inline, "Homes/Inline-Dedupe", "dedup_hits") / 1e3,
    ));

    // Utilization: WAF at 70 % and 97 % footprint.
    let util = csv("results/sweep_utilization.csv", 2);
    claims.push(format!(
        "Baseline WAF grows from {:.2} at 70 % footprint to {:.2} at 97 % while CAGC stays {:.2}→{:.2}",
        number(&util, "0.7/Baseline", "waf"),
        number(&util, "0.97/Baseline", "waf"),
        number(&util, "0.7/CAGC", "waf"),
        number(&util, "0.97/CAGC", "waf"),
    ));

    // Wear: mean erases per block and their spread under Greedy.
    let wear = csv("results/wear_study.csv", 3);
    claims.push(format!(
        "(Mail Greedy: {:.2}→{:.2} per block; Web-vm: {:.2}→{:.2}) and, in our runs, also narrows the per-block spread (σ {:.2}→{:.2} under Greedy)",
        number(&wear, "Mail/Greedy/Baseline", "erase_mean"),
        number(&wear, "Mail/Greedy/CAGC", "erase_mean"),
        number(&wear, "Web-vm/Greedy/Baseline", "erase_mean"),
        number(&wear, "Web-vm/Greedy/CAGC", "erase_mean"),
        number(&wear, "Web-vm/Greedy/Baseline", "erase_stddev"),
        number(&wear, "Web-vm/Greedy/CAGC", "erase_stddev"),
    ));
    for w in ["Mail", "Web-vm"] {
        for s in ["Baseline", "CAGC"] {
            let spread = |p: &str| number(&wear, &format!("{w}/{p}/{s}"), "erase_stddev");
            assert!(spread("Cost-Benefit") < spread("Greedy"), "wear: {w}/{s} Cost-Benefit is not tightest");
        }
    }

    for claim in &claims {
        assert!(prose.contains(claim.as_str()), "EXPERIMENTS.md ablations do not say `{claim}`");
    }
}
