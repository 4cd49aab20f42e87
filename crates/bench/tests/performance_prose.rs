//! docs/PERFORMANCE.md's byte figures are the code's. Each row of its
//! "Table layouts" table names the in-crate test that pins the element's
//! size, and that test's body must state the printed number; the fresh
//! 1 GB figures of its "Bytes per physical page" table are recomputed
//! here from `heap_bytes()` and compared at the precision the page
//! prints, and each bound that table quotes must be the one its pinning
//! test asserts (`device_bytes.rs` checks the replayed figures itself).
//! A byte figure in the page's prose must be one the two tables state,
//! so a layout cannot change without the page, nor the page without the
//! layout. docs/OBSERVABILITY.md's recording sizes are held the same way:
//! each byte figure in its prose must be one a size-pinning test states.

use cagc_core::{Scheme, Ssd, SsdConfig};
use cagc_flash::{FaultConfig, UllConfig};
use std::collections::BTreeSet;

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn page() -> String {
    read("docs/PERFORMANCE.md")
}

/// The body rows of the first Markdown table after `heading`.
fn table(md: &str, heading: &str) -> Vec<Vec<String>> {
    let from = md.find(heading).unwrap_or_else(|| panic!("`{heading}` not in PERFORMANCE.md"));
    md[from..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

/// Whether `n` occurs in `text` as a whole number: not inside an
/// identifier (`u32`) and not as a prefix of a longer literal (`40.0`).
fn states(text: &str, n: &str) -> bool {
    text.match_indices(n).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let mut after = text[i + n.len()..].chars();
        let next = after.next();
        let continues = match next {
            Some('.') => after.next().is_some_and(|c| c.is_ascii_digit()),
            Some(c) => c.is_ascii_alphanumeric() || c == '_',
            None => false,
        };
        !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.') && !continues
    })
}

/// The numbers a cell prints outside its backticked code spans.
fn numbers(cell: &str) -> Vec<String> {
    let prose: String = cell.split('`').step_by(2).collect::<Vec<_>>().join(" ");
    prose
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .map(|t| t.trim_matches('.'))
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// The body of `#[test] fn name` in `file`, braces included; panics if
/// the file has no such test.
fn test_body(file: &str, name: &str) -> String {
    let src = read(file);
    let at = src
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("{file}: no `fn {name}` (the page names it as a size pin)"));
    let line_start = src[..at].rfind('\n').map_or(0, |i| i + 1);
    let attrs = src[..line_start].lines().rev().take(3).collect::<Vec<_>>().join("\n");
    assert!(attrs.contains("#[test]"), "{file}: `{name}` is not a #[test]");
    let open = at + src[at..].find('{').expect("a fn has a body");
    let mut depth = 0;
    for (i, c) in src[open..].char_indices() {
        depth += match c {
            '{' => 1,
            '}' => -1,
            _ => 0,
        };
        if depth == 0 {
            return src[open..=open + i].to_string();
        }
    }
    panic!("{file}: `{name}` has no closing brace")
}

/// A "pinned by" cell: `; `-separated `` `file` `test` `` pins, each with
/// the bounds it quotes after them.
fn pins(cell: &str) -> Vec<(String, String, Vec<String>)> {
    cell.split("; ")
        .filter(|p| !p.is_empty())
        .map(|pin| {
            let code: Vec<&str> = pin.split('`').skip(1).step_by(2).collect();
            let [file, test] = code[..] else { panic!("pin `{pin}`: want `file` `test`") };
            (file.to_string(), test.to_string(), numbers(pin))
        })
        .collect()
}

#[test]
fn every_layout_row_names_the_test_that_pins_its_size() {
    let rows = table(&page(), "### Table layouts");
    assert!(rows.len() >= 10, "the layout table lost rows: {}", rows.len());
    for row in &rows {
        let [element, _, bytes, _, pinned] = &row[..] else { panic!("layout row {row:?}") };
        let [(file, test, bounds)] = &pins(pinned)[..] else {
            panic!("{element}: want exactly one pinning test, got `{pinned}`")
        };
        assert!(bounds.is_empty(), "{element}: the size goes in the bytes column");
        let body = test_body(file, test);
        let sizes = numbers(bytes);
        assert!(!sizes.is_empty(), "{element}: no size printed");
        for n in &sizes {
            assert!(states(&body, n), "{element}: the page says {n} B, `{test}` does not pin {n}");
        }
    }
}

/// Heap bytes per physical page of a fresh 1 GB CAGC device: the whole
/// `Ssd`, its flash device and its fingerprint index.
fn fresh_1gb(faults: FaultConfig) -> [f64; 3] {
    let mut cfg = SsdConfig::paper(UllConfig::scaled_gb(1), Scheme::Cagc);
    cfg.faults = faults;
    let ssd = Ssd::new(cfg);
    let pages = ssd.device().geometry().total_pages() as f64;
    [ssd.heap_bytes(), ssd.device().heap_bytes(), ssd.fingerprint_index().heap_bytes()]
        .map(|b| b as f64 / pages)
}

/// `prose` is `value` at the number of decimals `prose` prints.
fn check(what: &str, prose: &str, value: f64) {
    let decimals = prose.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(prose, format!("{value:.decimals$}"), "{what}: the page says {prose}, measured {value}");
}

#[test]
fn fresh_bytes_per_page_are_what_a_fresh_ssd_holds() {
    let rows = table(&page(), "### Bytes per physical page");
    let fault_free = fresh_1gb(FaultConfig::none());
    let armed = fresh_1gb(FaultConfig { crash_at_op: Some(u64::MAX), ..FaultConfig::none() });
    let fresh: Vec<_> = rows.iter().filter(|r| r[0] == "fresh 1 GB").collect();
    assert_eq!(fresh.len(), 3, "one fresh row each for the Ssd, the device and the index");
    for (i, row) in fresh.iter().enumerate() {
        check(&format!("{} fault-free", row[1]), &row[2], fault_free[i]);
        check(&format!("{} armed", row[1]), &row[3], armed[i]);
    }
    for row in &rows {
        for (file, test, bounds) in pins(&row[4]) {
            let body = test_body(&file, &test);
            assert!(!bounds.is_empty(), "{}: `{test}` quoted without its bound", row[1]);
            for n in &bounds {
                assert!(states(&body, n), "{}: the page quotes ≤ {n}, `{test}` does not", row[1]);
            }
        }
    }
}

/// Every `N B`, `N-byte` or `N bytes` in the page outside its tables and
/// code blocks: the numbers the page states as byte figures in prose.
fn prose_byte_figures(md: &str) -> Vec<String> {
    let mut fenced = false;
    let mut found = Vec::new();
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if fenced || line.starts_with('|') {
            continue;
        }
        for unit in [" B", "-byte", " byte"] {
            for (i, _) in line.match_indices(unit) {
                let tail = line[i + unit.len()..].chars().next();
                if unit == " B" && tail.is_some_and(|c| c.is_ascii_alphanumeric()) {
                    continue;
                }
                let head = &line[..i];
                let start = head.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.').len();
                if start < i {
                    found.push(head[start..].to_string());
                }
            }
        }
    }
    found
}

#[test]
fn every_byte_figure_in_the_prose_is_one_the_tables_state() {
    let md = page();
    let mut stated: BTreeSet<String> = BTreeSet::new();
    for row in table(&md, "### Table layouts") {
        stated.extend(numbers(&row[2]));
    }
    for row in table(&md, "### Bytes per physical page") {
        stated.extend(row[2..].iter().flat_map(|c| numbers(c)));
    }
    for n in prose_byte_figures(&md) {
        assert!(stated.contains(&n), "the prose states {n} B, which no gated table does");
    }
    let mut sample = prose_byte_figures("a 40-byte x, 8 B per y, 32 bytes, 3 MiB, 2 Bs");
    sample.sort();
    assert_eq!(sample, ["32", "40", "8"], "the scanner lost a unit");
}

#[test]
fn every_byte_figure_in_the_observability_prose_is_one_a_size_pin_states() {
    let pins = [
        ("crates/trace/src/recording.rs", "an_event_is_at_most_32_bytes_and_an_argument_10"),
        ("crates/trace/src/profile.rs", "a_container_is_24_bytes"),
        (
            "crates/host/tests/traced_chaos.rs",
            "live_and_jsonl_analyses_agree_on_a_faulted_preempting_host_replay",
        ),
    ]
    .map(|(file, test)| test_body(file, test));
    let figures = prose_byte_figures(&read("docs/OBSERVABILITY.md"));
    assert!(figures.len() >= 4, "the recording sizes left the page: {figures:?}");
    for n in figures {
        assert!(
            pins.iter().any(|body| states(body, &n)),
            "docs/OBSERVABILITY.md states {n} B, which no size-pinning test states"
        );
    }
}

#[test]
fn the_page_describes_the_present() {
    let md = page();
    let lines = md.lines().count();
    assert!(lines <= 400, "docs/PERFORMANCE.md is {lines} lines: a current-state page fits in 400");
    assert!(
        md.contains("git show f5f10b4:docs/PERFORMANCE.md"),
        "the header names the last commit that held the dated ledger"
    );
}
