//! Dead-`pub` gate: every `pub fn` / `pub struct` / `pub enum` in the
//! library code (`crates/*/src`, `src/`) must be named somewhere that uses
//! it — a caller, a test, an experiment, an example or the benchmark
//! package. What does not count as a use: the definition line itself,
//! `impl` headers, `use` / re-export statements, comments, and the `#[cfg(test)]` section
//! of the file that defines it (an item only its own unit tests reach is
//! dead weight kept alive by its tests).
//!
//! A free `pub fn`, struct or enum is reached by any whole-identifier
//! match, since a free function can be passed by name. A `pub fn` defined
//! inside an `impl` is reached only through a method- or path-shaped use:
//! `.name(`, `.name::<`, or `Type::name` not followed by `::` — so a
//! field, module or local that shares a method's name does not hide it.
//!
//! What the scan cannot see is the receiver's type: a method whose name
//! another type's reached method shares (`new`, `len`, `get`, …)
//! always looks reached. Such items are checked by hand, not here.
//!
//! A second pass lists the `pub` methods only tests call. For it a caller
//! is production code: a library file before its `#[cfg(test)]`, an
//! example or the benchmark package, never a test file. Each such method
//! is named in `TEST_FACING` with the reason it stays `pub`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Items knowingly left unreached. The list may only shrink: an entry
/// that becomes reached fails the test until it is removed.
const ALLOWLIST: &[&str] = &[];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `crates/<each>/<sub>` for every crate directory.
fn crate_dirs(sub: &str) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path().join(sub))
        .collect();
    dirs.sort();
    dirs
}

struct Source {
    path: PathBuf,
    lines: Vec<String>,
    /// Index of the first `#[cfg(test)]` line (`lines.len()` when none).
    test_start: usize,
}

fn load(dirs: &[PathBuf]) -> Vec<Source> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read source");
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            let test_start = lines
                .iter()
                .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
                .unwrap_or(lines.len());
            Source { path, lines, test_start }
        })
        .collect()
}

fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// Identifiers used as a method call or a path: `.name(`, `.name::<`,
/// or `…::name` not followed by `::` (a turbofish `::<` still counts).
fn method_uses(code: &str) -> impl Iterator<Item = &str> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(is_ident).filter_map(move |(i, _)| {
        let (before, rest) = code.split_at(i);
        if before.ends_with(is_ident) {
            return None;
        }
        let len = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        let (name, after) = rest.split_at(len);
        let turbofish = after.starts_with("::<");
        let called = before.ends_with('.') && (after.starts_with('(') || turbofish);
        let pathed = before.ends_with("::") && (!after.starts_with("::") || turbofish);
        (called || pathed).then_some(name)
    })
}

/// The name a line defines, if it is a `pub fn` / `struct` / `enum`.
fn defined_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = ["fn ", "struct ", "enum "].iter().find_map(|kw| rest.strip_prefix(kw))?;
    identifiers(rest).next()
}

/// Sites per name: `(file, line)`.
type Uses<'a> = HashMap<&'a str, Vec<(usize, usize)>>;

/// Every identifier occurrence that counts as a use, and the method- or
/// path-shaped subset of them.
fn uses(sources: &[Source]) -> (Uses<'_>, Uses<'_>) {
    let (mut uses, mut methods) = (Uses::new(), Uses::new());
    for (f, src) in sources.iter().enumerate() {
        let mut in_use = false;
        for (n, line) in src.lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            let head = code.trim_start();
            let head = head.strip_prefix("pub ").unwrap_or(head);
            if head.starts_with("use ") {
                in_use = true;
            }
            if in_use {
                in_use = !code.contains(';');
                continue;
            }
            if head.starts_with("impl ") || head.starts_with("impl<") {
                continue;
            }
            for word in identifiers(code) {
                uses.entry(word).or_default().push((f, n));
            }
            for word in method_uses(code) {
                methods.entry(word).or_default().push((f, n));
            }
        }
    }
    (uses, methods)
}

/// The scanned tree: every source a use may sit in, which of them are
/// library files, and which are test files (`crates/*/tests`, `tests/`).
struct Scan {
    root: PathBuf,
    sources: Vec<Source>,
    lib_files: Vec<usize>,
    test_files: Vec<usize>,
}

fn scan() -> Scan {
    let root = root();
    let mut lib_dirs = crate_dirs("src");
    lib_dirs.push(root.join("src"));
    let mut test_dirs = crate_dirs("tests");
    test_dirs.push(root.join("tests"));
    let mut ref_dirs = lib_dirs.clone();
    ref_dirs.extend(test_dirs.iter().cloned());
    for dir in ["examples", "benchmark/src"] {
        ref_dirs.push(root.join(dir));
    }
    let this_file = Path::new(file!()).file_name().expect("file name");
    let sources: Vec<Source> = load(&ref_dirs)
        .into_iter()
        .filter(|s| !(s.path.ends_with(Path::new("tests").join(this_file))))
        .collect();
    let under = |dirs: &[PathBuf]| -> Vec<usize> {
        let within = |i: &usize| dirs.iter().any(|d| sources[*i].path.starts_with(d));
        (0..sources.len()).filter(within).collect()
    };
    let (lib_files, test_files) = (under(&lib_dirs), under(&test_dirs));
    assert!(lib_files.len() > 50, "scan found only {} library files", lib_files.len());
    Scan { root, sources, lib_files, test_files }
}

/// A `pub` item a library file defines: `(file, line, name, inside an impl)`.
fn definitions(scan: &Scan) -> Vec<(usize, usize, &str, bool)> {
    let mut defs = Vec::new();
    for &f in &scan.lib_files {
        let src = &scan.sources[f];
        let mut in_impl = false;
        for (n, line) in src.lines[..src.test_start].iter().enumerate() {
            // Items open and close at column 0 (rustfmt layout).
            if line.starts_with(|c: char| !c.is_whitespace() && c != '/' && c != '#') {
                in_impl = line.starts_with("impl");
            }
            if let Some(name) = defined_name(line) {
                defs.push((f, n, name, in_impl));
            }
        }
    }
    defs
}

/// `path::name`, the form both lists name an item by.
fn item(scan: &Scan, f: usize, name: &str) -> String {
    let path = &scan.sources[f].path;
    format!("{}::{name}", path.strip_prefix(&scan.root).unwrap_or(path).display())
}

#[test]
fn every_pub_item_is_reached_outside_its_own_tests() {
    let scan = scan();
    let (uses, method_uses) = uses(&scan.sources);
    let mut unreached = Vec::new();
    for (f, n, name, in_impl) in definitions(&scan) {
        // Only functions can be defined inside an `impl`.
        let sites = if in_impl { &method_uses } else { &uses };
        let test_start = scan.sources[f].test_start;
        let reached = sites.get(name).is_some_and(|sites| {
            sites.iter().any(|&(uf, un)| !(uf == f && (un == n || un >= test_start)))
        });
        if !reached {
            unreached.push(item(&scan, f, name));
        }
    }

    let stale: Vec<&&str> =
        ALLOWLIST.iter().filter(|a| !unreached.iter().any(|u| u == *a)).collect();
    assert!(stale.is_empty(), "allowlisted items are reached now; drop them: {stale:?}");
    let dead: Vec<&String> =
        unreached.iter().filter(|u| !ALLOWLIST.contains(&u.as_str())).collect();
    assert!(
        dead.is_empty(),
        "pub items nothing outside their own unit tests names — delete them \
         (with their tests) or use them:\n  {}",
        dead.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("\n  ")
    );
}

/// Methods only tests call, each with the reason it stays `pub`. The list
/// may only shrink: an entry that production code reaches, or that is
/// gone, fails the test until it is removed.
const TEST_FACING: &[(&str, &str)] = &[
    (
        "crates/core/src/recovery.rs::recover",
        "power-loss recovery: no experiment or benchmark workload crashes a device",
    ),
    (
        "crates/core/src/ssd.rs::nvme_code",
        "the NVMe status code a completion models, pinned per status",
    ),
    (
        "crates/core/src/ssd.rs::fingerprint_index",
        "read-only view whose bytes per live entry device_bytes.rs pins",
    ),
    (
        "crates/core/src/ssd.rs::stored_content",
        "the data-integrity oracle: what a host read of an LPN returns",
    ),
    (
        "crates/core/src/ssd.rs::mapped_ppn",
        "crash tests recount reference histograms from the forward map",
    ),
    (
        "crates/core/src/ssd.rs::ref_histogram",
        "crash tests hold the recovered index's histogram to a recount",
    ),
    (
        "crates/dedup/src/fingerprint.rs::of_bytes",
        "the real-data fingerprint path, hashing page bytes",
    ),
    (
        "crates/dedup/src/refstats.rs::total",
        "the invalidation count index tests check a release records",
    ),
    (
        "crates/ftl/src/mapping.rs::iter_mapped",
        "the forward-map walk the FTL property model compares",
    ),
    (
        "crates/host/src/engine.rs::replay_open_loop",
        "the open-loop twin of replay_closed_loop over a whole Trace",
    ),
    (
        "crates/metrics/src/timeseries.rs::sample_sum",
        "the running sum merges must keep equal to the windows' sum",
    ),
    (
        "crates/sim/src/timeline.rs::next_free",
        "a timeline's drain point, held to its last reservation's end",
    ),
    (
        "crates/workloads/src/files.rs::fig8_scenario",
        "the paper's Fig. 8 walk-through, pinned at 7 unique pages",
    ),
    (
        "crates/workloads/src/trace.rs::written_pages",
        "trace arithmetic the arena and cross-crate tests check",
    ),
];

#[test]
fn every_pub_method_only_tests_call_is_listed() {
    let scan = scan();
    let (_, method_uses) = uses(&scan.sources);
    let mut test_only = Vec::new();
    for (f, n, name, in_impl) in definitions(&scan) {
        if !in_impl {
            continue;
        }
        // A production caller: library, example or benchmark code outside
        // a test file and before its own file's `#[cfg(test)]`.
        let called = method_uses.get(name).is_some_and(|sites| {
            sites.iter().any(|&(uf, un)| {
                !scan.test_files.contains(&uf)
                    && un < scan.sources[uf].test_start
                    && (uf, un) != (f, n)
            })
        });
        if !called {
            test_only.push(item(&scan, f, name));
        }
    }

    let stale: Vec<&str> = TEST_FACING
        .iter()
        .map(|&(entry, _)| entry)
        .filter(|entry| !test_only.iter().any(|t| t == entry))
        .collect();
    assert!(stale.is_empty(), "listed methods have a production caller or are gone: {stale:?}");
    let unlisted: Vec<&String> =
        test_only.iter().filter(|t| !TEST_FACING.iter().any(|&(entry, _)| entry == *t)).collect();
    assert!(
        unlisted.is_empty(),
        "pub methods only tests call — give each a production caller, delete it, or list it \
         in TEST_FACING with the reason it stays:\n  {}",
        unlisted.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("\n  ")
    );
}
