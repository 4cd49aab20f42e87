//! Dead-`pub` gate: every `pub fn` / `pub struct` / `pub enum` in the
//! library code (`crates/*/src`, `src/`) must be named somewhere that uses
//! it — a caller, a test, an experiment, an example or the benchmark
//! package. What does not count as a use: the definition line itself,
//! `impl` headers, `use` / re-export statements, comments, and the `#[cfg(test)]` section
//! of the file that defines it (an item only its own unit tests reach is
//! dead weight kept alive by its tests).
//!
//! The scan matches whole identifiers, so a name that collides with
//! another item's name (`new`, `len`, …) always looks reached; such items
//! are checked by hand, not here.

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

/// The name a line defines, if it is a `pub fn` / `struct` / `enum`.
fn defined_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = ["fn ", "struct ", "enum "].iter().find_map(|kw| rest.strip_prefix(kw))?;
    identifiers(rest).next()
}

/// Every identifier occurrence that counts as a use: `(file, line)` per name.
fn uses(sources: &[Source]) -> HashMap<&str, Vec<(usize, usize)>> {
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
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
        }
    }
    uses
}

#[test]
fn every_pub_item_is_reached_outside_its_own_tests() {
    let root = root();
    let mut lib_dirs = crate_dirs("src");
    lib_dirs.push(root.join("src"));
    let mut ref_dirs = lib_dirs.clone();
    ref_dirs.extend(crate_dirs("tests"));
    for dir in ["tests", "examples", "benchmark/src"] {
        ref_dirs.push(root.join(dir));
    }
    let this_file = Path::new(file!()).file_name().expect("file name");
    let sources: Vec<Source> = load(&ref_dirs)
        .into_iter()
        .filter(|s| !(s.path.ends_with(Path::new("tests").join(this_file))))
        .collect();
    let lib_files: Vec<usize> = (0..sources.len())
        .filter(|&i| lib_dirs.iter().any(|d| sources[i].path.starts_with(d)))
        .collect();
    assert!(lib_files.len() > 50, "scan found only {} library files", lib_files.len());
    let uses = uses(&sources);

    let mut unreached = Vec::new();
    for &f in &lib_files {
        let src = &sources[f];
        for (n, line) in src.lines[..src.test_start].iter().enumerate() {
            let Some(name) = defined_name(line) else { continue };
            let reached = uses.get(name).is_some_and(|sites| {
                sites.iter().any(|&(uf, un)| !(uf == f && (un == n || un >= src.test_start)))
            });
            if !reached {
                let rel = src.path.strip_prefix(&root).unwrap_or(&src.path);
                unreached.push(format!("{}::{name}", rel.display()));
            }
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
