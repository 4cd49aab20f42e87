//! Every `(<file>.md, <Section>)` or `(<file>.md, "<Section>")` pointer in
//! the code, the gate script and the documents names a section that
//! exists: the start of a Markdown heading of that file (after any `N. `
//! prefix) or of a `**bold**` lead-in, compared case-insensitively. A
//! FAIL message or a doc comment that sends its reader to a renamed or
//! deleted section fails here instead of dangling. ROADMAP.md, CHANGES.md
//! and `benchmark/` are history and plans, not pointers into the present,
//! and are not scanned.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every file below `dir` whose name ends in `suffix`.
fn walk(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(&path, suffix, out);
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
}

/// The files whose pointers are checked, relative to the repository root.
fn scanned() -> Vec<PathBuf> {
    let root = root();
    let mut files: Vec<PathBuf> = [
        "scripts/verify.sh",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "results/README.md",
        ".claude/skills/verify/SKILL.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    walk(&root.join("crates"), ".rs", &mut files);
    walk(&root.join("docs"), ".md", &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = krate.expect("dir entry").path().join("Cargo.toml");
        if manifest.exists() {
            files.push(manifest);
        }
    }
    // This file's own examples are not pointers.
    files.retain(|f| !f.ends_with("crates/bench/tests/doc_pointers.rs"));
    files
}

/// The file's text as one line: each line loses its indentation and, in
/// code, its comment marker, so a pointer wrapped across comment lines
/// reads as it would unwrapped.
fn flatten(path: &Path) -> String {
    let code = path.extension().is_none_or(|e| e != "md");
    read(path)
        .lines()
        .map(|line| {
            let line = line.trim_start();
            if code {
                ["//!", "///", "//", "#"]
                    .iter()
                    .find_map(|m| line.strip_prefix(m))
                    .unwrap_or(line)
                    .trim_start()
            } else {
                line
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every `(file.md, section)` pointer in `text`: the file as written, with
/// optional backticks around it, and the section with any `"` or `\"`
/// quotes taken off.
fn pointers(text: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(".md") {
        let end = from + at + ".md".len();
        from = end;
        let path_start = text[..end - 3]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
            .map_or(0, |i| i + 1);
        let before = text[..path_start].trim_end_matches('`');
        if !before.ends_with('(') {
            continue;
        }
        let rest = text[end..].trim_start_matches('`');
        let Some(rest) = rest.strip_prefix(',') else { continue };
        let rest = rest.trim_start();
        let section = if let Some(quoted) = rest.strip_prefix("\\\"") {
            quoted.split_once("\\\"").filter(|(_, after)| after.starts_with(')')).map(|(s, _)| s)
        } else if let Some(quoted) = rest.strip_prefix('"') {
            quoted.split_once('"').filter(|(_, after)| after.starts_with(')')).map(|(s, _)| s)
        } else {
            rest.split_once(')').map(|(s, _)| s).filter(|s| !s.contains(['(', '"']))
        };
        if let Some(section) = section {
            found.push((text[path_start..end].to_string(), section.trim().to_string()));
        }
    }
    found
}

/// Lower-cased, without backticks: how a pointer and a heading compare.
fn norm(s: &str) -> String {
    s.replace('`', "").trim().to_lowercase()
}

/// The headings (without `#`s or an `N. ` prefix) and bold lead-ins of a
/// Markdown file, normalised; fenced code is skipped.
fn sections(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        if let Some(heading) = line.strip_prefix('#') {
            let heading = heading.trim_start_matches('#').trim();
            let numbered = heading
                .split_once(". ")
                .filter(|(n, _)| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()));
            out.push(norm(numbered.map_or(heading, |(_, rest)| rest)));
        }
        let mut rest = line;
        while let Some((_, after)) = rest.split_once("**") {
            let Some((bold, tail)) = after.split_once("**") else { break };
            out.push(norm(bold));
            rest = tail;
        }
    }
    out
}

#[test]
fn every_doc_pointer_names_a_section_that_exists() {
    let root = root();
    let mut checked = 0;
    let mut dangling = Vec::new();
    for file in scanned() {
        for (target, section) in pointers(&flatten(&file)) {
            let at_root = root.join(&target);
            let beside = file.parent().expect("a file has a directory").join(&target);
            let Some(path) = [at_root, beside].into_iter().find(|p| p.exists()) else {
                dangling.push(format!("{}: ({target}, {section}): no such file", file.display()));
                continue;
            };
            let wanted = norm(&section);
            if !sections(&read(&path)).iter().any(|s| s.starts_with(&wanted)) {
                dangling.push(format!("{}: ({target}, {section})", file.display()));
            }
            checked += 1;
        }
    }
    assert!(dangling.is_empty(), "pointers to no heading or bold lead-in:\n{}", dangling.join("\n"));
    // The scanner itself must keep finding the pointers it exists for.
    assert!(checked >= 20, "only {checked} pointers found: the scanner lost its pattern");
}

#[test]
fn the_scanner_reads_every_pointer_form() {
    let forms = "a (DESIGN.md, Request path) b (docs/X.md, \"Gates\") c (`docs/Y.md`, \"Two words\") \
                 d eprintln!(\"(docs/Z.md, \\\"Esc\\\")\") e (see README.md) f (A.md, x (y) z)";
    assert_eq!(
        pointers(forms),
        [
            ("DESIGN.md", "Request path"),
            ("docs/X.md", "Gates"),
            ("docs/Y.md", "Two words"),
            ("docs/Z.md", "Esc"),
        ]
        .map(|(f, s)| (f.to_string(), s.to_string()))
    );
    let md = "# 1. Build\n```sh\n# not a heading\n```\n## `repro` inspect\n**Bold lead.** text";
    assert_eq!(sections(md), ["build", "repro inspect", "bold lead."]);
}
