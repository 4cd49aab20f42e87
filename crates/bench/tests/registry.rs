//! Drift checks on `experiments::COMMANDS`, the one place `repro`'s
//! commands are named.

use cagc_bench::experiments::{command_usage, commands, COMMANDS};
use std::collections::BTreeSet;

#[test]
fn declared_csvs_are_exactly_the_quick_goldens() {
    let mut declared: Vec<&str> = commands().flat_map(|c| c.csv.iter().copied()).collect();
    declared.sort_unstable();
    let quick = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/quick");
    let mut on_disk: Vec<String> = std::fs::read_dir(quick)
        .expect("results/quick exists")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    on_disk.sort_unstable();
    // A name declared twice cannot match the directory listing either.
    assert_eq!(declared, on_disk, "registry CSV names vs results/quick/");
    assert_eq!(on_disk.len(), 26);
}

#[test]
fn names_are_unique_and_all_plus_ablations_cover_them() {
    // Grouping is structural: a command exists only inside the group its
    // meta-command expands to, so the two metas cover every command.
    let metas: Vec<&str> = COMMANDS.iter().map(|(meta, _)| *meta).collect();
    assert_eq!(metas, ["all", "ablations"]);
    let names: Vec<&str> = commands().map(|c| c.name).chain(metas).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate command name in {names:?}");
}

#[test]
fn usage_lists_every_command() {
    let usage = command_usage();
    let words: BTreeSet<&str> = usage.split_whitespace().collect();
    for name in commands().map(|c| c.name).chain(COMMANDS.iter().map(|(meta, _)| *meta)) {
        assert!(words.contains(name), "`{name}` missing from usage:\n{usage}");
    }
}

#[test]
fn an_unknown_command_stops_repro_before_anything_runs() {
    let out = std::env::temp_dir().join(format!("cagc_repro_unknown_{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("create temp out dir");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--out")
        .arg(&out)
        .args(["table1", "nosuch"])
        .output()
        .expect("run repro");
    let written = std::fs::read_dir(&out).expect("read temp out dir").count();
    std::fs::remove_dir_all(&out).expect("remove temp out dir");
    assert!(!run.status.success(), "an unknown command must fail the run");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(!stdout.contains("Table I"), "table1 ran before `nosuch` was rejected:\n{stdout}");
    assert_eq!(written, 0, "nothing may be written when a command name is unknown");
}

#[test]
fn an_unreadable_trace_stops_inspect_with_an_error_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("cagc_repro_bad_trace_{}", std::process::id()));
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("create temp out dir");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "\n{not json\n").expect("write malformed trace");
    let missing = dir.join("missing.jsonl");
    let (bad, missing) = (bad.to_str().expect("utf-8 path"), missing.to_str().expect("utf-8 path"));
    // The file loaded first decides the message: a parse error names the
    // line, a read error the file.
    let cases: [(&[&str], &str); 4] = [
        (&["--trace", bad, "inspect"], "line 2"),
        (&["--trace", missing, "inspect"], missing),
        (&["--diff", bad, missing, "inspect"], "line 2"),
        (&["--diff", missing, bad, "inspect"], missing),
    ];
    for (args, expect) in cases {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--out")
            .arg(&out)
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let written = std::fs::read_dir(&out).expect("read temp out dir").count();
        assert!(!run.status.success(), "{args:?}: a bad trace must fail the run");
        assert!(!stderr.contains("panicked"), "{args:?}: panicked instead of an error:\n{stderr}");
        assert!(stderr.contains("error: ") && stderr.contains(expect), "{args:?}: {stderr}");
        assert_eq!(written, 0, "{args:?}: nothing may be written for a bad trace");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn an_unusable_output_path_stops_repro_with_an_error() {
    let dir = std::env::temp_dir().join(format!("cagc_repro_bad_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("a_file");
    std::fs::write(&file, "").expect("write a regular file");
    let trace = file.join("t.json");
    let utf8 = |p: &std::path::Path| p.to_str().expect("utf-8 path").to_string();
    let (out, file, trace) = (utf8(&dir), utf8(&file), utf8(&trace));
    // `--out` at a regular file fails creating the directory; a trace path
    // under it fails writing the trace.
    let cases: [(&[&str], &str); 2] = [
        (&["--out", &file, "table1"], &file),
        (&["--out", &out, "--trace", &trace, "smoke"], &trace),
    ];
    for (args, expect) in cases {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: panicked instead of an error:\n{stderr}");
        assert!(stderr.contains(&format!("error: {expect}: ")), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
