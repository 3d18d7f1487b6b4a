//! Smoke tests of the `goldeneye` CLI (fast subcommands only — the
//! model-training subcommands are exercised by examples and benches).

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_goldeneye"))
        .args(args)
        .output()
        .expect("failed to launch CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_lists_subcommands() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    for sub in ["ranges", "inspect", "quantize", "evaluate", "campaign", "dse"] {
        assert!(stdout.contains(sub), "help missing `{sub}`");
    }
}

#[test]
fn ranges_prints_table1() {
    let (ok, stdout, _) = run(&["ranges"]);
    assert!(ok);
    assert!(stdout.contains("FP32 w/ DN"));
    assert!(stdout.contains("AFP8"));
    assert_eq!(stdout.lines().count(), 14); // header + rule + 12 rows
}

#[test]
fn inspect_reports_format_properties() {
    let (ok, stdout, _) = run(&["inspect", "bfp:e5m5:tensor"]);
    assert!(ok);
    assert!(stdout.contains("bfp_e5m5_btensor"));
    assert!(stdout.contains("injectable"));
    let (ok, stdout, _) = run(&["inspect", "fp16"]);
    assert!(ok);
    assert!(stdout.contains("none"), "fp16 has no metadata: {stdout}");
}

#[test]
fn quantize_shows_values_and_bits() {
    let (ok, stdout, _) = run(&["quantize", "fp:e4m3", "0.1,1.0,300"]);
    assert!(ok);
    assert!(stdout.contains("240"), "300 must saturate to 240: {stdout}");
    assert!(stdout.contains("0b"), "bit images missing");
}

#[test]
fn quantize_int8_shows_scale_metadata() {
    let (ok, stdout, _) = run(&["quantize", "int:8", "1.0,-2.0,0.5"]);
    assert!(ok);
    assert!(stdout.contains("metadata"), "scale register missing: {stdout}");
}

#[test]
fn bad_spec_fails_cleanly() {
    let (ok, _, stderr) = run(&["inspect", "nonsense:42"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "stderr: {stderr}");
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
}

/// Malformed numeric flags are errors, not silent defaults. Each check
/// runs before the demo model trains, so these stay fast.
#[test]
fn malformed_numeric_flags_fail_cleanly() {
    for (sub, flag, value) in [
        ("evaluate", "--epochs", "x"),
        ("campaign", "--injections", "abc"),
        ("dse", "--drop", "2%"),
        ("dse", "--jobs", "two"),
    ] {
        let required = if sub == "dse" { ["--family", "fp"] } else { ["--spec", "fp:e4m3"] };
        let (ok, _, stderr) = run(&[sub, required[0], required[1], flag, value]);
        assert!(!ok, "{sub} {flag} {value} should fail");
        let needle = format!("bad {flag} value `{value}`");
        assert!(stderr.contains(&needle), "{sub} {flag} {value}: stderr {stderr}");
    }
}

/// `evaluate`, `campaign` and `dse` read only the flags they declare: a
/// misspelt flag, a flag without a value (or with another flag as its
/// value), a repeated flag or a stray positional exits 1 and names the
/// token, before the demo model trains.
#[test]
fn undeclared_or_malformed_flags_fail_cleanly() {
    for (args, needle) in [
        (&["campaign", "--spec", "fp:e4m3", "--injection", "3"][..], "unknown flag `--injection`"),
        (&["evaluate", "--spec", "int:8", "--jbos", "2"], "unknown flag `--jbos`"),
        (&["dse", "--family", "fp", "--spec", "fp:e4m3"], "unknown flag `--spec`"),
        (&["dse", "--family"], "--family needs a value"),
        (&["campaign", "--spec", "--jobs", "2"], "--spec needs a value"),
        (&["evaluate", "--spec", "int:8", "--jobs", "1", "--jobs", "2"], "--jobs given twice"),
        (&["dse", "--family", "fp", "extra"], "unexpected argument `extra`"),
        (&["campaign", "extra", "--spec", "fp:e4m3"], "unexpected argument `extra`"),
        (&["evaluate", "--spec", "int:8", "--manifest", "--jobs"], "--manifest needs a value"),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(stderr.contains(needle), "{args:?}: want {needle:?} in stderr {stderr}");
        assert!(!stderr.contains("training"), "{args:?} trained before failing: {stderr}");
    }
}

#[test]
fn drop_outside_unit_interval_is_rejected() {
    for v in ["-0.1", "1.5", "NaN", "inf"] {
        let (ok, _, stderr) = run(&["dse", "--family", "fp", "--drop", v]);
        assert!(!ok, "--drop {v} should fail");
        let needle = "--drop needs a fraction in [0, 1]";
        assert!(stderr.contains(needle), "--drop {v}: stderr {stderr}");
    }
}

/// `store ls|verify|gc` refuse a path that holds no store and create
/// nothing there; `--store` on any other subcommand creates the store.
#[test]
fn store_maintenance_refuses_a_missing_store() {
    let dir = std::env::temp_dir().join(format!("ge_cli_no_store_{}", std::process::id()));
    let path = dir.to_str().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    for action in ["ls", "verify", "gc"] {
        let (ok, _, stderr) = run(&["store", action, "--store", path]);
        assert!(!ok, "store {action} on a missing store should fail");
        assert!(stderr.contains("no store at"), "store {action}: stderr {stderr}");
        assert!(!dir.exists(), "store {action} created {path}");
    }
    let (ok, _, _) = run(&["inspect", "fp16", "--store", path]);
    assert!(ok);
    assert!(dir.join("objects").is_dir(), "--store on a run must create the store");
    let (ok, stdout, _) = run(&["store", "ls", "--store", path]);
    assert!(ok, "store ls on the created store");
    assert!(stdout.contains("0 checkpoint(s)"), "stdout {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `conformance`, `trace` and `store` accept only the flags, switches and
/// positionals they declare: anything else exits 1, names the token and
/// runs nothing (`conformance --all --reprot r.jsonl` used to run the
/// whole zoo, write no report and exit 0).
#[test]
fn maintenance_subcommands_refuse_undeclared_arguments() {
    let dir = std::env::temp_dir().join(format!("ge_cli_strict_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (report, manifest) = (file("r.jsonl"), file("m.json"));
    for (args, needle) in [
        (vec!["conformance", "--all", "--reprot", &report], "unknown flag `--reprot`"),
        (vec!["conformance", "fp8", "--report"], "--report needs a value"),
        (vec!["conformance", "--all", "--all"], "--all given twice"),
        (vec!["trace", "export", "--foldd", &manifest], "unknown flag `--foldd`"),
        (vec!["trace", "export", "--folded", &manifest, "extra"], "unexpected argument `extra`"),
        (vec!["trace", "stats", &report, &manifest], "unexpected argument"),
        (
            vec!["trace", "diff", &report, &manifest, "--thresold", "0.2"],
            "unknown flag `--thresold`",
        ),
        (vec!["store", "ls", "--bogus"], "unknown flag `--bogus`"),
        (vec!["store", "ls", "extra"], "unexpected argument `extra`"),
    ] {
        let (ok, stdout, stderr) = run(&args);
        assert!(!ok, "{args:?} should fail");
        assert!(stderr.contains(needle), "{args:?}: want {needle:?} in stderr {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran before failing: {stdout}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args:?} wrote a file");
    }
    // A declared flag and a positional spec still parse, in either order.
    let (ok, stdout, stderr) = run(&["conformance", "--report", &report, "fp8"]);
    assert!(ok, "conformance fp8 --report: {stderr}");
    assert!(stdout.contains("1 format(s)"), "stdout {stdout}");
    assert!(std::fs::metadata(&report).unwrap().len() > 0, "no report written");
    std::fs::remove_dir_all(&dir).unwrap();
}
