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
        let (ok, _, stderr) = run(&[sub, "--spec", "fp:e4m3", "--family", "fp", flag, value]);
        assert!(!ok, "{sub} {flag} {value} should fail");
        let needle = format!("bad {flag} value `{value}`");
        assert!(stderr.contains(&needle), "{sub} {flag} {value}: stderr {stderr}");
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
