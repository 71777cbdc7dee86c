//! Hostile command lines against the real `scenarios` and `repro`
//! binaries: every one must exit non-zero with a message naming the
//! problem, never with a panic. Plus the one seed-parsing contract the
//! CLI promises: `--seed` accepts `0x`-hex and decimal spellings of the
//! same number, and both produce the same artefact bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirtm_hostile_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `bin` with `args` in `dir` and asserts it fails cleanly: a
/// non-zero exit, `needle` on stderr, and no panic.
fn assert_named_failure(bin: &str, dir: &Path, args: &[&str], needle: &str) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must fail, got {:?}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr should name `{needle}`: {stderr}"
    );
}

#[test]
fn hostile_scenarios_input_exits_with_a_named_error() {
    let bin = env!("CARGO_BIN_EXE_scenarios");
    let dir = temp_dir("scenarios");
    std::fs::write(
        dir.join("zero.json"),
        r#"{"name": "zero", "base": {"name": "b", "grid": [4,4], "model": "ffw",
            "duration_ms": 60}, "replicates": 0,
            "seeds": {"scheme": "derived", "root": "7"}}"#,
    )
    .expect("write descriptor");
    let cases: [(&[&str], &str); 8] = [
        (&["run", "light-4x4", "--runs", "0"], "--runs"),
        (
            &[
                "dispatch",
                "light-4x4",
                "--runs",
                "0",
                "--local",
                "1",
                "--checkpoint",
                "work",
            ],
            "--runs",
        ),
        (
            &["run", "--sweep", "zero.json"],
            "`replicates` must be a positive integer",
        ),
        (&["fuzz", "--budget", "0"], "--budget"),
        (
            &["chaos-soak", "light-4x4", "--chaos-rate", "101"],
            "--chaos-rate",
        ),
        (&["run", "light-4x4", "--seed", "0xZZ"], "--seed"),
        (&["bench"], "unknown command `bench`"),
        (&["bench-dispatch"], "unknown command `bench-dispatch`"),
    ];
    for (args, needle) in cases {
        assert_named_failure(bin, &dir, args, needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_repro_input_exits_with_a_named_error() {
    let bin = env!("CARGO_BIN_EXE_repro");
    let dir = temp_dir("repro");
    assert_named_failure(bin, &dir, &["table1", "--runs", "0"], "--runs");
    // A regular file where the output directory should be: the table
    // is computed, but its CSV cannot reach disk.
    std::fs::write(dir.join("file"), "").expect("write blocker");
    assert_named_failure(
        bin,
        &dir,
        &["table1", "--runs", "1", "--out", "file/sub"],
        "cannot write the Table I CSV",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hex_and_decimal_seeds_write_the_same_artefact() {
    let bin = env!("CARGO_BIN_EXE_scenarios");
    let dir = temp_dir("seed");
    for (seed, out) in [("0x10", "hex.json"), ("16", "dec.json")] {
        let status = Command::new(bin)
            .args(["run", "light-4x4", "--runs", "1", "--threads", "1"])
            .args(["--seed", seed, "--out", out])
            .current_dir(&dir)
            .output()
            .expect("binary starts")
            .status;
        assert!(status.success(), "--seed {seed} failed: {status:?}");
    }
    let hex = std::fs::read(dir.join("hex.json")).expect("hex artefact");
    let dec = std::fs::read(dir.join("dec.json")).expect("decimal artefact");
    assert_eq!(hex, dec, "--seed 0x10 and --seed 16 must be the same sweep");
    let _ = std::fs::remove_dir_all(&dir);
}
