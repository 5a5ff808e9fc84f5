//! `scenario exp <family>`: one experiment family through the scenario
//! binary. Bad invocations fail before anything runs or is written; a good
//! one writes the same report bytes as `scenario run` over the same spec.

use dht_experiments::spec::Family;
use dht_scenario::{run_directory, BatchOptions};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dht-scenario-exp-{label}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .output()
        .expect("the scenario binary runs")
}

/// Runs `scenario exp` with `args` and an `--out` directory, and checks it
/// failed with `message` on stderr without creating that directory.
fn assert_rejected(label: &str, args: &[&str], message: &str) {
    let out = scratch(label);
    let mut full = vec!["exp"];
    full.extend_from_slice(args);
    full.extend_from_slice(&["--out", out.to_str().unwrap()]);
    let output = scenario(&full);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{label}: must fail");
    assert!(stderr.contains(message), "{label}: {stderr}");
    assert!(output.stdout.is_empty(), "{label}: nothing may run");
    assert!(!out.exists(), "{label}: nothing may be written");
}

fn repo_spec(file: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(file)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn unknown_family_is_rejected() {
    assert_rejected(
        "unknown",
        &["moebius", "--smoke"],
        "unknown experiment family",
    );
}

#[test]
fn spec_file_of_another_family_is_rejected() {
    let fig3 = repo_spec("fig3_hypercube_example.json");
    assert_rejected(
        "mismatch",
        &["fig6a", "--spec", &fig3],
        "is a fig3 scenario, not fig6a",
    );
}

#[test]
fn stray_positional_argument_is_rejected() {
    assert_rejected(
        "positional",
        &["fig3", "0.45", "--smoke"],
        "unexpected argument",
    );
}

#[test]
fn exp_writes_the_same_report_as_a_batch_run() {
    let base = scratch("match");
    let spec_dir = base.join("specs");
    fs::create_dir_all(&spec_dir).unwrap();
    let spec = Family::Fig6a.default_spec(true);
    let spec_file = spec_dir.join("fig6a.json");
    fs::write(&spec_file, spec.to_json_pretty()).unwrap();
    let batch = base.join("batch");
    run_directory(&spec_dir, &BatchOptions::new(&batch)).unwrap();

    let cli = base.join("cli");
    let output = scenario(&[
        "exp",
        "fig6a",
        "--spec",
        spec_file.to_str().unwrap(),
        "--compact",
        "--threads",
        "2",
        "--out",
        cli.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("Fig. 6(a)"), "{stdout}");
    for file in ["fig6a_failed_paths.json", "fig6a_failed_paths.csv"] {
        assert_eq!(
            fs::read(cli.join(file)).unwrap(),
            fs::read(batch.join(file)).unwrap(),
            "{file}"
        );
    }
    fs::remove_dir_all(&base).ok();
}
