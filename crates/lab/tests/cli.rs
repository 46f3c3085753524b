//! The `lab` command-line surface: its `--help` text, how it rejects
//! invalid invocations (exit code 2, usage on stderr) and `--trace`.

use std::path::PathBuf;

use aitax_testkit::{assert_valid_json, check_golden, run_cli, usage_error_table, Tolerance};

const LAB: &str = env!("CARGO_BIN_EXE_lab");

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lab-cli")
}

#[test]
fn help_text_is_pinned() {
    let (code, stdout, _) = run_cli(LAB, &scratch(), &["--help"]);
    assert_eq!(code, Some(0));
    check_golden("cli_lab_help", &stdout, Tolerance::EXACT);
}

#[test]
fn usage_errors_are_pinned() {
    let cases: &[&[&str]] = &[
        &[],
        &["--grid", "smoke", "--iters", "0"],
        &["--grid", "smoke", "--repeats", "0"],
        &["--grid", "smoke", "--threads", "0"],
        &["--grid", "smoke", "--threads", "-1"],
        &["--grid", "smoke", "--iters", "many"],
        &["--grid", "smoke", "--seed", "x"],
        &["--grid", "smoke", "--seed", "-1"],
        &["--grid", "nosuch"],
        &["--grid", "smoke", "--bogus"],
        &["--bogus", "--help"],
        &["--grid"],
        &["--grid", "smoke", "--seed"],
        &["--grid", "smoke", "--trace"],
    ];
    let table = usage_error_table(LAB, &scratch(), cases);
    check_golden("cli_lab_usage_errors", &table, Tolerance::EXACT);
}

#[test]
fn trace_exports_the_first_job() {
    let dir = scratch().join("trace");
    let trace = dir.join("smoke.trace.json");
    let (out, bench) = (dir.join("out"), dir.join("BENCH_lab.json"));
    let (code, _, stderr) = run_cli(
        LAB,
        &scratch(),
        &[
            "--grid",
            "smoke",
            "--iters",
            "2",
            "--threads",
            "1",
            "--out",
            out.to_str().unwrap(),
            "--bench",
            bench.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let json = std::fs::read_to_string(&trace).expect("the trace was written");
    assert_valid_json("lab --trace", &json);
    assert!(
        json.contains("smoke · cpu-f32"),
        "trace names the first job"
    );
}
