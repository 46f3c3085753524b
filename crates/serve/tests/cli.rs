//! The `serve` command-line surface: its `--help` text, how it rejects
//! invalid invocations (exit code 2, usage on stderr) and the worker
//! count it reports.

use std::path::PathBuf;

use aitax_testkit::{check_golden, run_cli, usage_error_table, Tolerance};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-cli")
}

#[test]
fn help_text_is_pinned() {
    let (code, stdout, _) = run_cli(SERVE, &scratch(), &["--help"]);
    assert_eq!(code, Some(0));
    check_golden("cli_serve_help", &stdout, Tolerance::EXACT);
}

#[test]
fn usage_errors_are_pinned() {
    let cases: &[&[&str]] = &[
        &["--tenants", "0"],
        &["--requests", "0"],
        &["--threads", "0"],
        &["--tenants", "x"],
        &["--seed", "x"],
        &["--qos", "bogus"],
        &["--qos", "interactive,bogus"],
        &["--arrival-rate", "0"],
        &["--arrival-rate", "inf"],
        &["--arrival-rate", "fast"],
        &["--admission", "x"],
        &["--scenario", "nosuch"],
        &["--bogus"],
        &["--bogus", "--help"],
        &["--scenario"],
        &["--qos"],
    ];
    let table = usage_error_table(SERVE, &scratch(), cases);
    check_golden("cli_serve_usage_errors", &table, Tolerance::EXACT);
}

#[test]
fn zero_threads_env_runs_on_one_thread() {
    let dir = scratch().join("threads");
    let (out, bench) = (dir.join("out"), dir.join("BENCH_serve.json"));
    std::fs::create_dir_all(&dir).expect("create scratch");
    let output = std::process::Command::new(SERVE)
        .args(["--scenario", "smoke", "--out", out.to_str().unwrap()])
        .args(["--bench", bench.to_str().unwrap()])
        .env("AITAX_THREADS", "0")
        .current_dir(&dir)
        .output()
        .expect("the serve binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains(" on 1 thread(s) "), "{stderr}");
}
