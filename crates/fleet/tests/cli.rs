//! The `fleet` command-line surface: its `--help` text and how it
//! rejects invalid invocations (exit code 2, usage on stderr) — a
//! degenerate count is rejected at parse time instead of rendering a
//! p99 of zero.

use std::path::PathBuf;

use aitax_testkit::{check_golden, run_cli, usage_error_table, Tolerance};

const FLEET: &str = env!("CARGO_BIN_EXE_fleet");

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fleet-cli")
}

#[test]
fn help_text_is_pinned() {
    let (code, stdout, _) = run_cli(FLEET, &scratch(), &["--help"]);
    assert_eq!(code, Some(0));
    check_golden("cli_fleet_help", &stdout, Tolerance::EXACT);
}

#[test]
fn usage_errors_are_pinned() {
    let cases: &[&[&str]] = &[
        &["--requests", "0"],
        &["--population", "0"],
        &["--shards", "0"],
        &["--threads", "0"],
        &["--population", "lots"],
        &["--seed", "x"],
        &["--fault-rate", "2"],
        &["--fault-rate", "-0.5"],
        &["--fault-rate", "often"],
        &["--multi-tenant-rate", "1.5"],
        &["--multi-tenant-rate", "x"],
        &["--bogus"],
        &["--bogus", "--help"],
        &["--name"],
        &["--requests"],
    ];
    let table = usage_error_table(FLEET, &scratch(), cases);
    check_golden("cli_fleet_usage_errors", &table, Tolerance::EXACT);
}
