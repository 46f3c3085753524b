//! Degenerate counts are usage errors: the `fleet` binary rejects them
//! at parse time with exit code 2 instead of rendering a p99 of zero.

use std::process::Command;

#[test]
fn zero_requests_is_rejected() {
    // Artifacts go to a scratch directory, in case the arguments are
    // ever accepted.
    let scratch = concat!(env!("CARGO_TARGET_TMPDIR"), "/fleet-cli");
    let bench = format!("{scratch}/BENCH_fleet.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--population", "1", "--threads", "1", "--requests", "0"])
        .args(["--out", scratch, "--bench", &bench])
        .output()
        .expect("the fleet binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--requests must be >= 1"), "{stderr}");
}
