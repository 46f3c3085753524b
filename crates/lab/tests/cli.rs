//! Degenerate counts are usage errors: the `lab` binary rejects them at
//! parse time with exit code 2 instead of rendering an empty sweep.

use std::process::Command;

/// Runs `lab` with `args` (artifacts routed to a scratch directory, in
/// case the arguments are ever accepted) and returns its exit code and
/// stderr.
fn lab(args: &[&str]) -> (Option<i32>, String) {
    let scratch = concat!(env!("CARGO_TARGET_TMPDIR"), "/lab-cli");
    let bench = format!("{scratch}/BENCH_lab.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lab"))
        .args([
            "--grid",
            "smoke",
            "--threads",
            "1",
            "--out",
            scratch,
            "--bench",
            &bench,
        ])
        .args(args)
        .output()
        .expect("the lab binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_iters_is_rejected() {
    let (code, stderr) = lab(&["--iters", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--iters must be >= 1"), "{stderr}");
}

#[test]
fn zero_repeats_is_rejected() {
    let (code, stderr) = lab(&["--repeats", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--repeats must be >= 1"), "{stderr}");
}
