//! Command-line surface checks for the `lab`, `fleet` and `serve`
//! binaries: run one invocation, or render a table of invalid ones.
//!
//! A usage-error table has one TSV row per invocation — the arguments,
//! the exit code and the first stderr line — so a golden of it pins
//! every rejection message a tool prints.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` from the working directory `dir` (created if
/// missing, so an accidentally accepted invocation writes its default
/// artifacts there) and returns its exit code, stdout and stderr.
pub fn run_cli(bin: &str, dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    std::fs::create_dir_all(dir).expect("create the CLI scratch directory");
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs every invocation in `cases` and renders the usage-error table.
pub fn usage_error_table(bin: &str, dir: &Path, cases: &[&[&str]]) -> String {
    let mut tsv = String::from("args\texit\tfirst_stderr_line\n");
    for args in cases {
        let (code, _, stderr) = run_cli(bin, dir, args);
        let code = code.map_or_else(|| "signal".to_string(), |c| c.to_string());
        let first = stderr.lines().next().unwrap_or("");
        tsv.push_str(&format!("{}\t{code}\t{first}\n", args.join(" ")));
    }
    tsv
}
