//! The command-line front end shared by `lab`, `fleet` and `serve`.
//!
//! The three tools differ only in their own flags and in what they run.
//! Everything else lives here once: flag-value parsing and validation,
//! the options every tool takes ([`Common`]), environment defaults
//! ([`env`]), the usage-error exit, the `--verify-determinism` byte
//! compare ([`same_outputs`]), the artifact and trajectory writer
//! ([`write_outputs`]) and table output ([`emit`]).
//!
//! The binaries pass their arguments in and keep their own wall-clock
//! timing: nothing here reads the process arguments or a clock.

use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use aitax_core::report::Table;

/// Reads the environment variable `key` parsed as `T`; `None` when it is
/// unset or does not parse.
pub fn env<T: FromStr>(key: &str) -> Option<T> {
    // aitax-allow(env-read): the AITAX_* harness knobs only pick defaults for worker count, seed, iterations and table format; every value that reaches an artifact is echoed in it or provably does not change its bytes
    std::env::var(key).ok()?.parse().ok()
}

/// A cursor over command-line arguments that parses flag values with the
/// tools' shared error messages.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag` parsed as `T`; `what` names the
    /// expected form in the error ("`--seed must be an integer`").
    pub fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be {what}"))
    }

    /// The value following a count flag, which must be at least 1.
    pub fn positive<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        let n: T = self.parse(flag, "a positive integer")?;
        if n == T::from(0) {
            return Err(format!("{flag} must be >= 1"));
        }
        Ok(n)
    }

    /// The value following a probability flag, which must be in [0,1].
    pub fn fraction(&mut self, flag: &str) -> Result<f64, String> {
        let p: f64 = self.parse(flag, "a number in [0,1]")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{flag} must be in [0,1]"));
        }
        Ok(p)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// The options every tool takes.
#[derive(Debug, PartialEq)]
pub struct Common {
    /// `--help` / `-h`: print the usage and exit.
    pub help: bool,
    /// `--threads N`: worker threads (default [`default_threads`]).
    ///
    /// [`default_threads`]: crate::default_threads
    pub threads: usize,
    /// `--seed N`: root seed (default `AITAX_SEED` or 1).
    pub seed: u64,
    /// `--out DIR`: artifact directory (default `target/<tool>`).
    pub out: PathBuf,
    /// `--bench PATH`: trajectory file (default `BENCH_<tool>.json`).
    pub bench: PathBuf,
    /// `--verify-determinism`: re-run serially and byte-compare.
    pub verify: bool,
}

impl Common {
    /// Parses `args` for `tool`. The common options are handled here;
    /// every other flag goes to `own`, which consumes its value and
    /// returns `Ok(false)` for a flag it does not know. Parsing stops at
    /// `--help`.
    pub fn parse(
        tool: &str,
        args: Vec<String>,
        mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<Common, String> {
        let mut common = Common {
            help: false,
            threads: crate::default_threads(),
            seed: env("AITAX_SEED").unwrap_or(1),
            out: PathBuf::from(format!("target/{tool}")),
            bench: PathBuf::from(format!("BENCH_{tool}.json")),
            verify: false,
        };
        let mut args = Args(args.into_iter());
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--help" | "-h" => {
                    common.help = true;
                    break;
                }
                "--threads" => common.threads = args.positive(&flag)?,
                "--seed" => common.seed = args.parse(&flag, "an integer")?,
                "--out" => common.out = args.value(&flag)?.into(),
                "--bench" => common.bench = args.value(&flag)?.into(),
                "--verify-determinism" => common.verify = true,
                _ if own(&flag, &mut args)? => {}
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(common)
    }
}

/// Reports a usage error — the message, then `usage` unless it is empty
/// — and returns exit code 2.
pub fn usage_error(message: impl Display, usage: &str) -> ExitCode {
    eprintln!("error: {message}");
    if !usage.is_empty() {
        eprintln!("{usage}");
    }
    ExitCode::from(2)
}

/// Whether a parallel run's rendered outputs equal the serial re-run's,
/// byte for byte; reports a determinism violation when they do not.
pub fn same_outputs(tool: &str, parallel: &[String], serial: &[String]) -> bool {
    let same = parallel == serial;
    if !same {
        eprintln!("{tool}: DETERMINISM VIOLATION — parallel artifacts differ from serial");
    }
    same
}

/// Writes the artifact `files` (name, contents) under `out` and the
/// trajectory file `bench`, creating directories as needed, and reports
/// each path written (or the failure) on stderr.
pub fn write_outputs(
    tool: &str,
    out: &Path,
    files: &[(String, String)],
    bench: &Path,
    bench_json: &str,
) -> io::Result<()> {
    let artifacts = fs::create_dir_all(out).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, contents)| fs::write(out.join(name), contents))
    });
    if let Err(e) = artifacts {
        eprintln!("{tool}: failed to write artifacts: {e}");
        return Err(e);
    }
    for (name, _) in files {
        eprintln!("{tool}: wrote {}", out.join(name).display());
    }
    let parent = bench.parent().filter(|p| !p.as_os_str().is_empty());
    let written = parent
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(bench, bench_json));
    if let Err(e) = written {
        eprintln!("{tool}: failed to write {}: {e}", bench.display());
        return Err(e);
    }
    eprintln!("{tool}: wrote {}", bench.display());
    Ok(())
}

/// Prints a table with a heading, or as TSV when `AITAX_TSV=1`.
pub fn emit(title: &str, table: &Table) {
    if env::<String>("AITAX_TSV").is_some_and(|v| v == "1") {
        print!("{}", table.render_tsv());
    } else {
        println!("## {title}\n");
        print!("{}", table.render_text());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args(
            list.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn parse(list: &[&str]) -> Result<Common, String> {
        let own = |flag: &str, args: &mut Args| match flag {
            "--name" => args.value(flag).map(|_| true),
            _ => Ok(false),
        };
        Common::parse("tool", list.iter().map(|s| s.to_string()).collect(), own)
    }

    #[test]
    fn flag_values_use_the_shared_messages() {
        assert_eq!(
            args(&[]).value("--grid"),
            Err("--grid needs a value".into())
        );
        assert_eq!(args(&["7"]).positive::<usize>("--iters"), Ok(7));
        assert_eq!(
            args(&["0"]).positive::<u64>("--requests"),
            Err("--requests must be >= 1".into())
        );
        assert_eq!(
            args(&["-3"]).positive::<usize>("--shards"),
            Err("--shards must be a positive integer".into())
        );
        assert_eq!(args(&["0.25"]).fraction("--fault-rate"), Ok(0.25));
        assert_eq!(
            args(&["2"]).fraction("--fault-rate"),
            Err("--fault-rate must be in [0,1]".into())
        );
        assert_eq!(
            args(&["x"]).fraction("--fault-rate"),
            Err("--fault-rate must be a number in [0,1]".into())
        );
        assert_eq!(
            args(&["x"]).parse::<u64>("--seed", "an integer"),
            Err("--seed must be an integer".into())
        );
    }

    #[test]
    fn common_options_default_per_tool_and_parse() {
        let c = parse(&[]).unwrap();
        assert!(!c.help && !c.verify);
        assert!(c.threads >= 1);
        assert_eq!(c.out, PathBuf::from("target/tool"));
        assert_eq!(c.bench, PathBuf::from("BENCH_tool.json"));
        let c = parse(&[
            "--threads",
            "3",
            "--seed",
            "9",
            "--out",
            "o",
            "--bench",
            "b.json",
            "--name",
            "n",
            "--verify-determinism",
        ])
        .unwrap();
        assert_eq!((c.threads, c.seed, c.verify), (3, 9, true));
        assert_eq!((c.out, c.bench), ("o".into(), "b.json".into()));
    }

    #[test]
    fn help_stops_parsing_and_unknown_flags_are_rejected() {
        assert!(parse(&["--help", "--bogus"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        assert_eq!(
            parse(&["--bogus", "--help"]),
            Err("unknown argument '--bogus'".into())
        );
        assert_eq!(
            parse(&["--threads", "0"]),
            Err("--threads must be >= 1".into())
        );
    }

    #[test]
    fn same_outputs_compares_every_file() {
        let run = |csv: &str| vec!["json".to_string(), csv.to_string(), "bench".to_string()];
        assert!(same_outputs("tool", &run("a"), &run("a")));
        assert!(!same_outputs("tool", &run("a"), &run("b")));
    }

    #[test]
    fn write_outputs_writes_artifacts_and_trajectory() {
        let dir = std::env::temp_dir().join(format!("aitax-cli-test-{}", std::process::id()));
        let out = dir.join("out");
        let bench = dir.join("nested").join("BENCH_tool.json");
        let files = [("a.json".to_string(), "{}".to_string())];
        write_outputs("tool", &out, &files, &bench, "[]").unwrap();
        assert_eq!(fs::read_to_string(out.join("a.json")).unwrap(), "{}");
        assert_eq!(fs::read_to_string(&bench).unwrap(), "[]");
        // A file in the way of the artifact directory is an error.
        assert!(write_outputs("tool", &bench, &files, &bench, "[]").is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
