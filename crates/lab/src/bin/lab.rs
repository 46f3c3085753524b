//! `lab` — run a named scenario grid through the sweep engine.
//!
//! ```text
//! cargo run --release --bin lab -- --grid fig11 --threads 4
//! ```
//!
//! Prints the grid's presentation table, writes `lab_<grid>.json` /
//! `lab_<grid>.csv` under `--out` and the `BENCH_lab.json`
//! perf-trajectory file. Artifacts contain only simulated metrics, so
//! their bytes are identical for any `--threads`; wall-clock timing of
//! the sweep itself goes to stderr. `--verify-determinism` proves the
//! property on the spot by re-running serially and comparing bytes.
//!
//! Environment: `AITAX_ITERS`, `AITAX_SEED` (defaults for `--iters` /
//! `--seed`), `AITAX_THREADS` (default for `--threads`), `AITAX_TSV=1`
//! (TSV table output).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use aitax_core::report::Table;
use aitax_lab::{artifact, chrome, render, scenarios, Grid, SweepReport};

struct Opts {
    grid: Option<String>,
    list: bool,
    help: bool,
    threads: usize,
    repeats: Option<usize>,
    iters: usize,
    seed: u64,
    out: PathBuf,
    bench: PathBuf,
    trace: Option<PathBuf>,
    verify: bool,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses the value of a count flag, which must be at least 1.
fn count<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if n == T::from(0) => Err(format!("{flag} must be >= 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} must be a positive integer")),
    }
}

fn usage() -> &'static str {
    "usage: lab --grid NAME [--threads N] [--repeats N] [--iters N] [--seed N]\n\
     \x20          [--out DIR] [--bench PATH] [--trace PATH] [--verify-determinism]\n\
     \x20      lab --list\n\
     \n\
     options:\n\
     \x20 --grid NAME           the sweep grid to run (see --list)\n\
     \x20 --list                print the grid names and sizes and exit\n\
     \x20 --threads N           worker threads (default: all cores); artifact bytes\n\
     \x20                       do not depend on this\n\
     \x20 --repeats N           override the grid's repeat count\n\
     \x20 --iters N             iterations per scenario (default: AITAX_ITERS or 30)\n\
     \x20 --seed N              root seed (default: AITAX_SEED or 1)\n\
     \x20 --out DIR             artifact directory (default target/lab)\n\
     \x20 --bench PATH          trajectory file (default BENCH_lab.json)\n\
     \x20 --trace PATH          export a Chrome trace of the grid's first job\n\
     \x20 --verify-determinism  re-run serially and byte-compare artifacts (~2x runtime)\n\
     \x20 --help, -h            print this help"
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        grid: None,
        list: false,
        help: false,
        threads: aitax_lab::default_threads(),
        repeats: None,
        iters: env_parse("AITAX_ITERS", 30),
        seed: env_parse("AITAX_SEED", 1),
        out: PathBuf::from("target/lab"),
        bench: PathBuf::from("BENCH_lab.json"),
        trace: None,
        verify: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                opts.help = true;
                return Ok(opts);
            }
            "--grid" => opts.grid = Some(value("--grid")?),
            "--list" => opts.list = true,
            "--threads" => opts.threads = count(arg, &value(arg)?)?,
            "--repeats" => opts.repeats = Some(count(arg, &value(arg)?)?),
            "--iters" => opts.iters = count(arg, &value(arg)?)?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--bench" => opts.bench = PathBuf::from(value("--bench")?),
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--verify-determinism" => opts.verify = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

/// The presentation table each grid renders best with.
fn render_table(grid_name: &str, report: &SweepReport) -> Table {
    match grid_name {
        "fig10" => render::multitenancy_table(report),
        "table1" => render::model_latency_table(report),
        "table2" => render::platform_table(report),
        "faults" => render::fault_table(report),
        _ => render::distribution_table(report),
    }
}

fn emit(title: &str, table: &Table) {
    if std::env::var("AITAX_TSV")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        print!("{}", table.render_tsv());
    } else {
        println!("## {title}\n");
        print!("{}", table.render_text());
        println!();
    }
}

/// Runs `grid` on `threads` workers and returns the aggregate plus the
/// wall-clock seconds the sweep took.
fn sweep(grid: &Grid, threads: usize) -> (SweepReport, f64) {
    let start = Instant::now();
    let results = aitax_lab::run_jobs(grid.expand(), threads);
    let secs = start.elapsed().as_secs_f64();
    (SweepReport::aggregate(grid, &results), secs)
}

/// Exports the Chrome trace of the grid's first job (tracing forced).
fn export_trace(grid: &Grid, path: &PathBuf) -> std::io::Result<()> {
    let mut jobs = grid.expand();
    let mut job = jobs.remove(0);
    job.scenario = job.scenario.clone().tracing(true);
    let report = {
        let s = &job.scenario;
        let mut cfg = aitax_core::pipeline::E2eConfig::new(s.model, s.dtype)
            .engine(s.engine)
            .run_mode(s.mode)
            .soc(s.soc)
            .iterations(s.iterations)
            .seed(job.seed)
            .preproc_on_dsp(s.preproc_on_dsp)
            .tracing(true);
        if let Some((count, engine)) = s.background {
            cfg = cfg.background(count, engine);
        }
        if let Some(fault) = &s.fault {
            cfg = cfg.fault_plan(fault.plan(job.seed));
        }
        cfg.run()
    };
    let trace = report.trace.expect("tracing was forced on");
    let name = format!("{} · {}", grid.name, job.scenario.label);
    std::fs::write(path, chrome::chrome_trace(&trace, &name))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    if opts.list {
        for name in scenarios::NAMES {
            let g = scenarios::by_name(name, opts.iters, opts.seed).unwrap();
            println!(
                "{name:<8} {} scenarios × {} repeats = {} jobs",
                g.scenarios().len(),
                g.repeats,
                g.job_count()
            );
        }
        return ExitCode::SUCCESS;
    }

    let Some(name) = opts.grid.as_deref() else {
        eprintln!("error: --grid is required\n{}", usage());
        return ExitCode::from(2);
    };
    let Some(mut grid) = scenarios::by_name(name, opts.iters, opts.seed) else {
        eprintln!(
            "error: unknown grid '{name}' (available: {})",
            scenarios::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(r) = opts.repeats {
        grid = grid.repeats(r);
    }

    let (report, secs) = sweep(&grid, opts.threads);
    eprintln!(
        "lab: grid '{}' — {} jobs on {} thread(s) in {:.2}s wall",
        grid.name, report.jobs, opts.threads, secs
    );

    if opts.verify {
        let (serial, serial_secs) = sweep(&grid, 1);
        if artifact::sweep_json(&serial) != artifact::sweep_json(&report)
            || artifact::bench_json(&serial) != artifact::bench_json(&report)
        {
            eprintln!("lab: DETERMINISM VIOLATION — parallel artifacts differ from serial");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "lab: determinism verified ({} thread(s) vs serial, byte-identical); \
             speedup {:.2}x ({:.2}s -> {:.2}s)",
            opts.threads,
            serial_secs / secs.max(1e-9),
            serial_secs,
            secs
        );
    }

    emit(
        &format!("lab sweep — {}", grid.name),
        &render_table(name, &report),
    );

    match artifact::write_artifacts(&report, &opts.out) {
        Ok(paths) => {
            for p in paths {
                eprintln!("lab: wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("lab: failed to write artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = artifact::write_bench_json(&report, &opts.bench) {
        eprintln!("lab: failed to write {}: {e}", opts.bench.display());
        return ExitCode::FAILURE;
    }
    eprintln!("lab: wrote {}", opts.bench.display());

    if let Some(path) = &opts.trace {
        if let Err(e) = export_trace(&grid, path) {
            eprintln!("lab: failed to write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("lab: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
