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
use aitax_lab::cli::{self, Common};
use aitax_lab::{artifact, chrome, render, scenarios, Grid, SweepReport};

/// The lab-specific options.
struct Opts {
    grid: Option<String>,
    list: bool,
    repeats: Option<usize>,
    iters: usize,
    trace: Option<PathBuf>,
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

fn parse(args: Vec<String>) -> Result<(Common, Opts), String> {
    let mut opts = Opts {
        grid: None,
        list: false,
        repeats: None,
        iters: cli::env("AITAX_ITERS").unwrap_or(30),
        trace: None,
    };
    let common = Common::parse("lab", args, |flag, args| {
        match flag {
            "--grid" => opts.grid = Some(args.value(flag)?),
            "--list" => opts.list = true,
            "--repeats" => opts.repeats = Some(args.positive(flag)?),
            "--iters" => opts.iters = args.positive(flag)?,
            "--trace" => opts.trace = Some(args.value(flag)?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((common, opts))
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

/// The rendered artifacts and trajectory file, in write order.
fn outputs(report: &SweepReport) -> [String; 3] {
    [
        artifact::sweep_json(report),
        artifact::sweep_csv(report),
        artifact::bench_json(report),
    ]
}

/// Runs `grid` on `threads` workers and returns the aggregate plus the
/// wall-clock seconds the sweep took.
fn timed_sweep(grid: &Grid, threads: usize) -> (SweepReport, f64) {
    let start = Instant::now();
    let report = aitax_lab::sweep(grid, threads);
    (report, start.elapsed().as_secs_f64())
}

/// Exports the Chrome trace of the grid's first job (tracing forced).
fn export_trace(grid: &Grid, path: &PathBuf) -> std::io::Result<()> {
    let mut job = grid.expand().swap_remove(0);
    job.scenario = job.scenario.tracing(true);
    let report = job.config().run();
    let trace = report.trace.expect("tracing was forced on");
    let name = format!("{} · {}", grid.name, job.scenario.label);
    std::fs::write(path, chrome::chrome_trace(&trace, &name))
}

fn main() -> ExitCode {
    let (common, opts) = match parse(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => return cli::usage_error(e, usage()),
    };

    if common.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    if opts.list {
        for name in scenarios::NAMES {
            let g = scenarios::by_name(name, opts.iters, common.seed)
                .expect("every listed grid is registered");
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
        return cli::usage_error("--grid is required", usage());
    };
    let Some(mut grid) = scenarios::by_name(name, opts.iters, common.seed) else {
        let available = scenarios::NAMES.join(", ");
        return cli::usage_error(
            format!("unknown grid '{name}' (available: {available})"),
            "",
        );
    };
    if let Some(r) = opts.repeats {
        grid = grid.repeats(r);
    }

    let (report, secs) = timed_sweep(&grid, common.threads);
    eprintln!(
        "lab: grid '{}' — {} jobs on {} thread(s) in {:.2}s wall",
        grid.name, report.jobs, common.threads, secs
    );
    let rendered = outputs(&report);

    if common.verify {
        let (serial, serial_secs) = timed_sweep(&grid, 1);
        if !cli::same_outputs("lab", &rendered, &outputs(&serial)) {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "lab: determinism verified ({} thread(s) vs serial, byte-identical); \
             speedup {:.2}x ({:.2}s -> {:.2}s)",
            common.threads,
            serial_secs / secs.max(1e-9),
            serial_secs,
            secs
        );
    }

    cli::emit(
        &format!("lab sweep — {}", grid.name),
        &render_table(name, &report),
    );

    let [json, csv, bench] = rendered;
    let files = [
        (format!("lab_{}.json", report.grid), json),
        (format!("lab_{}.csv", report.grid), csv),
    ];
    if cli::write_outputs("lab", &common.out, &files, &common.bench, &bench).is_err() {
        return ExitCode::FAILURE;
    }

    if let Some(path) = &opts.trace {
        if let Err(e) = export_trace(&grid, path) {
            eprintln!("lab: failed to write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("lab: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
