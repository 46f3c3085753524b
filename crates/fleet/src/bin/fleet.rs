//! `fleet` — run a sampled device population through the fleet engine.
//!
//! ```text
//! cargo run --release --bin fleet -- --population 4096 --requests 1000000
//! ```
//!
//! Prints a cohort summary, writes `fleet_<name>.json` /
//! `fleet_<name>.csv` under `--out` and the `BENCH_fleet.json`
//! population-trajectory file. Artifacts contain only simulated metrics,
//! so their bytes are identical for any `--threads` and any `--shards`
//! split; wall-clock timing of the run itself goes to stderr.
//! `--verify-determinism` proves the property on the spot by re-running
//! serially under a different shard split and comparing bytes.
//!
//! Environment: `AITAX_SEED` (default for `--seed`), `AITAX_THREADS`
//! (default for `--threads`).

use std::process::ExitCode;
use std::time::Instant;

use aitax_fleet::{artifact, FleetReport, PopulationSpec};
use aitax_lab::cli::{self, Common};

/// The fleet-specific options.
struct Opts {
    name: String,
    population: usize,
    requests: u64,
    shards: usize,
    fault_rate: f64,
    multi_tenant_rate: f64,
}

fn usage() -> &'static str {
    "usage: fleet [--population N] [--requests N] [--shards N] [--threads N] [--seed N]\n\
     \x20            [--name S] [--fault-rate F] [--multi-tenant-rate F] [--out DIR]\n\
     \x20            [--bench PATH] [--verify-determinism] [--help]\n\
     \n\
     options:\n\
     \x20 --population N        devices to sample (default 256)\n\
     \x20 --requests N          total requests across the fleet (default 100000)\n\
     \x20 --shards N            deterministic work split (default 64); artifact bytes\n\
     \x20                       do not depend on this\n\
     \x20 --threads N           worker threads (default: AITAX_THREADS or all cores)\n\
     \x20 --seed N              root seed (default: AITAX_SEED or 1)\n\
     \x20 --name S              population name for artifacts (default 'default')\n\
     \x20 --fault-rate F        per-request fault probability in [0,1] (default 0.03)\n\
     \x20 --multi-tenant-rate F probability a device runs a co-resident tenant\n\
     \x20                       workload, in [0,1] (default 0: single-tenant)\n\
     \x20 --out DIR             artifact directory (default target/fleet)\n\
     \x20 --bench PATH          trajectory file (default BENCH_fleet.json)\n\
     \x20 --verify-determinism  re-run serially under a different shard split and\n\
     \x20                       byte-compare artifacts (roughly doubles the runtime)\n\
     \x20 --help, -h            print this help"
}

fn parse(args: Vec<String>) -> Result<(Common, Opts), String> {
    let mut opts = Opts {
        name: "default".into(),
        population: 256,
        requests: 100_000,
        shards: 64,
        fault_rate: 0.03,
        multi_tenant_rate: 0.0,
    };
    let common = Common::parse("fleet", args, |flag, args| {
        match flag {
            "--name" => opts.name = args.value(flag)?,
            "--population" => opts.population = args.positive(flag)?,
            "--requests" => opts.requests = args.positive(flag)?,
            "--shards" => opts.shards = args.positive(flag)?,
            "--fault-rate" => opts.fault_rate = args.fraction(flag)?,
            "--multi-tenant-rate" => opts.multi_tenant_rate = args.fraction(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((common, opts))
}

/// Runs the fleet and returns the aggregate plus wall-clock seconds.
fn simulate(
    spec: &PopulationSpec,
    requests: u64,
    shards: usize,
    threads: usize,
) -> (FleetReport, f64) {
    let start = Instant::now();
    let partials = aitax_fleet::run_fleet(spec, requests, shards, threads);
    let secs = start.elapsed().as_secs_f64();
    (FleetReport::aggregate(spec, &partials), secs)
}

/// The rendered artifacts and trajectory file, in write order.
fn outputs(report: &FleetReport) -> [String; 3] {
    [
        artifact::fleet_json(report),
        artifact::fleet_csv(report),
        artifact::bench_json(report),
    ]
}

fn print_summary(report: &FleetReport) {
    let t = &report.total;
    println!(
        "## fleet '{}' — {} devices, {} requests\n",
        report.population, report.devices, report.requests
    );
    println!(
        "{:<10} {:<18} {:>7} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "group", "label", "devices", "p50 ms", "p95 ms", "p99 ms", "mean ms", "tax", "energy mJ"
    );
    let row = |group: &str, label: &str, c: &aitax_fleet::Cohort| {
        println!(
            "{:<10} {:<18} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.3} {:>10.3}",
            group,
            label,
            c.devices,
            c.latency.p50_ms(),
            c.latency.p95_ms(),
            c.latency.p99_ms(),
            c.latency.mean(),
            c.tax.mean(),
            c.energy_mj.mean(),
        );
    };
    row("total", "fleet", t);
    for (label, c) in &report.by_chipset {
        row("chipset", label, c);
    }
    for (label, c) in &report.by_thermal {
        row("thermal", label, c);
    }
    for (label, c) in &report.by_engine {
        row("engine", label, c);
    }
    println!();
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

    let spec = PopulationSpec::new(opts.name.clone())
        .devices(opts.population)
        .seed(common.seed)
        .fault_rate(opts.fault_rate)
        .multi_tenant_rate(opts.multi_tenant_rate);

    let (report, secs) = simulate(&spec, opts.requests, opts.shards, common.threads);
    eprintln!(
        "fleet: population '{}' — {} devices / {} requests on {} shard(s) × {} thread(s) \
         in {:.2}s wall ({:.0} req/s)",
        spec.name,
        report.devices,
        report.requests,
        opts.shards,
        common.threads,
        secs,
        report.requests as f64 / secs.max(1e-9),
    );
    let rendered = outputs(&report);

    if common.verify {
        // Serial re-run under a different shard split: byte-identity
        // must hold across BOTH axes at once.
        let alt_shards = if opts.shards == 1 { 7 } else { 1 };
        let (serial, serial_secs) = simulate(&spec, opts.requests, alt_shards, 1);
        if !cli::same_outputs("fleet", &rendered, &outputs(&serial)) {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fleet: determinism verified ({} shard(s) × {} thread(s) vs {} × 1, \
             byte-identical); speedup {:.2}x ({:.2}s -> {:.2}s)",
            opts.shards,
            common.threads,
            alt_shards,
            serial_secs / secs.max(1e-9),
            serial_secs,
            secs
        );
    }

    print_summary(&report);

    let [json, csv, bench] = rendered;
    let files = [
        (format!("fleet_{}.json", report.population), json),
        (format!("fleet_{}.csv", report.population), csv),
    ];
    match cli::write_outputs("fleet", &common.out, &files, &common.bench, &bench) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}
