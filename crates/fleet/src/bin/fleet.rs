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

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use aitax_fleet::{artifact, FleetReport, PopulationSpec};

struct Opts {
    help: bool,
    name: String,
    population: usize,
    requests: u64,
    shards: usize,
    threads: usize,
    seed: u64,
    fault_rate: f64,
    multi_tenant_rate: f64,
    out: PathBuf,
    bench: PathBuf,
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

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        help: false,
        name: "default".into(),
        population: 256,
        requests: 100_000,
        shards: 64,
        threads: aitax_lab::default_threads(),
        seed: env_parse("AITAX_SEED", 1),
        fault_rate: 0.03,
        multi_tenant_rate: 0.0,
        out: PathBuf::from("target/fleet"),
        bench: PathBuf::from("BENCH_fleet.json"),
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
            "--name" => opts.name = value("--name")?,
            "--population" => opts.population = count(arg, &value(arg)?)?,
            "--requests" => opts.requests = count(arg, &value(arg)?)?,
            "--shards" => opts.shards = count(arg, &value(arg)?)?,
            "--threads" => opts.threads = count(arg, &value(arg)?)?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--fault-rate" => {
                opts.fault_rate = value("--fault-rate")?
                    .parse()
                    .map_err(|_| "--fault-rate must be a number in [0,1]".to_string())?;
                if !(0.0..=1.0).contains(&opts.fault_rate) {
                    return Err("--fault-rate must be in [0,1]".into());
                }
            }
            "--multi-tenant-rate" => {
                opts.multi_tenant_rate = value("--multi-tenant-rate")?
                    .parse()
                    .map_err(|_| "--multi-tenant-rate must be a number in [0,1]".to_string())?;
                if !(0.0..=1.0).contains(&opts.multi_tenant_rate) {
                    return Err("--multi-tenant-rate must be in [0,1]".into());
                }
            }
            "--out" => opts.out = PathBuf::from(value("--out")?),
            "--bench" => opts.bench = PathBuf::from(value("--bench")?),
            "--verify-determinism" => opts.verify = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
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

    let spec = PopulationSpec::new(opts.name.clone())
        .devices(opts.population)
        .seed(opts.seed)
        .fault_rate(opts.fault_rate)
        .multi_tenant_rate(opts.multi_tenant_rate);

    let (report, secs) = simulate(&spec, opts.requests, opts.shards, opts.threads);
    eprintln!(
        "fleet: population '{}' — {} devices / {} requests on {} shard(s) × {} thread(s) \
         in {:.2}s wall ({:.0} req/s)",
        spec.name,
        report.devices,
        report.requests,
        opts.shards,
        opts.threads,
        secs,
        report.requests as f64 / secs.max(1e-9),
    );

    if opts.verify {
        // Serial re-run under a different shard split: byte-identity
        // must hold across BOTH axes at once.
        let alt_shards = if opts.shards == 1 { 7 } else { 1 };
        let (serial, serial_secs) = simulate(&spec, opts.requests, alt_shards, 1);
        if artifact::fleet_json(&serial) != artifact::fleet_json(&report)
            || artifact::fleet_csv(&serial) != artifact::fleet_csv(&report)
            || artifact::bench_json(&serial) != artifact::bench_json(&report)
        {
            eprintln!("fleet: DETERMINISM VIOLATION — parallel artifacts differ from serial");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fleet: determinism verified ({} shard(s) × {} thread(s) vs {} × 1, \
             byte-identical); speedup {:.2}x ({:.2}s -> {:.2}s)",
            opts.shards,
            opts.threads,
            alt_shards,
            serial_secs / secs.max(1e-9),
            serial_secs,
            secs
        );
    }

    print_summary(&report);

    match artifact::write_artifacts(&report, &opts.out) {
        Ok(paths) => {
            for p in paths {
                eprintln!("fleet: wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("fleet: failed to write artifacts: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = artifact::write_bench_json(&report, &opts.bench) {
        eprintln!("fleet: failed to write {}: {e}", opts.bench.display());
        return ExitCode::FAILURE;
    }
    eprintln!("fleet: wrote {}", opts.bench.display());
    ExitCode::SUCCESS
}
