//! `e2ebench` — the simulator's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path .e2ebench/Cargo.toml -- \
//!     --workload cli-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it splits the time between an untraced and a traced phase, replays
//! each unit's configuration, writes the spans and the per-layer table
//! under `.e2ebench/out/`, and prints the per-layer metrics. The last
//! line of standard output is always the JSON result object.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use aitax_e2ebench::reference::{self, Kernel};
use aitax_e2ebench::report::{self, Metric, Tally};
use aitax_e2ebench::stats::{self, Value};
use aitax_e2ebench::trace::{self, Span};
use aitax_e2ebench::workload::{self, Inputs, Round, Sizes, Workload};

/// Set-up samples per run, each the best of [`SETUP_TRIES`] cold set-ups
/// in fresh child processes. The graph and plan caches are process-wide,
/// so only a fresh process can pay them again; and a slow spell of the
/// host can more than double a sub-millisecond set-up, so single tries
/// land in one too often for a steady median.
const SETUP_SAMPLES: usize = 11;

/// Cold set-ups behind each set-up sample.
const SETUP_TRIES: usize = 3;

/// Untraced rounds a run makes at least, even past its budget: each unit
/// needs a few repeats for its median time to be steady, and the
/// allocation check needs a third round to compare with the second.
const MIN_ROUNDS: usize = 3;

/// Seed reserved for checking claims after a change was written; never
/// used while tuning one.
const HELD_OUT_SEED: u64 = 7919;

/// Pinned artifact digests per workload and seed.
const PINS: &str = include_str!("../pins.tsv");

const USAGE: &str = "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1\n\
     \x20      e2ebench --setup-only --workload NAME --seed N\n\
     \x20      e2ebench --reference --workload NAME   (time its reference kernel)\n\
     \x20      e2ebench --pins FROM TO      (print pin lines for seeds FROM..=TO and the held-out seed)\n\
     workloads: cli-sweep, fleet-app, serve-mix";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    reference: bool,
    pins: Option<(u64, u64)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        reference: false,
        pins: None,
    };
    let mut it = args.iter();
    let num = |v: Option<&String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a value")?;
                out.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => out.seed = num(it.next(), "--seed")?,
            "--seconds" => out.seconds = num(it.next(), "--seconds")?.max(1) as f64,
            "--trace" => out.trace = num(it.next(), "--trace")? != 0,
            "--setup-only" => out.setup_only = true,
            "--reference" => out.reference = true,
            "--pins" => out.pins = Some((num(it.next(), "--pins")?, num(it.next(), "--pins")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs this binary with `args` in a fresh process, waits for it, and
/// reads the number after `key` on the last line it prints.
fn child(args: &[&str], key: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!("child {args:?} failed: {}", out.status))
}

/// The best of [`SETUP_TRIES`] cold set-ups, each in a fresh child
/// process.
fn child_setup(w: Workload, seed: u64) -> Result<f64, String> {
    let seed = seed.to_string();
    let args = ["--setup-only", "--workload", w.name(), "--seed", &seed];
    (0..SETUP_TRIES).try_fold(f64::INFINITY, |best, _| {
        Ok(best.min(child(&args, "setup_s")?))
    })
}

/// Times `w`'s reference kernel in a fresh child process, whose heap the
/// program under test has never touched.
fn child_reference(w: Workload) -> Result<f64, String> {
    child(&["--reference", "--workload", w.name()], "reference_s")
}

/// Regenerates the committed `BENCH_lab.json` (lab `smoke`, 30
/// iterations, seed 1) and `BENCH_serve.json` (serve `contention`, seed
/// 1) through the public API and byte-compares them with the files.
fn golden_gate(root: &Path) -> Vec<(&'static str, bool)> {
    let lab = || {
        let grid = aitax_lab::scenarios::smoke(30, 1);
        let results = aitax_lab::run_jobs(grid.expand(), 1);
        aitax_lab::bench_json(&aitax_lab::SweepReport::aggregate(&grid, &results))
    };
    let serve = || {
        let cfg = aitax_serve::scenarios::contention().seed(1);
        aitax_serve::artifact::bench_json(&aitax_serve::run_report(&cfg, 1).0)
    };
    let check = |name: &'static str, make: &dyn Fn() -> String| {
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(make)).ok();
        let want = std::fs::read_to_string(root.join(name)).ok();
        (name, got.is_some() && got == want)
    };
    vec![
        check("BENCH_lab.json", &lab),
        check("BENCH_serve.json", &serve),
    ]
}

/// Reference-kernel runs in each reference child.
const REFERENCE_RUNS: usize = 3;

/// One timed phase: whole rounds until its budget has passed.
struct Phase {
    rounds: Vec<Round>,
    /// The reference kernel the probes ran.
    kernel: Kernel,
    /// Median reference-kernel time over the phase's probes.
    reference_s: f64,
    /// Peak resident set after the first round.
    first_rss_mb: Option<f64>,
    /// Peak resident set at the end of the phase.
    peak_rss_mb: Option<f64>,
}

impl Phase {
    /// Host-time scale factor towards the nominal reference speed.
    fn scale(&self) -> f64 {
        reference::scale(self.kernel, self.reference_s)
    }
}

/// Runs whole rounds until `budget_s` host seconds have passed and at
/// least `min_rounds` rounds ran. Between units, about once a second, a
/// child process times workload `w`'s reference kernel; after
/// each round `between` runs. Neither is inside any unit's or round's
/// timing.
fn phase(
    w: Workload,
    inputs: &Inputs,
    budget_s: f64,
    min_rounds: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut probes = Vec::new();
    let mut first_rss_mb = None;
    let kernels = move || child_reference(w);
    let probe = workload::Probe {
        every: inputs.probe_every(),
        run: &kernels,
    };
    loop {
        let round = workload::run_round(inputs, Some(&probe));
        for p in &round.probes {
            probes.push(p.clone()?);
        }
        rounds.push(round);
        if rounds.len() == 1 {
            first_rss_mb = peak_rss_mb();
        }
        between()?;
        if rounds.len() >= min_rounds && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    // Read after the last round: rounds repeat the same batch, so a
    // steady program stops growing after the first one, and any rise
    // after it is memory the program kept from round to round.
    Ok(Phase {
        rounds,
        kernel: w.reference_kernel(),
        reference_s: stats::median(&probes).ok_or("no host-speed probe ran")?,
        first_rss_mb,
        peak_rss_mb: peak_rss_mb(),
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text =
        String::from("id\tparent\tunit\tname\tstart_ns\tend_ns\tself_ns\tallocs\tself_allocs\n");
    for (i, (s, (self_ns, self_allocs))) in spans.iter().zip(trace::self_costs(spans)).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}\t{}\t{self_allocs}\n",
            s.unit,
            s.name,
            s.start_ns,
            s.end_ns,
            s.allocs_end - s.allocs_start
        ));
    }
    std::fs::write(path, text)
}

fn write_layers(path: &Path, layers: &[Metric]) -> std::io::Result<()> {
    let rows: Vec<String> = layers
        .iter()
        .map(|m| {
            format!(
                "  {{\"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"count\": {}}}",
                m.name,
                m.value.json(),
                m.unit,
                m.value.count
            )
        })
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
}

fn print_pins(from: u64, to: u64) {
    println!("# workload seed digest (artifact digest of the first round; e2ebench --pins)");
    for w in Workload::ALL {
        for seed in (from..=to).chain(std::iter::once(HELD_OUT_SEED)) {
            let inputs = workload::setup(w, seed, Sizes::BENCH);
            let round = workload::run_round(&inputs, None);
            match round.artifact {
                Some(d) => println!("{} {seed} {d:016x}", w.name()),
                None => eprintln!("e2ebench: {} seed {seed} failed; not pinned", w.name()),
            }
        }
    }
}

fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let name = w.name();

    // Set-up: cold caches and the first boot, paid here once.
    trace::enable(traced);
    let t = Instant::now();
    let inputs = workload::setup(w, seed, Sizes::BENCH);
    let own_setup_s = t.elapsed().as_secs_f64();
    trace::enable(false);

    let pins = report::parse_pins(PINS);
    let pin = pins.get(&(name.to_string(), seed)).copied();

    // The untraced timed phase. Between rounds, fresh processes repeat
    // the cold set-up, so the set-up samples spread over the run rather
    // than bunching at its start.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut setup_s = Vec::new();
    let plain = phase(w, &inputs, budget, MIN_ROUNDS, || {
        if !traced && setup_s.len() < SETUP_SAMPLES {
            setup_s.push(child_setup(w, seed)?);
        }
        Ok(())
    })?;
    while !traced && setup_s.len() < SETUP_SAMPLES {
        setup_s.push(child_setup(w, seed)?);
    }
    let rounds = &plain.rounds;

    // Correctness: the committed goldens (after the phase, so they stay
    // out of its peak resident set), the pins, and the rounds.
    let mut tally = Tally::default();
    let gate = golden_gate(&repo_root());
    for &(_, ok) in &gate {
        tally.add(ok);
    }
    report::check_rounds(rounds, pin, &mut tally);
    report::check_allocs(rounds, &mut tally);

    let mut extra = Vec::new();
    let metrics = if traced {
        trace::enable(true);
        let with_spans = phase(w, &inputs, budget, 1, || Ok(()))?;
        let traced_rounds = &with_spans.rounds;
        let replay = workload::replay(&inputs, &traced_rounds[0]);
        trace::enable(false);
        let spans = trace::take();
        report::check_rounds(traced_rounds, rounds[0].artifact, &mut tally);
        tally.attempted += replay.units;
        tally.failed += replay.mismatches;

        // Each phase at the reference speed of its own host episode.
        let speed = |p: &Phase| report::throughput(&p.rounds).value.map(|v| v / p.scale());
        let (untraced_ips, traced_ips) = (speed(&plain), speed(&with_spans));
        let overhead = Value {
            value: untraced_ips
                .zip(traced_ips)
                .map(|(a, b)| (a - b) / a * 100.0),
            count: rounds.len() + traced_rounds.len(),
        };
        let layers = report::layer_metrics(&spans, traced_rounds, &replay, overhead);

        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let spans_path = out.join(format!("spans-{name}-seed{seed}.tsv"));
        let layers_path = out.join(format!("layers-{name}-seed{seed}.json"));
        std::fs::create_dir_all(&out)
            .and_then(|()| write_spans(&spans_path, &spans))
            .and_then(|()| write_layers(&layers_path, &layers))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        extra.push(format!(
            "traced: {} spans -> {}; per-layer table -> {}",
            spans.len(),
            spans_path.display(),
            layers_path.display()
        ));
        extra.push(format!(
            "tracing overhead: {} 1/s untraced vs {} 1/s traced (at reference speed)",
            untraced_ips.map_or("null".into(), |v| format!("{v:.1}")),
            traced_ips.map_or("null".into(), |v| format!("{v:.1}"))
        ));
        layers
    } else {
        let unit_ms: Vec<f64> = report::central_unit_ms(rounds)
            .iter()
            .map(|ms| ms * plain.scale())
            .collect();
        if let Some(p) = stats::highest_tail(unit_ms.len()) {
            extra.push(format!(
                "highest supported unit tail: p{p} = {:.6} ms (n={})",
                stats::tail(&unit_ms, p).unwrap_or(f64::NAN),
                unit_ms.len()
            ));
        }
        report::e2e_metrics(&setup_s, rounds, plain.peak_rss_mb, plain.scale())
    };

    let units = rounds.iter().map(|r| r.unit_ms.len()).sum::<usize>();
    println!(
        "e2ebench: workload {name}, seed {seed}{}, trace {}: {} round(s) of {} units, {units} units timed",
        if pin.is_some() { " (pinned)" } else { " (not pinned)" },
        u8::from(traced),
        rounds.len(),
        inputs.units(),
    );
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}", r.inferences as f64 / r.host_s))
        .collect();
    let allocs: Vec<String> = rounds.iter().map(|r| r.allocs.to_string()).collect();
    println!(
        "host speed: {:?} reference kernel median {:.3} ms over {} probes, host times scaled by {:.4}; \
         unscaled per-round sim_inf_per_s: {}",
        plain.kernel,
        plain.reference_s * 1e3,
        rounds.iter().map(|r| r.probes.len()).sum::<usize>(),
        plain.scale(),
        per_round.join(" ")
    );
    println!("allocations per round: {}", allocs.join(" "));
    let mb = |v: Option<f64>| v.map_or("null".into(), |v| format!("{v:.1}"));
    println!(
        "peak resident set: {} MB after round 1, {} MB after round {}; \
         set-up in this process {:.6} s (unscaled)",
        mb(plain.first_rss_mb),
        mb(plain.peak_rss_mb),
        rounds.len(),
        own_setup_s
    );
    for (file, ok) in &gate {
        println!(
            "golden {file}: {}",
            if *ok { "identical" } else { "MISMATCH" }
        );
    }
    for line in extra {
        println!("{line}");
    }
    for m in &metrics {
        println!("{}", report::human(m));
    }
    let error_rate = Value::ratio(tally.failed as f64, tally.attempted);
    println!(
        "{}",
        report::human(&Metric {
            name: "error_rate",
            unit: "ratio",
            value: error_rate,
        })
    );
    println!(
        "{}",
        report::result_line(tally.failed == 0, tally, &metrics, traced)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((from, to)) = args.pins {
        print_pins(from, to);
        return ExitCode::SUCCESS;
    }
    let Some(w) = args.workload else {
        eprintln!("e2ebench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.reference {
        let kernel = w.reference_kernel();
        println!("reference_s {}", kernel.best_of(REFERENCE_RUNS));
        return ExitCode::SUCCESS;
    }
    if args.setup_only {
        let t = Instant::now();
        std::hint::black_box(workload::setup(w, args.seed, Sizes::BENCH));
        println!("setup_s {}", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    match run(w, args.seed, args.seconds, args.trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
