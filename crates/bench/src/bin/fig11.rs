//! Regenerates Figure 11: run-to-run latency distribution, benchmark vs
//! application.
//!
//! Runs the `fig11` grid through the aitax-lab sweep engine: each mode
//! is repeated over independent seeds in parallel and the repeats pool
//! into one distribution per mode (percentiles, CV, CDF) — the paper's
//! many-runs methodology, not a single long run.

use aitax_lab::{render, scenarios};

fn main() {
    let opts = aitax_bench::opts_from_env();
    let grid = scenarios::fig11(opts.iterations, opts.seed);
    let report = aitax_lab::sweep(&grid, aitax_lab::default_threads());
    aitax_bench::emit(
        "Figure 11 — run-to-run variability (MobileNet v1, CPU)",
        &render::distribution_table(&report),
    );
    let dev = |label: &str| {
        report
            .scenario(label)
            .map(|s| s.e2e.max_dev_from_median)
            .unwrap_or(f64::NAN)
    };
    println!(
        "max deviation from median: benchmark {:.1}%, app {:.1}% (paper: app up to ~30%)",
        dev("cli-benchmark") * 100.0,
        dev("android-app") * 100.0
    );
}
