//! Runs every table and figure in sequence — the full evaluation
//! reproduction (EXPERIMENTS.md is generated from this output).
//!
//! Sweep-shaped exhibits (Tables I/II measured companions, Figs. 10 and
//! 11) run through the aitax-lab engine in parallel; the single-run
//! exhibits keep their direct `experiment::` implementations.

use aitax_core::experiment as exp;
use aitax_lab::{render, scenarios, SweepReport};

fn lab_sweep(name: &str, iters: usize, seed: u64) -> SweepReport {
    let grid = scenarios::by_name(name, iters, seed).expect("registered grid");
    aitax_lab::sweep(&grid, aitax_lab::default_threads())
}

fn main() {
    let opts = aitax_bench::opts_from_env();
    eprintln!(
        "running all exhibits with {} iterations/config...",
        opts.iterations
    );
    aitax_bench::emit("Table I — Comprehensive list of benchmarks", &exp::table1());
    aitax_bench::emit("Table II — Platforms", &exp::table2());
    aitax_bench::emit(
        "Table II (measured) — NNAPI app per platform",
        &render::platform_table(&lab_sweep("table2", opts.iterations, opts.seed)),
    );
    aitax_bench::emit(
        "Figure 3 — benchmark vs app E2E latency (CPU)",
        &exp::fig3(opts),
    );
    aitax_bench::emit(
        "Figure 4 — capture/pre-processing vs inference (NNAPI)",
        &exp::fig4(opts),
    );
    let f5 = exp::fig5(opts);
    aitax_bench::emit("Figure 5 — EfficientNet-Lite0 int8 targets", &f5.table);
    println!("NNAPI vs cpu-1t: {:.1}x (paper ~7x)\n", f5.nnapi_vs_cpu1);
    println!("## Figure 6 — execution profiles\n");
    print!("{}", exp::fig6(opts));
    aitax_bench::emit("Figure 7 — FastRPC call flow", &exp::fig7());
    aitax_bench::emit("Figure 8 — offload amortization", &exp::fig8(opts));
    aitax_bench::emit("Figure 9 — background inferences on DSP", &exp::fig9(opts));
    aitax_bench::emit(
        "Figure 10 — background inferences on CPU",
        &render::multitenancy_table(&lab_sweep("fig10", opts.iterations, opts.seed)),
    );
    let f11 = lab_sweep("fig11", opts.iterations, opts.seed);
    aitax_bench::emit(
        "Figure 11 — run-to-run variability",
        &render::distribution_table(&f11),
    );
    let dev = |label: &str| {
        f11.scenario(label)
            .map(|s| s.e2e.max_dev_from_median)
            .unwrap_or(f64::NAN)
    };
    println!(
        "max deviation from median: benchmark {:.1}%, app {:.1}%",
        dev("cli-benchmark") * 100.0,
        dev("android-app") * 100.0
    );
    aitax_bench::emit(
        "Extra — libc++/libstdc++ input-generation asymmetry (§IV-A)",
        &exp::stdlib_asymmetry(opts),
    );
}
