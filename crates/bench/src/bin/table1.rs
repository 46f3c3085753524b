//! Regenerates Table I: the benchmark/model list, plus a measured
//! companion — every listed benchmark swept end to end through the
//! aitax-lab engine.

use aitax_lab::{render, scenarios};

fn main() {
    aitax_bench::emit(
        "Table I — Comprehensive list of benchmarks",
        &aitax_core::experiment::table1(),
    );
    let opts = aitax_bench::opts_from_env();
    let grid = scenarios::table1(opts.iterations, opts.seed);
    let report = aitax_lab::sweep(&grid, aitax_lab::default_threads());
    aitax_bench::emit(
        "Table I (measured) — end-to-end latency per benchmark, CPU CLI",
        &render::model_latency_table(&report),
    );
}
