//! Regenerates Figure 10: app latency breakdown with background
//! inferences contending for the CPU.
//!
//! Runs the declarative `fig10` grid through the aitax-lab sweep engine
//! (parallel across background counts, deterministic for any thread
//! count) instead of looping configs by hand.

use aitax_lab::{render, scenarios};

fn main() {
    let opts = aitax_bench::opts_from_env();
    let grid = scenarios::fig10(opts.iterations, opts.seed);
    let report = aitax_lab::sweep(&grid, aitax_lab::default_threads());
    aitax_bench::emit(
        "Figure 10 — multi-tenancy, background inferences on the CPU",
        &render::multitenancy_table(&report),
    );
}
