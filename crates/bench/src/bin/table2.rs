//! Regenerates Table II: the hardware platforms, plus a measured
//! companion — quantized MobileNet through NNAPI on each platform,
//! traced for energy, swept through the aitax-lab engine.

use aitax_lab::{render, scenarios};

fn main() {
    aitax_bench::emit(
        "Table II — Platforms used to conduct the study",
        &aitax_core::experiment::table2(),
    );
    let opts = aitax_bench::opts_from_env();
    let grid = scenarios::table2(opts.iterations, opts.seed);
    let report = aitax_lab::sweep(&grid, aitax_lab::default_threads());
    aitax_bench::emit(
        "Table II (measured) — MobileNet v1 int8 via NNAPI app per platform",
        &render::platform_table(&report),
    );
}
