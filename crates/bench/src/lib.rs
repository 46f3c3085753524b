//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts the environment variables:
//!
//! * `AITAX_ITERS` — iterations per configuration (default 100; the paper
//!   used 500 — set `AITAX_ITERS=500` for the full methodology),
//! * `AITAX_SEED` — base random seed (default 1),
//! * `AITAX_TSV=1` — emit TSV instead of aligned text.

use aitax_core::experiment::ExperimentOpts;
use aitax_lab::cli::env;

pub use aitax_lab::cli::emit;

/// Reads experiment options from the environment.
pub fn opts_from_env() -> ExperimentOpts {
    let defaults = ExperimentOpts::default();
    ExperimentOpts {
        iterations: env::<usize>("AITAX_ITERS").map_or(defaults.iterations, |n| n.max(1)),
        seed: env("AITAX_SEED").unwrap_or(defaults.seed),
    }
}

/// Times `f` over `iters` iterations (after one warm-up call) and prints
/// the mean per-iteration latency. The `cargo bench` harnesses use this
/// instead of an external benchmarking framework so the workspace stays
/// dependency-free.
pub fn bench_case<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_us = start.elapsed().as_secs_f64() / f64::from(iters) * 1e6;
    println!("{name:<44} {per_us:>12.1} us/iter   ({iters} iters)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_sane() {
        let o = opts_from_env();
        assert!(o.iterations >= 1);
    }

    #[test]
    fn emit_does_not_panic() {
        use aitax_core::report::Table;
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        emit("test", &t);
    }
}
