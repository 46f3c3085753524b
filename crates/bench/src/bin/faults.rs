//! Fault-injection sweep: graceful degradation under deterministic
//! failures of the accelerator path.
//!
//! Replays the paper's Fig. 6 streaming scenario (quantized MobileNet
//! through NNAPI in app mode, DSP-offloaded when healthy) under each
//! fault kind via the aitax-lab sweep engine — all fault scenarios run
//! in parallel, with byte-identical aggregates for any thread count —
//! and prints the degradation shape: end-to-end slowdown,
//! retry/fallback counters, and the added tax attributed to each fault.
//! The "AI tax of failure" beside the paper's AI tax of success.
//!
//! Honors `AITAX_ITERS`, `AITAX_SEED`, `AITAX_THREADS` and `AITAX_TSV=1`.

use aitax_lab::{render, scenarios, SweepReport};

fn sweep(iters: usize, seed: u64, threads: usize) -> SweepReport {
    aitax_lab::sweep(&scenarios::faults(iters, seed), threads)
}

fn main() {
    let opts = aitax_bench::opts_from_env();
    let report = sweep(opts.iterations, opts.seed, aitax_lab::default_threads());
    aitax_bench::emit(
        "Fault sweep — MobileNet v1 int8 via NNAPI, app mode (Fig. 6 scenario)",
        &render::fault_table(&report),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's headline: a sustained DSP outage at least doubles
    /// end-to-end latency and attributes the loss.
    #[test]
    fn dsp_outage_at_least_doubles_e2e() {
        let report = sweep(6, 3, 1);
        let h = report.scenario("none").unwrap().e2e.mean;
        let broken = report.scenario("dsp-signal-timeout").unwrap();
        let b = broken.e2e.mean;
        assert!(
            b >= 2.0 * h,
            "expected >=2x slowdown, got {h:.2} -> {b:.2} ms"
        );
        assert!(broken.degradation.added_tax_ms > 0.0);
    }

    /// The whole sweep is reproducible — and independent of thread count.
    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let serial = sweep(4, 5, 1);
        let parallel = sweep(4, 5, 4);
        assert_eq!(serial, parallel, "aggregates must not depend on threads");
        for s in &serial.scenarios {
            if s.label != "none" {
                assert!(
                    s.degradation.faults_injected > 0,
                    "{}: fault plan must actually fire",
                    s.label
                );
            }
        }
    }
}
