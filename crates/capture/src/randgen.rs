//! Random input generation — how benchmarks "capture data".
//!
//! The TFLite benchmark utility "generates random tensors as input data"
//! (§III-B), and the paper exposes a subtle fallacy (§IV-A): *"The
//! standard C++ library that this benchmark happened to be compiled
//! against (libc++) generates real numbers significantly faster than
//! integers. Using a different standard library (libstdc++), we observed
//! the exact opposite behavior."* We reproduce that as a per-element
//! cycle cost whose float-vs-int ratio flips with the standard-library
//! flavor.
//!
//! Only the cost is modelled; no tensor is materialised. The generated
//! values never reach the simulation — a benchmark's inference time does
//! not depend on its input data, and the random input is discarded
//! after the run — so the cycle count `elements × cycles per element` is
//! all a run can observe, and computing only that leaves every output
//! identical.

/// Which C++ standard library the (simulated) benchmark was built against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StdlibFlavor {
    /// LLVM's libc++: fast `uniform_real_distribution`, slow integers.
    LibCxx,
    /// GNU libstdc++: the exact opposite behaviour.
    LibStdCxx,
}

impl StdlibFlavor {
    /// CPU cycles the benchmark spends generating one random input of
    /// `elements` values: integers for a quantized model, floats
    /// otherwise.
    ///
    /// Calibrated so that under libc++ "the data capture ... is
    /// negligible" for float models, while integer generation
    /// "approximate[s] real applications to some extent" (§IV-A) — i.e.
    /// approaches the quantized models' inference latency; libstdc++
    /// inverts the float-vs-int relationship.
    pub fn random_input_cycles(self, elements: usize, quantized: bool) -> f64 {
        let per_element = match (self, quantized) {
            (StdlibFlavor::LibCxx, false) => 30.0,
            (StdlibFlavor::LibCxx, true) => 180.0,
            (StdlibFlavor::LibStdCxx, false) => 150.0,
            (StdlibFlavor::LibStdCxx, true) => 40.0,
        };
        elements as f64 * per_element
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libcxx_floats_faster_than_ints() {
        let f = StdlibFlavor::LibCxx;
        assert!(f.random_input_cycles(1, false) < f.random_input_cycles(1, true));
    }

    #[test]
    fn libstdcxx_inverts_the_relationship() {
        let f = StdlibFlavor::LibStdCxx;
        assert!(f.random_input_cycles(1, true) < f.random_input_cycles(1, false));
    }

    #[test]
    fn input_cost_scales_with_elements() {
        let f = StdlibFlavor::LibCxx;
        assert_eq!(f.random_input_cycles(192, false), 192.0 * 30.0);
        assert_eq!(f.random_input_cycles(192, true), 192.0 * 180.0);
    }

    #[test]
    fn quantized_generation_costs_differ_by_flavor() {
        let ca = StdlibFlavor::LibCxx.random_input_cycles(1000, true);
        let cb = StdlibFlavor::LibStdCxx.random_input_cycles(1000, true);
        assert!(ca > cb * 3.0, "libc++ int generation should be far slower");
    }
}
