//! Fixed reference kernels that measure how fast the host is running.
//!
//! The benchmark shares its host, and the host's speed drifts by up to
//! 2× over seconds: a whole run can land in a slow episode, which no
//! statistic over that run's own rounds can see. A reference kernel is
//! benchmark code the program never changes; its median time over a run
//! tracks the host's usual speed in that run, and host times can be
//! scaled to a fixed reference speed. The slow episodes do not slow all
//! work alike, so each workload is scaled by the kernel its own host time
//! follows:
//!
//! - [`Kernel::Map`]: inserts and removals of boxed records in a
//!   `BTreeMap` of up to 50 000 keys, the allocation and pointer chasing
//!   of the event-driven simulation that dominates fleet-app and
//!   serve-mix.
//! - [`Kernel::Arith`]: a xorshift generator feeding a floating-point
//!   sum, the shape of the random-tensor generation that dominates
//!   cli-sweep.
//!
//! Both were chosen over a 32 MB random read-modify-write kernel by how
//! well scaling by them steadied each workload. In a 4-minute sample
//! with kernels between every few units, over 15 s windows, cli-sweep
//! jobs followed the arithmetic kernel with log-log slope 1.05
//! (correlation 0.84) and the memory kernel not at all (correlation
//! 0.02), and fleet and serve units followed the ordered map with slope
//! 1.1–1.4 (correlation 0.76–0.95). Over six paired fleet-app runs that
//! timed both, the quartile spread of p50 was 3.8 % scaled by the
//! ordered map and 9.2 % scaled by the memory kernel (6.9 % unscaled);
//! for serve-mix 9.7 % and 11.1 % (6.6 % unscaled: in a quiet hour any
//! scaling adds its kernel's own swings). The memory kernel's run
//! medians moved by up to a quarter between runs, more than either
//! workload did.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Generator steps per arithmetic-kernel run.
const ARITH_STEPS: u64 = 4_000_000;

/// Insertions per ordered-map-kernel run (a third as many removals).
const MAP_INSERTS: u64 = 200_000;

/// Distinct keys of the ordered map.
const MAP_KEYS: u64 = 50_000;

/// A reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Allocation and pointer chasing in an ordered map.
    Map,
    /// Random-number arithmetic in registers.
    Arith,
}

impl Kernel {
    /// The kernel's best-of time on the host the benchmark calls nominal
    /// (about its median on the host it was tuned on).
    pub fn nominal_s(self) -> f64 {
        match self {
            Kernel::Map => 0.050,
            Kernel::Arith => 0.0095,
        }
    }

    /// The best of `n` runs of the kernel.
    pub fn best_of(self, n: usize) -> f64 {
        (0..n)
            .map(|_| match self {
                Kernel::Map => map_s(),
                Kernel::Arith => arith_s(),
            })
            .fold(f64::INFINITY, f64::min)
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the ordered-map kernel once and returns its host seconds.
pub fn map_s() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..MAP_INSERTS {
        map.insert(xorshift(&mut x) % MAP_KEYS, Box::new([i; 4]));
        if i % 3 == 0 {
            map.remove(&(xorshift(&mut x) % MAP_KEYS));
        }
    }
    black_box(map.len());
    start.elapsed().as_secs_f64()
}

/// Runs the arithmetic kernel once and returns its host seconds.
pub fn arith_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..ARITH_STEPS {
        acc += (xorshift(&mut x) & 1023) as f64 * 1.0001;
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// How far host times follow the kernel: a host time is scaled by
/// `(nominal / k)^SCALE_EXPONENT`. How closely a workload's run-to-run
/// slowdown follows its kernel changes from hour to hour: over 15 s
/// windows of a noisy sample the log-log slope was 1.05–1.4, while in
/// quieter hours the kernels' run medians moved by 5–13 % with no
/// matching move in the workloads (slope near 0), and full scaling
/// roughly doubled fleet-app's spread. Scaling by the exponent β leaves
/// `(s − β)²` of the kernel's variance in a result whose true slope is
/// `s`; with `s` anywhere in [0, 1], β = ½ halves the worst case. Over
/// eight sets of six or ten seeds (all three workloads, four hours), it
/// gave the lowest or near-lowest spread of β ∈ {0, ½, 1} on cli-sweep
/// and serve-mix; fleet-app was steadiest unscaled in those hours, and
/// half scaling kept its spread under 10 %.
pub const SCALE_EXPONENT: f64 = 0.5;

/// The factor that scales a host time measured while `kernel` took
/// `kernel_s` towards the nominal reference speed.
pub fn scale(kernel: Kernel, kernel_s: f64) -> f64 {
    (kernel.nominal_s() / kernel_s).powf(SCALE_EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_take_measurable_time() {
        for k in [Kernel::Map, Kernel::Arith] {
            let t = k.best_of(2);
            assert!(t > 0.0 && t.is_finite(), "{k:?}");
            assert!(scale(k, t) > 0.0 && scale(k, t).is_finite());
        }
    }

    #[test]
    fn the_nominal_host_is_not_scaled() {
        for k in [Kernel::Map, Kernel::Arith] {
            assert_eq!(scale(k, k.nominal_s()), 1.0);
            // A host twice as slow on the kernel is scaled by 1/√2.
            let slow = scale(k, 2.0 * k.nominal_s());
            assert!((slow - 0.5f64.sqrt()).abs() < 1e-12);
        }
    }
}
