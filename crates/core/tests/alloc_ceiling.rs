//! Ratcheting allocation ceilings for steady-state CLI-benchmark
//! iterations, measured with a counting global allocator.
//!
//! A simulated iteration should cost the host only the event work it
//! models. The per-iteration figures here are *marginal*: the same
//! configuration runs twice through one warmed [`SimContext`], with
//! `SHORT` and `LONG` iterations, and the difference is divided by
//! `LONG - SHORT`, so per-run setup (machine reset, report assembly)
//! cancels out. Two guarantees are pinned:
//!
//! * allocations per iteration stay at or under a committed ceiling, set
//!   just above the measured value — lower it when a change makes
//!   iterations cheaper, never raise it to let one through;
//! * a whole repeated run on the warmed context — machine reset, label
//!   interning into the cleared symbol table, iterations, report — stays
//!   under a ceiling of the same kind, which pins that re-interning a
//!   run's labels reuses the table's capacity instead of allocating;
//! * bytes allocated per iteration stay below the model's input size,
//!   which proves the benchmark's random input tensor is priced, not
//!   materialised.
//!
//! This file intentionally holds a single test: the counters are
//! process-global, and a sibling test running on another thread would
//! bleed its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aitax_core::pipeline::E2eConfig;
use aitax_core::SimContext;
use aitax_framework::Engine;
use aitax_models::cached_graph;
use aitax_models::zoo::ModelId;
use aitax_tensor::DType;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHORT: usize = 10;
const LONG: usize = 40;

/// Allocations and bytes of one run of `cfg` with `iterations`.
fn counted(ctx: &mut SimContext, cfg: &E2eConfig, iterations: usize) -> (u64, u64) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let report = cfg.clone().iterations(iterations).run_in(ctx);
    let counts = (
        ALLOCS.load(Ordering::Relaxed) - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    );
    assert_eq!(report.tax.iterations(), iterations);
    counts
}

#[test]
fn steady_state_cli_iterations_stay_under_ceilings() {
    // (label, model dtype, engine, allocations-per-iteration ceiling,
    //  allocations-per-run ceiling)
    let cases = [
        (
            "mobilenet-v1 f32, tflite cpu x4",
            DType::F32,
            Engine::tflite_cpu(4),
            37.0,
            375,
        ),
        (
            "mobilenet-v1 i8, hexagon",
            DType::I8,
            Engine::TfLiteHexagon { threads: 4 },
            22.0,
            230,
        ),
    ];
    let mut ctx = SimContext::new();
    for (label, dtype, engine, ceiling, run_ceiling) in cases {
        let cfg = E2eConfig::new(ModelId::MobileNetV1, dtype).engine(engine);
        // Warm-up: boots the machine, fills the graph/plan caches and
        // mints the plan's labels.
        counted(&mut ctx, &cfg, SHORT);
        let (short_allocs, short_bytes) = counted(&mut ctx, &cfg, SHORT);
        let (long_allocs, long_bytes) = counted(&mut ctx, &cfg, LONG);
        let extra = (LONG - SHORT) as f64;
        let allocs = (long_allocs as f64 - short_allocs as f64) / extra;
        let bytes = (long_bytes as f64 - short_bytes as f64) / extra;
        let input_bytes = cached_graph(ModelId::MobileNetV1, dtype).input_bytes();
        eprintln!(
            "{label}: {allocs:.2} allocations, {bytes:.0} bytes per iteration; \
             {short_allocs} allocations per warmed {SHORT}-iteration run"
        );
        assert!(
            allocs <= ceiling,
            "{label}: {allocs:.2} allocations per iteration exceed the ceiling {ceiling}"
        );
        assert!(
            short_allocs <= run_ceiling,
            "{label}: a warmed {SHORT}-iteration run made {short_allocs} allocations, \
             over the ceiling {run_ceiling}"
        );
        assert!(
            bytes < input_bytes as f64,
            "{label}: {bytes:.0} bytes per iteration, not below the {input_bytes}-byte \
             model input: is the random input being materialised?"
        );
    }
}
