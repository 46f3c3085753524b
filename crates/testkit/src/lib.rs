//! `aitax-testkit` — validation infrastructure for aitax simulations.
//!
//! Three layers, each usable on its own:
//!
//! * [`invariant`] — scenario-agnostic [`TraceInvariant`] checks every
//!   well-formed trace must satisfy (single occupancy, monotone time,
//!   paired exec events, migration evidence), plus agreement checks
//!   between [`MachineStats`](aitax_kernel::MachineStats) counters and
//!   trace evidence, and per-rail energy sanity. The one-call entry
//!   point is [`assert_report_ok`].
//! * [`assert`] — statistical helpers ([`assert_ratio_within`],
//!   [`assert_monotone`], [`assert_cv_below`]) shared by the
//!   figure-shape integration tests so every figure asserts bands the
//!   same way with the same failure messages.
//! * [`golden`] — golden-signature snapshots: TSV report renderings
//!   under fixed seeds committed to `tests/goldens/` and diffed with
//!   numeric [`Tolerance`]; rewrite intentionally with `AITAX_BLESS=1`.
//! * [`json`] — a strict, dependency-free JSON syntax validator
//!   ([`assert_valid_json`]) for the hand-rolled artifact and
//!   Chrome-trace emitters.
//! * [`serving`] — multi-tenant invariants: attribution conservation
//!   (`Σ caused + Σ self == Σ suffered`) over
//!   [`TenantTax`](aitax_core::tenant::TenantTax) ledgers, and
//!   admission queue-bound checks reconstructed from request wait
//!   intervals.
//! * [`cli`] — command-line surface checks: run a binary, or tabulate
//!   its exit code and first stderr line over invalid invocations.
//!
//! # Example
//!
//! ```
//! use aitax_core::pipeline::E2eConfig;
//! use aitax_framework::Engine;
//! use aitax_models::zoo::ModelId;
//! use aitax_tensor::DType;
//!
//! let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
//!     .engine(Engine::tflite_cpu(4))
//!     .iterations(3)
//!     .seed(11)
//!     .tracing(true)
//!     .run();
//! aitax_testkit::assert_report_ok(&report);
//! ```

pub mod assert;
pub mod cli;
pub mod golden;
pub mod invariant;
pub mod json;
pub mod serving;

pub use assert::{assert_cv_below, assert_monotone, assert_ratio_within, assert_within, Direction};
pub use cli::{run_cli, usage_error_table};
pub use golden::{check_golden, diff_tsv, golden_dir, Tolerance};
pub use invariant::{
    assert_report_ok, check_energy, check_stats_agreement, check_trace, TraceInvariant, Violation,
};
pub use json::{assert_valid_json, validate_json};
pub use serving::{check_attribution_conservation, check_queue_bound};
