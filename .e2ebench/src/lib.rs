//! # aitax-e2ebench — the simulator's end-to-end benchmark
//!
//! Runs three workloads through the workspace crates' public APIs and
//! measures the **host** time, memory and allocations they cost; the
//! simulated outputs are only checked for exact identity, never reported
//! as speed. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

pub mod alloc;
pub mod digest;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
