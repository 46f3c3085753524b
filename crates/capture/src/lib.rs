//! Data-capture models: camera sensor, random benchmark inputs, sensor
//! fusion.
//!
//! §II-A of the paper: "Acquiring data from sensors can seem trivial on
//! the surface, but can easily complicate an application's architecture"
//! — and §IV-A found that "the supporting code around data capture
//! contributed to a large share of overall application latency". This
//! crate provides:
//!
//! * [`camera`] — a camera pipeline producing *real* NV21 frames on a
//!   frame-rate cadence, with sensor readout and delivery-jitter timing,
//! * [`randgen`] — the cost of the random-tensor inputs benchmarks use
//!   instead of real capture, including the libc++/libstdc++ cost
//!   inversion the paper calls out as a benchmarking fallacy,
//! * [`fusion`] — a small multi-sensor fusion filter (the "fusing multiple
//!   sources of data into a single metric" example of §II-A).

pub mod camera;
pub mod fusion;
pub mod randgen;

pub use camera::{CameraConfig, CameraSource};
pub use randgen::StdlibFlavor;
