//! Data-capture models: camera sensor and random benchmark inputs.
//!
//! §II-A of the paper: "Acquiring data from sensors can seem trivial on
//! the surface, but can easily complicate an application's architecture"
//! — and §IV-A found that "the supporting code around data capture
//! contributed to a large share of overall application latency". This
//! crate provides:
//!
//! * [`camera`] — the camera sensor configuration (resolution, frame
//!   rate, readout latency) that data-capture pricing reads,
//! * [`randgen`] — the cost of the random-tensor inputs benchmarks use
//!   instead of real capture, including the libc++/libstdc++ cost
//!   inversion the paper calls out as a benchmarking fallacy.

pub mod camera;
pub mod randgen;

pub use camera::CameraConfig;
pub use randgen::StdlibFlavor;
