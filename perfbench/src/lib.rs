//! The BoostHD serving benchmark: four workloads over the public API of
//! the repository's crates, end-to-end metrics from a timed run and
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod env;
pub mod layers;
pub mod net;
pub mod report;
pub mod sched;
pub mod setup;
pub mod trace;
pub mod workloads;
