//! BoostHD — boosting in hyperdimensional computing (the paper's primary
//! contribution), together with the HDC classifiers it builds on.
//!
//! The crate provides three classifiers over the [`hdc`] substrate:
//!
//! * [`CentroidHd`] — the classic single-pass HDC learner: bundle every
//!   encoded training sample into its class hypervector;
//! * [`OnlineHd`] — the OnlineHD classifier (Hernández-Cano et al., DATE'21)
//!   the paper uses as its strong/weak learner: an initial bundling pass
//!   followed by similarity-weighted iterative refinement;
//! * [`BoostHd`] — the paper's contribution: the `D`-dimensional hyperspace
//!   is partitioned into `n` disjoint sub-spaces of `D/n` dimensions, each
//!   owned by a weak OnlineHD learner, and the learners are trained
//!   sequentially under AdaBoost/SAMME sample re-weighting. Inference is a
//!   learner-weighted vote and parallelizes across queries.
//!
//! Each model owns its class hypervectors as one [`ClassMemory`]
//! ([`memory`] module) whose [`Precision`] is a deployment choice, not a
//! separate model type: training runs in f32, and `with_precision(p)`
//! (or the `precision` field of the config) freezes the memory at int8 —
//! one scaled signed byte per dimension scored through the widening
//! integer dot kernel (~4× smaller, cosine-faithful) — or at 1 bit —
//! sign-binarized `u64` words ([`hdc::backend::BitpackedSign`]) scored via
//! XOR + popcount, 32× smaller and several times faster than the f32
//! cosine path at the paper's `D = 4000`.
//!
//! All models implement the [`Classifier`] trait (shared with the
//! `baselines` crate) and [`Model`], whose `inject_bitflips` applies the
//! bit-flip fault model of their memory's precision.
//!
//! The recommended front door is the **unified facade** ([`pipeline`]):
//! describe any model (HDC or classical baseline) as a serializable
//! [`ModelSpec`], train it with [`Pipeline::fit`], ask for
//! confidence-gated predictions
//! ([`Pipeline::predict_with_confidence`]), and persist it through one
//! versioned envelope ([`Pipeline::save`]/[`Pipeline::load`]) around the
//! one model encoding in [`persist`], which the fleet store writes too.
//!
//! # Quickstart
//!
//! ```
//! use boosthd::{BoostHd, BoostHdConfig, Classifier};
//! use linalg::{Matrix, Rng64};
//!
//! // Toy two-class problem: points around (0,0) vs points around (3,3).
//! let mut rng = Rng64::seed_from(5);
//! let mut rows = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..120 {
//!     let class = i % 2;
//!     let center = if class == 0 { 0.0 } else { 3.0 };
//!     rows.push(vec![center + 0.3 * rng.normal(), center + 0.3 * rng.normal()]);
//!     labels.push(class);
//! }
//! let x = Matrix::from_rows(&rows)?;
//!
//! let config = BoostHdConfig { dim_total: 512, n_learners: 8, ..BoostHdConfig::default() };
//! let model = BoostHd::fit(&config, &x, &labels)?;
//! let acc = model
//!     .predict_batch(&x)
//!     .iter()
//!     .zip(&labels)
//!     .filter(|(p, y)| p == y)
//!     .count() as f64 / labels.len() as f64;
//! assert!(acc > 0.95);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod boost;
pub mod centroid;
pub mod classifier;
pub mod error;
pub mod fleet;
pub mod memory;
pub mod online;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod spec;
pub mod toml;

// The 1-bit and int8 precision tests share the checks in
// `precision_tests`; they mount as `quantized` and `quantized_i8` so their
// test ids stay stable.
#[cfg(test)]
mod precision_tests;
#[cfg(test)]
#[path = "precision_tests/binary.rs"]
mod quantized;
#[cfg(test)]
#[path = "precision_tests/int8.rs"]
mod quantized_i8;

pub use boost::{BoostHd, BoostHdConfig, Voting};
pub use centroid::{CentroidHd, CentroidHdConfig};
pub use classifier::{argmax, Classifier};
pub use error::{BoostHdError, Result};
pub use fleet::{Fleet, FleetConfig, FleetModel, ModelStore, StoreEntry};
pub use memory::{ClassMemory, Precision};
pub use online::{OnlineHd, OnlineHdConfig};
pub use pipeline::{Model, Pipeline, Prediction};
pub use spec::{BaselineKind, BaselineSpec, ModelSpec};
