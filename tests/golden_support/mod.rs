//! Builds the golden-digest cases through the model API: one trained
//! pipeline per family × precision tier × refit epochs.

use boosthd::boost::EnsembleMode;
use boosthd::{
    BoostHdConfig, CentroidHd, CentroidHdConfig, ModelSpec, OnlineHdConfig, Pipeline, Precision,
};
use linalg::Matrix;

/// Model family of a golden case.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    Online,
    BoostPartitioned,
    BoostFull,
    Centroid,
}

/// Class-memory precision of a golden case.
#[derive(Debug, Clone, Copy)]
pub enum Tier {
    F32,
    Int8,
    Binary,
}

impl Tier {
    fn precision(self) -> Precision {
        match self {
            Tier::F32 => Precision::F32,
            Tier::Int8 => Precision::Int8,
            Tier::Binary => Precision::Binary,
        }
    }
}

/// Trains the case's model on `(x, y)` and wraps it in a pipeline.
pub fn build(
    family: Family,
    tier: Tier,
    refit: usize,
    x: &Matrix,
    y: &[usize],
    seed: u64,
) -> Pipeline {
    let precision = tier.precision();
    let spec = match family {
        Family::Online => ModelSpec::OnlineHd(OnlineHdConfig {
            dim: 256,
            epochs: 3,
            seed,
            precision,
            refit_epochs: refit,
            ..Default::default()
        }),
        Family::BoostPartitioned | Family::BoostFull => ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 256,
            n_learners: 4,
            epochs: 3,
            mode: match family {
                Family::BoostFull => EnsembleMode::FullDimension,
                _ => EnsembleMode::Partitioned,
            },
            seed,
            precision,
            refit_epochs: refit,
            ..Default::default()
        }),
        Family::Centroid => {
            let cfg = CentroidHdConfig { dim: 256, seed };
            let model = CentroidHd::fit(&cfg, x, y).unwrap();
            let frozen = model.with_precision(precision).unwrap();
            return Pipeline::from_model(ModelSpec::CentroidHd(cfg), Box::new(frozen));
        }
    };
    Pipeline::fit(&spec, x, y).unwrap()
}
