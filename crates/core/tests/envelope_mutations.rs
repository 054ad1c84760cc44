//! Seeded mutation sweep over `Pipeline::from_bytes`: truncations at every
//! length, single-bit flips, and extreme 64-bit words at every 8-byte
//! offset of an envelope, for every HDC family, encoder kind and
//! precision. A corrupt envelope must come back as an `Err` or as a model
//! that predicts; it must never panic or hang.

use boosthd::boost::EnsembleMode;
use boosthd::{
    BoostHd, BoostHdConfig, CentroidHd, CentroidHdConfig, Classifier, ModelSpec, OnlineHd,
    OnlineHdConfig, Pipeline, Precision,
};
use hdc::encoder::Encode;
use linalg::{Matrix, Rng64};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FLIPS: usize = 300;

fn toy() -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(31);
    let x = Matrix::random_normal(30, 3, &mut rng);
    let y = (0..30).map(|i| i % 3).collect();
    (x, y)
}

/// Every family, encoder kind and precision the envelope carries.
fn cases() -> Vec<(String, Pipeline)> {
    let (x, y) = toy();
    let online = ModelSpec::OnlineHd(OnlineHdConfig {
        dim: 32,
        epochs: 2,
        ..Default::default()
    });
    let boost = |mode| {
        ModelSpec::BoostHd(BoostHdConfig {
            dim_total: 48,
            n_learners: 3,
            epochs: 2,
            mode,
            ..Default::default()
        })
    };
    let stored = Pipeline::fit(&online, &x, &y).unwrap();
    let mut remat = stored.clone();
    remat
        .downcast_mut::<OnlineHd>()
        .unwrap()
        .rematerialize_encoder()
        .unwrap();
    let partitioned = Pipeline::fit(&boost(EnsembleMode::Partitioned), &x, &y).unwrap();
    let full = Pipeline::fit(&boost(EnsembleMode::FullDimension), &x, &y).unwrap();
    let centroid_spec = ModelSpec::CentroidHd(CentroidHdConfig {
        dim: 32,
        ..Default::default()
    });
    let centroid = Pipeline::fit(&centroid_spec, &x, &y).unwrap();
    let centroid = centroid.downcast_ref::<CentroidHd>().unwrap();

    let mut cases = Vec::new();
    for precision in [Precision::F32, Precision::Int8, Precision::Binary] {
        for (name, base) in [
            ("online-stored", &stored),
            ("online-remat", &remat),
            ("boost-partitioned", &partitioned),
            ("boost-full-dimension", &full),
        ] {
            let tier = base.with_precision(precision).unwrap();
            cases.push((format!("{name}/{precision:?}"), tier));
        }
        let tier = Pipeline::from_model(
            centroid_spec.clone(),
            Box::new(centroid.with_precision(precision).unwrap()),
        );
        cases.push((format!("centroid/{precision:?}"), tier));
    }
    cases
}

/// The feature width the loaded model's encoder reads.
fn input_width(p: &Pipeline) -> usize {
    if let Some(m) = p.downcast_ref::<OnlineHd>() {
        m.encoder().input_len()
    } else if let Some(m) = p.downcast_ref::<BoostHd>() {
        m.encoder().input_len()
    } else {
        p.downcast_ref::<CentroidHd>()
            .expect("an HDC family")
            .encoder()
            .input_len()
    }
}

/// Loads `bytes`; a model that loads must also predict. Returns whether
/// it loaded, and fails the test, naming the mutation, on any panic.
fn load_and_predict(bytes: &[u8], what: &dyn Fn() -> String) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| match Pipeline::from_bytes(bytes) {
        Ok(p) => {
            let mut rng = Rng64::seed_from(3);
            let x = Matrix::random_normal(2, input_width(&p), &mut rng);
            let classes = p.predict_batch(&x);
            assert!(classes.iter().all(|&c| c < p.num_classes().max(1)));
            let _ = p.predict_with_confidence(x.row(0));
            true
        }
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }));
    outcome.unwrap_or_else(|_| panic!("{} panicked", what()))
}

#[test]
fn every_truncation_is_rejected() {
    for (name, pipeline) in cases() {
        let bytes = pipeline.to_bytes().unwrap();
        assert!(load_and_predict(&bytes, &|| format!("{name} intact")));
        for cut in 0..bytes.len() {
            let loaded = load_and_predict(&bytes[..cut], &|| format!("{name} cut at {cut}"));
            assert!(!loaded, "{name}: truncation at {cut} loaded");
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = Rng64::seed_from(0xB17F_11B5);
    for (name, pipeline) in cases() {
        let bytes = pipeline.to_bytes().unwrap();
        let mut loaded = 0;
        for _ in 0..FLIPS {
            let bit = rng.below(8 * bytes.len());
            let mut mutated = bytes.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            loaded += load_and_predict(&mutated, &|| format!("{name} bit {bit}")) as usize;
        }
        // Flips in class memories and projections still load: the sweep
        // reaches the prediction path, not only the decoder's checks.
        assert!(loaded > 0, "{name}: no flipped envelope loaded");
    }
}

#[test]
fn extreme_words_at_every_offset_never_panic() {
    for (name, pipeline) in cases() {
        let bytes = pipeline.to_bytes().unwrap();
        for at in (0..=bytes.len() - 8).step_by(8) {
            for value in [0, 1u64 << 62, u64::MAX] {
                let mut mutated = bytes.clone();
                mutated[at..at + 8].copy_from_slice(&value.to_le_bytes());
                load_and_predict(&mutated, &|| format!("{name} word {value:#x} at {at}"));
            }
        }
    }
}
