//! Fixtures and checks shared by the 1-bit and int8 precision tests: each
//! check exercises one behaviour through every model family at the
//! precision the caller passes.

use crate::boost::{BoostHdConfig, EnsembleMode};
use crate::memory::Precision;
use crate::online::OnlineHdConfig;
use crate::{BoostHd, CentroidHd, CentroidHdConfig, Classifier, OnlineHd};
use linalg::{Matrix, Rng64};

/// Three Gaussian blobs in three features.
pub(crate) fn blobs(n: usize, seed: u64, sep: f32, noise: f32) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let centers = [(-1.0f32, -1.0f32), (1.0, 1.0), (-1.0, 1.0)];
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % 3;
        let (cx, cy) = centers[class];
        rows.push(vec![
            cx * sep + noise * rng.normal(),
            cy * sep + noise * rng.normal(),
            noise * rng.normal(),
        ]);
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

pub(crate) fn accuracy(model: &impl Classifier, x: &Matrix, y: &[usize]) -> f64 {
    model
        .predict_batch(x)
        .iter()
        .zip(y)
        .filter(|(p, t)| p == t)
        .count() as f64
        / y.len() as f64
}

/// A partitioned ensemble of `n_learners` over `dim_total` dimensions.
pub(crate) fn boost(dim_total: usize, n_learners: usize, epochs: usize, seed: u64) -> BoostHd {
    let (x, y) = blobs(90, seed, 1.0, 0.4);
    let config = BoostHdConfig {
        dim_total,
        n_learners,
        epochs,
        ..Default::default()
    };
    BoostHd::fit(&config, &x, &y).unwrap()
}

pub(crate) fn onlinehd_tracks_f32_accuracy(precision: Precision, tolerance: f64) {
    let (x, y) = blobs(240, 1, 1.0, 0.35);
    let config = OnlineHdConfig {
        dim: 2048,
        epochs: 10,
        ..Default::default()
    };
    let model = OnlineHd::fit(&config, &x, &y).unwrap();
    let quantized = model.with_precision(precision).unwrap();
    let full = accuracy(&model, &x, &y);
    let quant = accuracy(&quantized, &x, &y);
    assert!(
        quant > full - tolerance,
        "{precision:?} {quant} vs f32 {full}"
    );
    assert_eq!(quantized.num_classes(), 3);
    assert_eq!(quantized.dim(), 2048);
    assert_eq!(quantized.precision(), precision);
    assert_eq!(quantized.config().precision, precision);
}

pub(crate) fn boosthd_tracks_f32_accuracy(precision: Precision, tolerance: f64) {
    let (x, y) = blobs(240, 2, 1.0, 0.35);
    let config = BoostHdConfig {
        dim_total: 2048,
        n_learners: 8,
        epochs: 8,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, &x, &y).unwrap();
    let quantized = model.with_precision(precision).unwrap();
    let full = accuracy(&model, &x, &y);
    let quant = accuracy(&quantized, &x, &y);
    assert!(
        quant > full - tolerance,
        "{precision:?} {quant} vs f32 {full}"
    );
    assert_eq!(quantized.num_learners(), 8);
    assert_eq!(quantized.alphas(), model.alphas());
}

pub(crate) fn batch_matches_rowwise(precision: Precision) {
    let (x, _) = blobs(90, 3, 1.0, 0.4);
    let quantized = boost(640, 8, 6, 3).with_precision(precision).unwrap();
    let batch = quantized.predict_batch(&x);
    let rowwise: Vec<usize> = (0..x.rows()).map(|r| quantized.predict(x.row(r))).collect();
    assert_eq!(batch, rowwise);
    assert_eq!(batch, quantized.predict_batch_parallel(&x, 4));
}

pub(crate) fn centroid_works(precision: Precision) {
    let (x, y) = blobs(120, 4, 1.2, 0.3);
    let config = CentroidHdConfig {
        dim: 1024,
        ..Default::default()
    };
    let model = CentroidHd::fit(&config, &x, &y).unwrap();
    let quantized = model.with_precision(precision).unwrap();
    assert!(accuracy(&quantized, &x, &y) > 0.9);
    assert!(
        quantized.with_precision(precision).is_err(),
        "f32 sources only"
    );
}

pub(crate) fn full_dimension_mode_works(precision: Precision) {
    let (x, y) = blobs(120, 5, 1.0, 0.4);
    let config = BoostHdConfig {
        dim_total: 256,
        n_learners: 4,
        epochs: 5,
        mode: EnsembleMode::FullDimension,
        ..Default::default()
    };
    let quantized = BoostHd::fit(&config, &x, &y)
        .unwrap()
        .with_precision(precision)
        .unwrap();
    assert!(accuracy(&quantized, &x, &y) > 0.85);
    assert_eq!(
        quantized.predict_batch(&x),
        quantized.predict_batch_parallel(&x, 3)
    );
}

/// Dimension-starved learners (`D_wl = 40`) lose real accuracy to
/// quantization; straight-through refit must not trail data-free
/// quantization on the training distribution, and zero refit epochs must
/// degenerate to it.
pub(crate) fn refit_improves_or_matches_data_free(precision: Precision) {
    let (x, y) = blobs(300, 10, 0.7, 0.55);
    let config = BoostHdConfig {
        dim_total: 320,
        n_learners: 8,
        epochs: 8,
        ..Default::default()
    };
    let model = BoostHd::fit(&config, &x, &y).unwrap();
    let data_free = model.with_precision(precision).unwrap();
    let plain = accuracy(&data_free, &x, &y);
    let refit = model.with_precision_refit(precision, &x, &y, 5).unwrap();
    assert_eq!(refit.config().refit_epochs, 5);
    let refit = accuracy(&refit, &x, &y);
    assert!(
        refit >= plain,
        "refit {refit} should not trail data-free {plain}"
    );
    let zero = model.with_precision_refit(precision, &x, &y, 0).unwrap();
    assert_eq!(zero.predict_batch(&x), data_free.predict_batch(&x));
}

/// Empty, ragged, out-of-range and wrong-width refit data is rejected.
pub(crate) fn refit_rejects_bad_inputs(precision: Precision) {
    let (x, y) = blobs(60, 11, 1.0, 0.4);
    let config = OnlineHdConfig {
        dim: 256,
        epochs: 4,
        ..Default::default()
    };
    let online = OnlineHd::fit(&config, &x, &y).unwrap();
    let ensemble = boost(320, 4, 4, 11);
    let bad_labels = vec![99usize; y.len()];
    let bad_inputs = [
        (Matrix::zeros(0, 3), &[][..]),
        (x.clone(), &y[..10]),
        (x.clone(), &bad_labels[..]),
        (Matrix::zeros(60, 1), &y[..]),
    ];
    for (bx, by) in &bad_inputs {
        assert!(online.with_precision_refit(precision, bx, by, 3).is_err());
        assert!(ensemble.with_precision_refit(precision, bx, by, 3).is_err());
    }
    // Refit toward f32, or from an already-quantized model, is invalid.
    assert!(online
        .with_precision_refit(Precision::F32, &x, &y, 3)
        .is_err());
    let frozen = online.with_precision(precision).unwrap();
    assert!(frozen.with_precision_refit(precision, &x, &y, 3).is_err());
}

/// Sparse flips at `p_b` cost a 2048-dimension ensemble under 5 points.
pub(crate) fn ensemble_absorbs_flips(precision: Precision, p_b: f64) {
    let (x, y) = blobs(240, 8, 1.0, 0.35);
    let config = BoostHdConfig {
        dim_total: 2048,
        n_learners: 8,
        epochs: 8,
        ..Default::default()
    };
    let quantized = BoostHd::fit(&config, &x, &y)
        .unwrap()
        .with_precision(precision)
        .unwrap();
    let clean = accuracy(&quantized, &x, &y);
    let mut corrupted = quantized.clone();
    let mut rng = Rng64::seed_from(3);
    corrupted.inject_bitflips(p_b, &mut rng);
    let faulty = accuracy(&corrupted, &x, &y);
    assert!(
        faulty > clean - 0.05,
        "{precision:?} flips at p_b = {p_b} should be absorbed: {clean} -> {faulty}"
    );
}
