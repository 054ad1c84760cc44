//! Determinism contract of the persistent worker pool: every pool-backed
//! fan-out must be bit-identical to the scoped-spawn path it replaced, for
//! any thread count and any model family.
//!
//! Both backends split work with the one shared
//! [`boosthd::parallel::chunk_bounds`] function, so chunk composition —
//! and therefore floating-point reduction order — never depends on which
//! execution backend runs the chunks. These tests pin that contract.

use boosthd::classifier::predict_batch_chunked_with;
use boosthd::parallel::{chunk_bounds, parallel_map_indices_with, ExecBackend};
use boosthd::{
    BoostHd, BoostHdConfig, CentroidHd, CentroidHdConfig, Classifier, ModelSpec, OnlineHd,
    OnlineHdConfig, Pipeline, Precision,
};
use linalg::{Matrix, Rng64};

fn blobs(n: usize, features: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % classes;
        let center = class as f32 * 2.0 - 2.0;
        rows.push((0..features).map(|_| center + 0.5 * rng.normal()).collect());
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

/// The thread counts the ISSUE pins: serial, the smallest real fan-out,
/// and heavy oversubscription on small CI boxes.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_backend_invariant<C: Classifier + Sync>(model: &C, x: &Matrix, family: &str) {
    let reference = model.predict_batch(x);
    for threads in THREAD_COUNTS {
        for backend in [ExecBackend::Pooled, ExecBackend::Scoped] {
            assert_eq!(
                predict_batch_chunked_with(model, x, threads, backend),
                reference,
                "{family}: threads={threads} backend={}",
                backend.tag()
            );
        }
    }
}

#[test]
fn predict_batch_is_bit_identical_across_backends_and_thread_counts() {
    let (x, y) = blobs(67, 12, 3, 11); // 67 rows: not divisible by any thread count
    let online = OnlineHd::fit(
        &OnlineHdConfig {
            dim: 512,
            epochs: 4,
            ..Default::default()
        },
        &x,
        &y,
    )
    .unwrap();
    assert_backend_invariant(&online, &x, "OnlineHD");
    for (precision, name) in [
        (Precision::Binary, "bitpacked OnlineHD"),
        (Precision::Int8, "int8 OnlineHD"),
    ] {
        assert_backend_invariant(&online.with_precision(precision).unwrap(), &x, name);
    }

    let boost = BoostHd::fit(
        &BoostHdConfig {
            dim_total: 600,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        },
        &x,
        &y,
    )
    .unwrap();
    assert_backend_invariant(&boost, &x, "BoostHD");

    let centroid = CentroidHd::fit(
        &CentroidHdConfig {
            dim: 256,
            ..Default::default()
        },
        &x,
        &y,
    )
    .unwrap();
    assert_backend_invariant(&centroid, &x, "CentroidHD");
}

#[test]
fn pipeline_confidence_path_is_backend_invariant() {
    let (x, y) = blobs(53, 8, 3, 23);
    let pipeline = Pipeline::fit(
        &ModelSpec::OnlineHd(OnlineHdConfig {
            dim: 384,
            epochs: 4,
            ..Default::default()
        }),
        &x,
        &y,
    )
    .unwrap()
    .with_abstain_threshold(0.4);
    let reference = pipeline.predict_batch_with_confidence(&x);
    for threads in THREAD_COUNTS {
        for backend in [ExecBackend::Pooled, ExecBackend::Scoped] {
            let got = pipeline.predict_batch_with_confidence_chunked(&x, threads, backend);
            assert_eq!(
                got.len(),
                reference.len(),
                "threads={threads} backend={}",
                backend.tag()
            );
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.class, b.class);
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                assert_eq!(a.margin.to_bits(), b.margin.to_bits());
                assert_eq!(a.abstained, b.abstained);
            }
        }
    }
}

#[test]
fn chunk_bounds_are_shared_by_construction() {
    // Both backends must consume identical chunks: reconstruct each
    // backend's chunk list through the public fan-out and compare.
    for (count, workers) in [(1usize, 8usize), (7, 2), (64, 8), (67, 8), (100, 3)] {
        let collect = |backend: ExecBackend| -> Vec<(usize, usize)> {
            parallel_map_indices_with(backend, workers, workers, |w| {
                vec![chunk_bounds(count, workers, w)]
            })
            .into_iter()
            .flatten()
            .collect()
        };
        assert_eq!(
            collect(ExecBackend::Pooled),
            collect(ExecBackend::Scoped),
            "count={count} workers={workers}"
        );
    }
}
