//! Criterion harness for the serving-throughput comparison: row-at-a-time
//! `predict` loops vs the batched pipeline, dense vs bitpacked, across
//! thread counts. The `throughput` *binary* is the artifact generator
//! (`BENCH_throughput.json`) at the paper's full `D = 4000`; this bench is
//! the quick-iteration harness at a smaller `D`.
//!
//! Run with `cargo bench --bench throughput`.

use boosthd::classifier::predict_batch_chunked;
use boosthd::{Classifier, ModelSpec, OnlineHd, OnlineHdConfig, Pipeline, Precision};
use criterion::Criterion;
use linalg::{Matrix, Rng64};

const DIM: usize = 1000;
const FEATURES: usize = 128;
const ROWS: usize = 96;

fn blob_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 3;
        let center = class as f32 - 1.0;
        rows.push((0..FEATURES).map(|_| center + rng.normal()).collect());
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn bench_row_vs_batch(c: &mut Criterion) {
    let (x, y) = blob_data(ROWS, 1);
    let model = Pipeline::fit(
        &ModelSpec::OnlineHd(OnlineHdConfig {
            dim: DIM,
            epochs: 2,
            ..Default::default()
        }),
        &x,
        &y,
    )
    .unwrap()
    .downcast_ref::<OnlineHd>()
    .expect("spec-built OnlineHD")
    .clone();
    let packed = model.with_precision(Precision::Binary).unwrap();

    let mut group = c.benchmark_group(format!("predict_{ROWS}rows_d{DIM}_f{FEATURES}"));
    group.sample_size(10);
    group.bench_function("dense_row_loop", |b| {
        b.iter(|| {
            for r in 0..x.rows() {
                std::hint::black_box(model.predict(x.row(r)));
            }
        })
    });
    group.bench_function("dense_batch", |b| {
        b.iter(|| std::hint::black_box(model.predict_batch(&x)))
    });
    for threads in [4usize, 8] {
        group.bench_function(format!("dense_batch_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(predict_batch_chunked(&model, &x, threads)))
        });
    }
    group.bench_function("packed_row_loop", |b| {
        b.iter(|| {
            for r in 0..x.rows() {
                std::hint::black_box(packed.predict(x.row(r)));
            }
        })
    });
    group.bench_function("packed_batch", |b| {
        b.iter(|| std::hint::black_box(packed.predict_batch(&x)))
    });
    group.finish();
}

criterion::criterion_group!(benches, bench_row_vs_batch);
criterion::criterion_main!(benches);
