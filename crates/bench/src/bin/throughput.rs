//! Serving-throughput benchmark: rows/sec of row-at-a-time `predict` loops
//! versus the batched pipeline (fused encode GEMM + batched scoring),
//! dense and bitpacked, across feature widths and thread counts —
//! snapshotted to `BENCH_throughput.json`.
//!
//! Two configurations at the paper's `D = 4000`, both real serving shapes:
//! the Nurse-style segmented feature vector (`F = 128`) and a
//! high-resolution eight-segment variant (`F = 256`). Wide features are
//! where the projection matrix outgrows cache and the row-at-a-time loop
//! pays a full projection stream per query — exactly the traffic the
//! blocked batch GEMM amortizes across a row block, so the batch advantage
//! grows with `F`. Both paths produce bit-identical predictions (pinned by
//! property tests), so every speedup row is a pure implementation win.
//!
//! Usage: `throughput [--quick]` — `--quick` shrinks everything for a CI
//! smoke run and skips the JSON snapshot.

use std::time::Instant;

use boosthd::parallel::default_threads;
use boosthd::{Classifier, ModelSpec, OnlineHd, OnlineHdConfig, Precision};
use boosthd_bench::{fit_spec, parse_common_args, prepare_split};
use boosthd_serve::{EngineConfig, InferenceEngine};
use linalg::Matrix;
use wearables::profiles::{self, DatasetProfile};

/// One measured configuration.
struct Row {
    config: String,
    features: usize,
    model: &'static str,
    path: &'static str,
    threads: usize,
    /// The machine's `available_parallelism()` at measurement time, so a
    /// snapshot row can be judged against the hardware that produced it.
    hw_threads: usize,
    rows_per_sec: f64,
}

/// The machine's available parallelism (1 when undetectable). Thread
/// counts above this are skipped: an oversubscribed row measures scheduler
/// contention, not the serving path.
fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Rows/sec of `run` over `rows` queries, best of `reps` timed passes after
/// one warm-up.
fn measure(rows: usize, reps: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    rows as f64 / best
}

/// Measures one dataset configuration, appending its rows to `results`.
fn run_config(
    label: &str,
    profile: &DatasetProfile,
    dim: usize,
    quick: bool,
    results: &mut Vec<Row>,
) {
    let (train, test) = prepare_split(profile, 42);
    eprintln!(
        "[throughput] {label}: D={dim} F={} train={} test={}",
        train.num_features(),
        train.len(),
        test.len()
    );
    // The row-loop arms call the concrete models directly, so take the
    // typed view out of the spec-built pipeline.
    let model = fit_spec(
        &ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            seed: 42,
            ..Default::default()
        }),
        train.features(),
        train.labels(),
    )
    .downcast_ref::<OnlineHd>()
    .expect("spec-built OnlineHD")
    .clone();
    let packed = model.with_precision(Precision::Binary).expect("f32 model");

    // Replicate the test split into a serving-sized query batch.
    let target_rows = if quick { 64 } else { 768 };
    let indices: Vec<usize> = (0..target_rows).map(|i| i % test.len()).collect();
    let queries: Matrix = test.features().select_rows(&indices);
    let rows = queries.rows();
    let reps = if quick { 1 } else { 5 };

    // Sanity: the batched path must answer exactly like the row loop.
    let row_preds: Vec<usize> = (0..rows).map(|r| model.predict(queries.row(r))).collect();
    assert_eq!(model.predict_batch(&queries), row_preds);
    let packed_row_preds: Vec<usize> = (0..rows).map(|r| packed.predict(queries.row(r))).collect();
    assert_eq!(packed.predict_batch(&queries), packed_row_preds);

    let features = train.num_features();
    let hw = hardware_threads();
    let mut push = |model_name: &'static str, path: &'static str, threads: usize, rps: f64| {
        results.push(Row {
            config: label.to_string(),
            features,
            model: model_name,
            path,
            threads,
            hw_threads: hw,
            rows_per_sec: rps,
        });
    };
    let thread_counts: Vec<usize> = [1usize, 4, 8].into_iter().filter(|&t| t <= hw).collect();
    if thread_counts.len() < 3 {
        eprintln!(
            "[throughput] {label}: machine has {hw} hardware threads; \
             skipping oversubscribed thread counts"
        );
    }

    let dense_row = measure(rows, reps, || {
        for r in 0..rows {
            std::hint::black_box(model.predict(queries.row(r)));
        }
    });
    push("dense", "row_loop", 1, dense_row);
    for &t in &thread_counts {
        let mut engine = InferenceEngine::with_config(
            &model,
            EngineConfig {
                max_batch: rows,
                ..Default::default()
            },
        );
        engine.set_threads(t);
        let rps = measure(rows, reps, || {
            std::hint::black_box(engine.predict_batch(&queries));
        });
        push("dense", "batch", t, rps);
    }

    let packed_row = measure(rows, reps, || {
        for r in 0..rows {
            std::hint::black_box(packed.predict(queries.row(r)));
        }
    });
    push("packed", "row_loop", 1, packed_row);
    for &t in &thread_counts {
        let mut engine = InferenceEngine::with_config(
            &packed,
            EngineConfig {
                max_batch: rows,
                ..Default::default()
            },
        );
        engine.set_threads(t);
        let rps = measure(rows, reps, || {
            std::hint::black_box(engine.predict_batch(&queries));
        });
        push("packed", "batch", t, rps);
    }
}

fn main() {
    let (_runs, quick) = parse_common_args(3);
    let dim = if quick { 512 } else { 4000 };
    let base = DatasetProfile {
        subjects: if quick { 5 } else { 10 },
        windows_per_state: if quick { 4 } else { 12 },
        window_samples: if quick { 240 } else { 480 },
        ..profiles::nurse_like()
    };
    let wide = DatasetProfile {
        name: "nurse-like-highres".into(),
        segments: 8,
        ..base.clone()
    };

    let mut results: Vec<Row> = Vec::new();
    run_config("nurse_f128", &base, dim, quick, &mut results);
    run_config("highres_f256", &wide, dim, quick, &mut results);

    println!("config        F    model   path      threads  rows/sec");
    for r in &results {
        println!(
            "{:<13} {:<4} {:<7} {:<9} {:<8} {:>9.0}",
            r.config, r.features, r.model, r.path, r.threads, r.rows_per_sec
        );
    }
    let best = |cfg: &str, m: &str, p: &str| {
        results
            .iter()
            .filter(|r| r.config == cfg && r.model == m && r.path == p)
            .map(|r| r.rows_per_sec)
            .fold(0.0f64, f64::max)
    };
    let speedup = |cfg: &str, m: &str| best(cfg, m, "batch") / best(cfg, m, "row_loop");
    let dense_128 = speedup("nurse_f128", "dense");
    let dense_256 = speedup("highres_f256", "dense");
    let packed_128 = speedup("nurse_f128", "packed");
    let packed_256 = speedup("highres_f256", "packed");
    println!(
        "dense  batched speedup over row loop: {dense_128:.2}x (F=128), {dense_256:.2}x (F=256)"
    );
    println!(
        "packed batched speedup over row loop: {packed_128:.2}x (F=128), {packed_256:.2}x (F=256)"
    );

    if quick {
        eprintln!("[throughput] quick mode: skipping BENCH_throughput.json snapshot");
        // Training samples/sec summary (no snapshot in quick mode).
        boosthd_bench::training::run_training_bench(true);
        return;
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"dim\": {dim}, \"query_rows\": 768, \"model\": \"OnlineHD (+ bitpacked quantize)\", \"machine_threads\": {}}},\n",
        default_threads()
    ));
    json.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"features\": {}, \"model\": \"{}\", \"path\": \"{}\", \"threads\": {}, \"hw_threads\": {}, \"rows_per_sec\": {:.1}}}{}\n",
            r.config,
            r.features,
            r.model,
            r.path,
            r.threads,
            r.hw_threads,
            r.rows_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_dense_batch_over_row\": {{\"f128\": {dense_128:.2}, \"f256\": {dense_256:.2}}},\n  \"speedup_packed_batch_over_row\": {{\"f128\": {packed_128:.2}, \"f256\": {packed_256:.2}}}\n}}\n"
    ));
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    eprintln!("[throughput] wrote BENCH_throughput.json");

    // Training samples/sec (scalar vs SIMD kernels) alongside the serving
    // numbers, snapshotted to BENCH_training.json by the shared harness.
    boosthd_bench::training::run_training_bench(false);
}
