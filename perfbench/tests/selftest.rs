//! Self-tests of the benchmark's own machinery: seeded schedules, the
//! percentile rule, self time from nested spans, operation accounting,
//! and the traced model's fidelity.

use boosthd::{Classifier, ModelSpec, OnlineHdConfig, Pipeline};
use linalg::{Matrix, Rng64};
use perfbench::report::{tail, windowed_tail, Ops, MISMATCH, MISSING};
use perfbench::sched::{poisson_schedule, Zipf};
use perfbench::trace::{self_times, traced_pipeline, Recorder, Span};

#[test]
fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
    let a = poisson_schedule(7, 100.0, 5.0);
    let b = poisson_schedule(7, 100.0, 5.0);
    let c = poisson_schedule(8, 100.0, 5.0);
    assert_eq!(a, b);
    assert_ne!(a, c);
    // Exactly rate × horizon arrivals, sorted, inside [0, 5).
    assert_eq!(a.len(), 500);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
}

#[test]
fn zipf_draws_repeat_for_a_seed_and_differ_across_seeds() {
    let zipf = Zipf::new(1_000, 1.0);
    let a = zipf.draws(3, 2_000);
    assert_eq!(a, zipf.draws(3, 2_000));
    assert_ne!(a, zipf.draws(4, 2_000));
    assert!(a.iter().all(|&m| m < 1_000));
    // Rank 0 is the most popular: weight 1 / H(1000) ≈ 13%.
    let top = a.iter().filter(|&&m| m == 0).count();
    assert!((150..400).contains(&top), "rank 0 drawn {top} times");
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
    let p99 = tail(&samples, 99.0).expect("1000 samples leave 10 beyond p99");
    assert_eq!((p99.value, p99.count, p99.beyond), (990.0, 1_000, 10));
    assert!(tail(&samples[..999], 99.0).is_none(), "999 samples leave 9");
    let p50 = tail(&samples[..20], 50.0).expect("20 samples leave 10 beyond p50");
    assert_eq!(p50.value, 10.0);
    assert!(tail(&samples[..19], 50.0).is_none());
    assert!(tail(&[], 50.0).is_none());
}

#[test]
fn windowed_percentile_keeps_ten_beyond_in_every_window() {
    // Four 1000-sample windows whose p99s are 990, 1990, 2990, 3990.
    let samples: Vec<f64> = (1..=4_000).map(f64::from).collect();
    let p99 = windowed_tail(&samples, 99.0, 8).expect("4000 samples");
    assert_eq!(p99.windows.len(), 4);
    assert!(p99.windows.iter().all(|w| w.beyond >= 10));
    assert_eq!(p99.value, 0.5 * (1990.0 + 2990.0));
    // The window count is capped, and too few samples report nothing.
    assert_eq!(
        windowed_tail(&samples, 50.0, 8).expect("p50").windows.len(),
        8
    );
    assert!(windowed_tail(&samples[..999], 99.0, 8).is_none());
}

#[test]
fn failures_count_as_missing_every_limit() {
    // 980 fast requests and 20 failures: p99 lands on a failure.
    let mut samples = vec![1.0; 980];
    samples.extend(std::iter::repeat_n(f64::INFINITY, 20));
    let p99 = tail(&samples, 99.0).expect("enough samples");
    assert!(p99.value.is_infinite());
    let p50 = tail(&samples, 50.0).expect("enough samples");
    assert_eq!(p50.value, 1.0);
}

#[test]
fn operation_accounting_splits_failures_by_cause() {
    let mut ops = Ops::default();
    for _ in 0..7 {
        ops.ok();
    }
    ops.fail("shed");
    ops.fail(MISMATCH);
    ops.fail(MISSING);
    ops.fail("no_such_code");
    assert_eq!((ops.attempted, ops.succeeded, ops.failed()), (11, 7, 4));
    assert_eq!(ops.causes["shed"], 1);
    assert_eq!(ops.causes[MISMATCH], 1);
    assert_eq!(ops.causes[MISSING], 1);
    assert_eq!(ops.causes["internal"], 1, "unknown tags count as internal");
    assert!((ops.failed_frac() - 4.0 / 11.0).abs() < 1e-12);
}

fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name: "s",
        start,
        end,
        parent,
        request: None,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, 100, None),     // 0: root
        span(10, 30, Some(0)),  // 1: child
        span(20, 50, Some(0)),  // 2: overlaps child 1 — [10, 50) counted once
        span(25, 35, Some(2)),  // 3: grandchild, only reduces span 2
        span(90, 120, Some(0)), // 4: runs past the root — clipped to [90, 100)
        span(200, 210, None),   // 5: a leaf
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 40 - 10, 20, 30 - 10, 10, 30, 10]
    );
}

fn toy() -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(5);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..90 {
        let class = i % 3;
        rows.push(
            (0..6)
                .map(|f| if f % 3 == class { 1.0 } else { -0.3 } + 0.3 * rng.normal())
                .collect(),
        );
        labels.push(class);
    }
    (Matrix::from_rows(&rows).expect("toy rows"), labels)
}

#[test]
fn traced_model_is_bit_identical_to_the_model_it_wraps() {
    let (x, y) = toy();
    let spec = ModelSpec::OnlineHd(OnlineHdConfig {
        dim: 256,
        epochs: 3,
        ..Default::default()
    });
    let plain = Pipeline::fit(&spec, &x, &y)
        .expect("fit")
        .with_abstain_threshold(0.4);
    let recorder = Recorder::shared();
    let traced = traced_pipeline(&plain, &recorder);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&traced.scores_batch(&x)),
        bits(&plain.scores_batch(&x))
    );
    for r in 0..x.rows() {
        let (a, b) = (
            traced.predict_with_confidence(x.row(r)),
            plain.predict_with_confidence(x.row(r)),
        );
        assert_eq!(a.class, b.class);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.abstained, b.abstained);
    }
    // The server's flush path, through a clone as the server makes one.
    let served = traced.clone().predict_batch_with_confidence_chunked(
        &x,
        2,
        boosthd::parallel::ExecBackend::Pooled,
    );
    let reference = plain.predict_batch_with_confidence(&x);
    for (a, b) in served.iter().zip(&reference) {
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    // Every call was recorded, each with one hash per scored row.
    let calls = recorder.take();
    let rows: usize = calls.iter().map(|c| c.rows.len()).sum();
    assert_eq!(rows, 2 * x.rows() + x.rows());
    assert!(calls.iter().all(|c| c.start <= c.end));
}
