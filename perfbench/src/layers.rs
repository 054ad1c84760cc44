//! Per-layer probes: each calls one layer's public functions on the
//! workload's own rows, frames and batch sizes, outside the live run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use boosthd::fleet::Fleet;
use boosthd::parallel::ExecBackend;
use boosthd::{BoostHd, Classifier, OnlineHd, Pipeline, Prediction};
use boosthd_serve::wire::{predict_response_fleet, Client, Reply, Request};
use hdc::{Encode, SinusoidEncoder};
use linalg::Matrix;

use crate::report::median;

/// Median over five rounds of the nanoseconds one call of `f` takes, each
/// round running `f` for about `round` (at least 3 calls).
pub fn ns_per_call(round: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while calls < 3 || start.elapsed() < round {
                f();
                calls += 1;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

const ROUND: Duration = Duration::from_millis(8);

/// `batch` consecutive rows of `x`, wrapping around.
pub fn batch_of(x: &Matrix, batch: usize) -> Matrix {
    let rows: Vec<Vec<f32>> = (0..batch.max(1))
        .map(|i| x.row(i % x.rows()).to_vec())
        .collect();
    Matrix::from_rows(&rows).expect("rows share one width")
}

/// The model's shapes, for the kernel probes and the byte count.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// The encoder the model scores through.
    pub encoder: SinusoidEncoder,
    /// One learner's class hypervectors (`classes × segment`).
    pub class_hvs: Matrix,
    /// Input features.
    pub features: usize,
    /// Total hypervector dimension.
    pub dim: usize,
    /// Classes.
    pub classes: usize,
}

/// Reads the shapes of a dense BoostHD or OnlineHD pipeline.
pub fn shapes(pipeline: &Pipeline) -> Option<Shapes> {
    if let Some(m) = pipeline.downcast_ref::<BoostHd>() {
        let class_hvs = m.learner_class_hypervectors(0).clone();
        return Some(Shapes {
            encoder: m.encoder().clone(),
            features: m.encoder().input_len(),
            dim: m.dim_total(),
            classes: class_hvs.rows(),
            class_hvs,
        });
    }
    let m = pipeline.downcast_ref::<OnlineHd>()?;
    Some(Shapes {
        encoder: m.encoder().clone(),
        features: m.encoder().input_len(),
        dim: m.dim(),
        classes: m.class_hypervectors().rows(),
        class_hvs: m.class_hypervectors().clone(),
    })
}

/// `hdc::encoder`: ns per row of `encode_batch` at `batch` rows.
pub fn encoder_ns_per_row(shapes: &Shapes, x: &Matrix, batch: usize) -> f64 {
    let xb = batch_of(x, batch);
    ns_per_call(ROUND, || {
        black_box(shapes.encoder.encode_batch(black_box(&xb)));
    }) / xb.rows() as f64
}

/// `boosthd::pipeline`: ns per row that `predict_batch_with_confidence`
/// adds over `scores_batch` on the same `batch` rows.
pub fn confidence_ns_per_row(pipeline: &Pipeline, x: &Matrix, batch: usize) -> f64 {
    let xb = batch_of(x, batch);
    let with = ns_per_call(ROUND, || {
        black_box(pipeline.predict_batch_with_confidence(black_box(&xb)));
    });
    let scores = ns_per_call(ROUND, || {
        black_box(pipeline.scores_batch(black_box(&xb)));
    });
    (with - scores) / xb.rows() as f64
}

/// `boosthd::pool`: µs per call that the pooled `threads`-way fan-out adds
/// over the single-threaded call on one `batch`-row flush.
pub fn fanout_us_per_call(pipeline: &Pipeline, x: &Matrix, batch: usize, threads: usize) -> f64 {
    let xb = batch_of(x, batch);
    let pooled = ns_per_call(ROUND, || {
        black_box(pipeline.predict_batch_with_confidence_chunked(
            black_box(&xb),
            threads,
            ExecBackend::Pooled,
        ));
    });
    let single = ns_per_call(ROUND, || {
        black_box(pipeline.predict_batch_with_confidence(black_box(&xb)));
    });
    (pooled - single) / 1e3
}

/// `linalg::kernels`: ns of one `cosine_scores_into` and one `dot_i8` at
/// the model's learner shape.
pub fn kernel_ns(shapes: &Shapes, x: &Matrix) -> (f64, f64) {
    let seg = shapes.class_hvs.cols();
    let encoded = shapes.encoder.encode_batch(&batch_of(x, 1));
    let q: Vec<f32> = encoded.row(0)[..seg].to_vec();
    let qnorm = linalg::kernels::norm(&q);
    let mut out = vec![0.0f32; shapes.classes];
    let cosine = ns_per_call(ROUND, || {
        linalg::kernels::cosine_scores_into(&shapes.class_hvs, black_box(&q), qnorm, &mut out);
        black_box(&out);
    });
    let scale = |v: &[f32]| {
        let max = v
            .iter()
            .fold(0.0f32, |m, &a| m.max(a.abs()))
            .max(f32::MIN_POSITIVE);
        let mut out = vec![0i8; v.len()];
        linalg::kernels::quantize_scale_i8(v, 127.0 / max, &mut out);
        out
    };
    let a = scale(&q);
    let b = scale(shapes.class_hvs.row(0));
    let dot = ns_per_call(ROUND, || {
        black_box(linalg::kernels::dot_i8(black_box(&a), black_box(&b)));
    });
    (cosine, dot)
}

/// Bytes one scored row moves, computed from tensor sizes (not measured):
/// the input row, the encoded row written and read back, the scores, plus
/// the projection and class memory streamed once per score chunk and
/// shared by its `chunk` rows.
pub fn bytes_per_row(shapes: &Shapes, chunk: usize) -> f64 {
    let (f, d, c) = (
        shapes.features as f64,
        shapes.dim as f64,
        shapes.classes as f64,
    );
    4.0 * (f + 2.0 * d + c + (f * d + c * d) / chunk.max(1) as f64)
}

/// `boosthd_serve::wire`: ns per frame of `Request::parse` on `requests`,
/// of `predict_response_fleet` on `replies`, and of `Reply::parse` on the
/// encoded reply frames.
pub fn wire_ns(
    requests: &[String],
    replies: &[(u64, Prediction)],
    fleet: Option<(&str, u64)>,
) -> (f64, f64, f64) {
    let mut i = 0usize;
    let parse = ns_per_call(ROUND, || {
        i += 1;
        black_box(Request::parse(black_box(&requests[i % requests.len()])).ok());
    });
    let mut j = 0usize;
    let encode = ns_per_call(ROUND, || {
        j += 1;
        let (id, p) = &replies[j % replies.len()];
        black_box(predict_response_fleet(*id, black_box(p), "f32", fleet));
    });
    let frames: Vec<String> = replies
        .iter()
        .map(|(id, p)| predict_response_fleet(*id, p, "f32", fleet))
        .collect();
    let mut k = 0usize;
    let reply_parse = ns_per_call(ROUND, || {
        k += 1;
        black_box(Reply::parse(black_box(&frames[k % frames.len()])).ok());
    });
    (parse, encode, reply_parse)
}

/// The predict frames a client sends for `rows`, in the client's frame
/// layout (`Client` writes its frames straight to the socket).
pub fn request_frames(rows: &[Vec<f32>], model: Option<&str>) -> Vec<String> {
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let mut frame = format!("{{\"id\":{i}");
            if let Some(m) = model {
                frame.push_str(&format!(",\"model\":\"{m}\""));
            }
            frame.push_str(",\"features\":[");
            for (k, v) in row.iter().enumerate() {
                if k > 0 {
                    frame.push(',');
                }
                frame.push_str(&v.to_string());
            }
            frame.push_str("]}");
            frame
        })
        .collect()
}

/// `boosthd_serve::server`: median round trip of `Client::ping`, in µs.
///
/// # Errors
///
/// Connection or reply failures.
pub fn ping_rtt_us(addr: &str, count: usize) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("ping connect: {e}"))?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Instant::now();
        match client.ping() {
            Ok(Reply::Ok(_)) => samples.push(start.elapsed().as_nanos() as f64 / 1e3),
            other => return Err(format!("ping failed: {other:?}")),
        }
    }
    Ok(median(&samples))
}

/// `boosthd::fleet`: median µs of a resident `Fleet::get` and of a `get`
/// that must load from the store (the model is evicted first), over
/// `ids`.
///
/// # Errors
///
/// Registry errors.
pub fn fleet_get_us(fleet: &Fleet, ids: &[String]) -> Result<(f64, f64), String> {
    let mut hit = Vec::with_capacity(ids.len());
    let mut miss = Vec::with_capacity(ids.len());
    for id in ids {
        fleet.evict(id);
        let start = Instant::now();
        black_box(fleet.get(id).map_err(|e| e.to_string())?);
        miss.push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        black_box(fleet.get(id).map_err(|e| e.to_string())?);
        hit.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok((median(&hit), median(&miss)))
}

/// Footer bytes one append rewrites when the store indexes `ids` (one
/// entry per record: id length, id, version, offset, length), plus the
/// entry count and the 40-byte trailer. Computed from the store format.
pub fn index_bytes(ids: &[&str]) -> f64 {
    let entries: usize = ids.iter().map(|id| 8 + id.len() + 8 + 8 + 8).sum();
    (8 + entries + 40) as f64
}
