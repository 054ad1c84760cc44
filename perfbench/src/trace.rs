//! Spans, self time, and the delegating traced model.
//!
//! Spans live in memory and are written out when the run ends. Client
//! timestamps and model-call spans share one monotonic clock ([`now_ns`]),
//! so a request can be joined with the model call that scored it: the
//! traced model records a hash of every row it scores, and the benchmark
//! knows which row each request carried.

use std::any::Any;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use boosthd::persist::Writer;
use boosthd::pipeline::PayloadKind;
use boosthd::{Classifier, Model, Pipeline, Result as HdResult};
use faults::BitflipReport;
use linalg::{Matrix, Rng64};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `t` in trace-clock nanoseconds (0 for instants before the epoch).
pub fn ns_at(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// One span: a timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`request`, `upload`, `model`).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (or upload) id the span belongs to.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start.max(parent.start);
            let end = s.end.min(parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Writes spans as tab-separated `name start_ns end_ns parent request`
/// lines (`-` for none).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let request = s.request.map_or("-".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{request}",
            s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// FNV-1a 64 over a row's `f32` bit patterns: the key that joins a
/// request to the model call that scored its row.
pub fn row_hash(row: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in row {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One call into the wrapped model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCall {
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
    /// Hash of every row the call scored, in row order.
    pub rows: Vec<u64>,
}

/// Shared in-memory sink of model calls.
#[derive(Debug, Default)]
pub struct Recorder {
    calls: Mutex<Vec<ModelCall>>,
}

impl Recorder {
    /// A fresh recorder behind an `Arc`, ready to share with clones.
    pub fn shared() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    fn record(&self, start: u64, rows: Vec<u64>) {
        let end = now_ns();
        self.calls
            .lock()
            .expect("recorder lock poisoned by a panicking model call")
            .push(ModelCall { start, end, rows });
    }

    /// Removes and returns every recorded call, ordered by start.
    pub fn take(&self) -> Vec<ModelCall> {
        let mut calls = std::mem::take(
            &mut *self
                .calls
                .lock()
                .expect("recorder lock poisoned by a panicking model call"),
        );
        calls.sort_by_key(|c| c.start);
        calls
    }
}

fn batch_hashes(x: &Matrix) -> Vec<u64> {
    (0..x.rows()).map(|r| row_hash(x.row(r))).collect()
}

/// A `Model` that delegates every call to the model it wraps and records
/// a span around each scoring call. It lives in the benchmark, so tracing
/// the live server needs no change to the program: wrap the fitted model
/// with [`traced_pipeline`] and bind the server on the result.
pub struct TracedModel {
    inner: Box<dyn Model>,
    recorder: Arc<Recorder>,
}

impl TracedModel {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: Box<dyn Model>, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl Classifier for TracedModel {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        let start = now_ns();
        let out = self.inner.scores(x);
        self.recorder.record(start, vec![row_hash(x)]);
        out
    }

    fn predict(&self, x: &[f32]) -> usize {
        let start = now_ns();
        let out = self.inner.predict(x);
        self.recorder.record(start, vec![row_hash(x)]);
        out
    }

    fn scores_batch(&self, x: &Matrix) -> Matrix {
        let start = now_ns();
        let out = self.inner.scores_batch(x);
        self.recorder.record(start, batch_hashes(x));
        out
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        let start = now_ns();
        let out = self.inner.predict_batch(x);
        self.recorder.record(start, batch_hashes(x));
        out
    }
}

impl Model for TracedModel {
    fn payload_kind(&self) -> PayloadKind {
        self.inner.payload_kind()
    }

    fn clone_box(&self) -> Box<dyn Model> {
        // Clones share the recorder: the server clones the pipeline at
        // bind, and the clone is the one that serves.
        Box::new(TracedModel::new(
            self.inner.clone_box(),
            Arc::clone(&self.recorder),
        ))
    }

    fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> HdResult<BitflipReport> {
        self.inner.inject_bitflips(p_b, rng)
    }

    fn to_payload(&self) -> HdResult<Vec<u8>> {
        self.inner.to_payload()
    }

    fn encode_store(&self, w: &mut Writer) -> HdResult<()> {
        self.inner.encode_store(w)
    }

    // Downcasts see the wrapped family, so the server builds the same
    // degrade ladder for a traced pipeline as for the plain one.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// `pipeline` with its model wrapped in a [`TracedModel`]: same spec,
/// same abstention threshold, same predictions.
pub fn traced_pipeline(pipeline: &Pipeline, recorder: &Arc<Recorder>) -> Pipeline {
    Pipeline::from_model(
        pipeline.spec().clone(),
        Box::new(TracedModel::new(
            pipeline.model().clone_box(),
            Arc::clone(recorder),
        )),
    )
    .with_abstain_threshold(pipeline.abstain_threshold())
}
