//! Class memories: the associative memory an HDC model scores queries
//! against, stored at one of three precisions.
//!
//! Training always runs in f32 (the OnlineHD update needs magnitudes), but
//! a *deployed* model only scores queries, and how its class hypervectors
//! are stored is a property of the memory, not of the model family. Every
//! model here — [`crate::OnlineHd`], [`crate::CentroidHd`], and each
//! [`crate::BoostHd`] weak learner — owns one [`ClassMemory`]:
//!
//! * [`ClassMemory::Dense`] — unit-norm f32 rows scored by the fused
//!   cosine kernels (full fidelity, 4 bytes per dimension);
//! * [`ClassMemory::Int8`] — **symmetric per-row int8** ([`I8Rows`]): each
//!   row is scaled by `s = max|v| / 127` and rounded to
//!   `q = round(v / s) ∈ [-127, 127]`, one signed byte per dimension plus
//!   one f32 scale per row (~4× smaller, error within half a step);
//! * [`ClassMemory::Packed`] — sign-binarized rows packed into `u64`
//!   words ([`hdc::backend::PackedMatrix`]) scored by XOR + popcount (32×
//!   smaller; the binary-HDC execution model wearable accelerators
//!   implement in hardware).
//!
//! Queries are always encoded with the unchanged f32 projection; only the
//! sweep over the stored rows changes. The int8 score is a faithful cosine
//! approximation: with class row `c ≈ s_c · q_c` and encoded query
//! `h ≈ s_h · q_h`,
//!
//! ```text
//! cos(c, h) = (c · h) / (‖c‖ ‖h‖) ≈ dot_i8(q_c, q_h) · s_h / (‖q_c‖ ‖h‖)
//! ```
//!
//! — the class scale cancels. The integer dot ([`linalg::kernels::dot_i8`])
//! and the popcount are bit-exact across kernel dispatch levels, and the
//! per-row inverse norms `1/‖q_c‖` are derived from the stored bytes
//! (never persisted), so a save → load round trip reproduces scores
//! bit-for-bit.
//!
//! Each precision has exactly one implementation of each job a memory
//! does: row scoring, chunk scoring, storage accounting, the codec (in
//! [`crate::persist`]), and bit-flip injection
//! ([`crate::Model::inject_bitflips`]): IEEE-754 word flips for f32,
//! two's-complement byte flips for int8, and stored-sign-bit flips for the
//! packed memory — the faithful single-event-upset model of each storage.
//!
//! # Quantization-aware refit
//!
//! Plain quantization is data-free but lossy when the per-learner
//! dimensionality is small (1-bit similarity noise grows like `1/√D_wl`).
//! `with_precision_refit` runs straight-through refinement before freezing
//! (e.g. [`crate::OnlineHd::with_precision_refit`]): queries are
//! scored against the *quantized* rows (exactly what deployment will do)
//! while the OnlineHD update accumulates in f32 shadow weights, and every
//! touched row is re-quantized immediately. At the paper's `D_wl = 400`
//! this recovers most of the sign-rounding loss; at int8 it is a polish
//! rather than a rescue.

use std::ops::Range;

use crate::classifier::argmax;
use crate::error::{BoostHdError, Result};
use crate::online::{scores_unit_classes_batch, scores_unit_classes_into};
use faults::{BitflipReport, PerturbablePacked};
use hdc::backend::{PackedHv, PackedMatrix};
use linalg::kernels::dot_i8;
use linalg::matrix::norm;
use linalg::{Matrix, Rng64, Storage};
use serde::{Deserialize, Serialize};

/// Storage precision of a [`ClassMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Dense unit-norm f32 rows (the training representation).
    #[default]
    F32,
    /// Symmetric per-row int8 with one f32 scale per row.
    Int8,
    /// Sign-binarized rows packed into `u64` words.
    Binary,
}

impl Precision {
    /// Every precision, most precise first — the degrade-ladder order.
    pub(crate) const ALL: [Precision; 3] = [Precision::F32, Precision::Int8, Precision::Binary];

    /// Stable spec-file and tier tag: `"f32"`, `"int8"` or `"binary"`.
    pub fn tag(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
            Precision::Binary => "binary",
        }
    }

    /// Inverse of [`Precision::tag`].
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        Precision::ALL.into_iter().find(|p| p.tag() == tag)
    }

    /// Rejects refit epochs at f32 (there is nothing to refit toward).
    pub(crate) fn check_refit_epochs(self, refit_epochs: usize) -> Result<()> {
        if self == Precision::F32 && refit_epochs > 0 {
            return Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "refit_epochs = {refit_epochs} needs precision int8 or binary; f32 has nothing to refit"
                ),
            });
        }
        Ok(())
    }
}

/// The stored class hypervectors of one model or weak learner (see the
/// [module docs](self)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClassMemory {
    /// Unit-norm f32 rows.
    Dense(Matrix),
    /// Sign-packed rows.
    Packed(PackedMatrix),
    /// Scaled int8 rows.
    Int8(I8Rows),
}

impl ClassMemory {
    /// Freezes trained f32 class rows at `precision` (data-free).
    pub(crate) fn from_dense(m: &Matrix, precision: Precision) -> Self {
        match precision {
            Precision::F32 => ClassMemory::Dense(m.clone()),
            Precision::Int8 => ClassMemory::Int8(I8Rows::from_dense(m)),
            Precision::Binary => ClassMemory::Packed(PackedMatrix::from_dense_rows(m)),
        }
    }

    /// The storage precision.
    pub fn precision(&self) -> Precision {
        match self {
            ClassMemory::Dense(_) => Precision::F32,
            ClassMemory::Int8(_) => Precision::Int8,
            ClassMemory::Packed(_) => Precision::Binary,
        }
    }

    /// Number of stored class rows.
    pub(crate) fn rows(&self) -> usize {
        match self {
            ClassMemory::Dense(m) => m.rows(),
            ClassMemory::Int8(m) => m.rows(),
            ClassMemory::Packed(m) => m.rows(),
        }
    }

    /// Hyperspace dimensionality of each row.
    pub(crate) fn dim(&self) -> usize {
        match self {
            ClassMemory::Dense(m) => m.cols(),
            ClassMemory::Int8(m) => m.cols(),
            ClassMemory::Packed(m) => m.dim(),
        }
    }

    /// Bytes a deployed associative memory holds for these rows: f32
    /// values, packed words, or int8 bytes plus per-row scales (derived
    /// norms excluded — they are recomputed at load).
    pub(crate) fn storage_bytes(&self) -> usize {
        match self {
            ClassMemory::Dense(m) => std::mem::size_of_val(m.as_slice()),
            ClassMemory::Int8(m) => m.storage_bytes(),
            ClassMemory::Packed(m) => std::mem::size_of_val(m.as_words()),
        }
    }

    /// The f32 rows a precision conversion starts from.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for a quantized memory.
    pub(crate) fn f32_source(&self) -> Result<&Matrix> {
        match self {
            ClassMemory::Dense(m) => Ok(m),
            other => Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "precision conversion needs an f32 model, got a {} one",
                    other.precision().tag()
                ),
            }),
        }
    }

    /// The f32 rows, for the `class_hypervectors` accessors.
    ///
    /// # Panics
    ///
    /// Panics for a quantized memory, which holds no dense rows.
    pub(crate) fn expect_dense(&self) -> &Matrix {
        self.f32_source().unwrap_or_else(|_| {
            panic!(
                "class hypervectors are stored at {} precision; only f32 models hold dense rows",
                self.precision().tag()
            )
        })
    }

    /// Checks a decoded or converted memory against its model's class
    /// count and query width.
    pub(crate) fn check_shape(&self, rows: usize, dim: usize) -> Result<()> {
        if self.rows() != rows {
            return Err(BoostHdError::DataMismatch {
                reason: "class memory row count disagrees with header".into(),
            });
        }
        if self.dim() != dim {
            return Err(BoostHdError::DataMismatch {
                reason: "class memory width disagrees with encoder".into(),
            });
        }
        Ok(())
    }

    pub(crate) fn as_dense_mut(&mut self) -> Option<&mut Matrix> {
        match self {
            ClassMemory::Dense(m) => Some(m),
            _ => None,
        }
    }

    /// Per-row similarities of one encoded query `h` (the row path).
    /// `qbuf` is caller scratch reused across calls; `out` holds one slot
    /// per stored row.
    pub(crate) fn scores_into(&self, h: &[f32], qbuf: &mut Vec<i8>, out: &mut [f32]) {
        match self {
            ClassMemory::Dense(m) => scores_unit_classes_into(m, h, out),
            ClassMemory::Int8(m) => m.scores_into(h, qbuf, out),
            ClassMemory::Packed(m) => m.similarities_into(PackedHv::from_signs(h).words(), out),
        }
    }

    /// Similarities of every row of an encoded chunk, restricted to the
    /// columns `cols` (a weak learner's segment), as a
    /// `chunk rows × stored rows` matrix — row-identical to
    /// `scores_into` on each segment.
    pub(crate) fn score_chunk(&self, z: &Matrix, cols: Range<usize>) -> Matrix {
        match self {
            ClassMemory::Dense(m) if cols == (0..z.cols()) => scores_unit_classes_batch(m, z),
            ClassMemory::Dense(m) => {
                scores_unit_classes_batch(m, &z.slice_columns(cols.start, cols.end))
            }
            ClassMemory::Int8(m) => {
                let mut out = Matrix::zeros(z.rows(), m.rows());
                let mut qbuf = Vec::new();
                for r in 0..z.rows() {
                    m.scores_into(&z.row(r)[cols.clone()], &mut qbuf, out.row_mut(r));
                }
                out
            }
            ClassMemory::Packed(m) => {
                let queries: Vec<PackedHv> = (0..z.rows())
                    .map(|r| PackedHv::from_signs(&z.row(r)[cols.clone()]))
                    .collect();
                let queries = PackedMatrix::from_rows(&queries)
                    .expect("chunk queries share the segment width");
                m.batch_similarities(&queries)
            }
        }
    }
}

/// Validates refit inputs against a trained model's shape.
pub(crate) fn validate_refit_inputs(
    x: &Matrix,
    y: &[usize],
    input_len: usize,
    num_classes: usize,
) -> Result<()> {
    if x.rows() == 0 || x.rows() != y.len() {
        return Err(BoostHdError::DataMismatch {
            reason: format!("{} refit rows but {} labels", x.rows(), y.len()),
        });
    }
    if x.cols() != input_len {
        return Err(BoostHdError::DataMismatch {
            reason: format!(
                "refit samples have {} features but the encoder expects {input_len}",
                x.cols()
            ),
        });
    }
    if let Some(&bad) = y.iter().find(|&&yi| yi >= num_classes) {
        return Err(BoostHdError::DataMismatch {
            reason: format!("refit label {bad} outside the {num_classes} trained classes"),
        });
    }
    Ok(())
}

/// Freezes f32 class rows at `precision` after `epochs` of
/// quantization-aware refinement on the encoded samples `z` (see the
/// [module docs](self)). `shadow` starts as the trained rows and holds
/// the refined f32 weights on return.
pub(crate) fn refit(
    z: &Matrix,
    y: &[usize],
    shadow: &mut Matrix,
    lr: f32,
    epochs: usize,
    precision: Precision,
) -> ClassMemory {
    match precision {
        Precision::F32 => ClassMemory::Dense(shadow.clone()),
        Precision::Int8 => ClassMemory::Int8(refit_i8_classes(z, y, shadow, lr, epochs)),
        Precision::Binary => ClassMemory::Packed(refit_packed_classes(z, y, shadow, lr, epochs)),
    }
}

/// Straight-through refinement of one class matrix at 1 bit: score
/// queries against the binarized classes (the deployment arithmetic),
/// update f32 shadow weights with the OnlineHD rule on misclassification,
/// and re-binarize the touched rows.
fn refit_packed_classes(
    z: &Matrix,
    y: &[usize],
    shadow: &mut Matrix,
    lr: f32,
    epochs: usize,
) -> PackedMatrix {
    let mut bits = PackedMatrix::from_dense_rows(shadow);
    // Scratch reused across every sample and epoch: the packed query words
    // and the per-class similarity buffer (kernel-backed popcount sweep).
    let mut query_words: Vec<u64> = Vec::new();
    let mut sims = vec![0.0f32; shadow.rows()];
    for _epoch in 0..epochs {
        for (r, &truth) in y.iter().enumerate() {
            let h = z.row(r);
            hdc::ops::pack_signs_into(h, &mut query_words);
            bits.similarities_into(&query_words, &mut sims);
            let pred = argmax(&sims);
            if pred == truth {
                continue;
            }
            let hn = norm(h);
            if hn == 0.0 {
                continue;
            }
            // The packed similarity lives on the cosine scale, so the
            // (1 − δ) error weighting carries over unchanged; the sample is
            // normalized like OnlineHd::update so one step nudges rather
            // than overwrites the shadow direction.
            hdc::ops::bundle_into(shadow.row_mut(truth), h, lr * (1.0 - sims[truth]) / hn);
            hdc::ops::bundle_into(shadow.row_mut(pred), h, -lr * (1.0 - sims[pred]) / hn);
            bits.set_row_signs(truth, shadow.row(truth));
            bits.set_row_signs(pred, shadow.row(pred));
        }
    }
    bits
}

/// Straight-through refinement of one class matrix at int8; the int8
/// counterpart of [`refit_packed_classes`].
fn refit_i8_classes(
    z: &Matrix,
    y: &[usize],
    shadow: &mut Matrix,
    lr: f32,
    epochs: usize,
) -> I8Rows {
    let mut classes = I8Rows::from_dense(shadow);
    let mut qbuf: Vec<i8> = Vec::new();
    let mut sims = vec![0.0f32; shadow.rows()];
    for _epoch in 0..epochs {
        for (r, &truth) in y.iter().enumerate() {
            let h = z.row(r);
            classes.scores_into(h, &mut qbuf, &mut sims);
            let pred = argmax(&sims);
            if pred == truth {
                continue;
            }
            let hn = norm(h);
            if hn == 0.0 {
                continue;
            }
            // The int8 scores live on the cosine scale, so the (1 − δ)
            // error weighting carries over from the f32 update rule.
            hdc::ops::bundle_into(shadow.row_mut(truth), h, lr * (1.0 - sims[truth]) / hn);
            hdc::ops::bundle_into(shadow.row_mut(pred), h, -lr * (1.0 - sims[pred]) / hn);
            classes.set_row_from(truth, shadow.row(truth), &mut qbuf);
            classes.set_row_from(pred, shadow.row(pred), &mut qbuf);
        }
    }
    classes
}

/// Flips each stored bit of `memories` (all of one precision, visited in
/// order) independently with probability `p_b`, drawing positions from
/// `rng`: IEEE-754 word flips for f32, byte flips plus the derived-norm
/// refresh a deployed loader would perform for int8, and stored-sign-bit
/// flips for packed memories.
pub(crate) fn inject_bitflips(
    memories: Vec<&mut ClassMemory>,
    p_b: f64,
    rng: &mut Rng64,
) -> BitflipReport {
    if memories.iter().any(|m| m.precision() == Precision::Binary) {
        // The valid sign bits of every packed memory form one address
        // space walked once, so padding words are never addressable.
        return faults::flip_sign_bits(&mut PackedSet(memories), p_b, rng);
    }
    let mut report = BitflipReport::default();
    for memory in memories {
        report = report.merge(match memory {
            ClassMemory::Dense(m) => faults::flip_bits_in(m.as_mut_slice(), p_b, rng),
            ClassMemory::Int8(rows) => {
                let flips = faults::flip_i8_bits_in(rows.data.make_mut(), p_b, rng);
                rows.refresh_inv_qnorms();
                flips
            }
            ClassMemory::Packed(_) => unreachable!("packed memories are handled above"),
        });
    }
    report
}

/// The packed memories of one model exposed to the sign-bit injector.
struct PackedSet<'a>(Vec<&'a mut ClassMemory>);

impl PerturbablePacked for PackedSet<'_> {
    fn packed_bit_count(&self) -> u64 {
        self.0
            .iter()
            .map(|m| match &**m {
                ClassMemory::Packed(bits) => bits.bit_count(),
                _ => 0,
            })
            .sum()
    }

    fn flip_packed_bit(&mut self, mut index: u64) {
        for m in &mut self.0 {
            if let ClassMemory::Packed(bits) = &mut **m {
                if index < bits.bit_count() {
                    flip_matrix_bit(bits, index);
                    return;
                }
                index -= bits.bit_count();
            }
        }
        panic!("packed bit index out of range");
    }
}

/// Flips valid (non-padding) bit `index` of a packed matrix, where bits
/// are numbered row-major over the `rows × dim` grid.
fn flip_matrix_bit(m: &mut PackedMatrix, index: u64) {
    let dim = m.dim() as u64;
    let row = (index / dim) as usize;
    let offset = (index % dim) as usize;
    let words_per_row = m.as_words().len() / m.rows();
    let word = row * words_per_row + offset / 64;
    m.as_words_mut()[word] ^= 1u64 << (offset % 64);
}

/// Symmetric per-row quantizer: fills `out` with
/// `round(v · 127 / max|v|)` clamped to `[-127, 127]` and returns the
/// dequantization scale `max|v| / 127`. An all-zero (or non-finite) row
/// quantizes to all zeros with scale `0.0`.
pub(crate) fn quantize_row_into(src: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(src.len(), 0);
    // Two branch-free (vectorizable) passes: `f32::max` silently drops NaN
    // operands, so finiteness is tracked separately instead of folded into
    // the maximum.
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let all_finite = src.iter().fold(true, |ok, &v| ok & v.is_finite());
    if !(max_abs > 0.0 && max_abs.is_finite() && all_finite) {
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    linalg::kernels::quantize_scale_i8(src, inv, out);
    max_abs / 127.0
}

/// A row-major block of int8-quantized rows: one signed byte per element,
/// one dequantization scale per row, plus derived (never persisted)
/// per-row inverse integer norms used by the cosine approximation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct I8Rows {
    data: Storage<i8>,
    scales: Vec<f32>,
    inv_qnorms: Vec<f32>,
    cols: usize,
}

impl I8Rows {
    /// Quantizes every row of a dense f32 matrix.
    pub(crate) fn from_dense(m: &Matrix) -> Self {
        let mut data = Vec::with_capacity(m.rows() * m.cols());
        let mut scales = Vec::with_capacity(m.rows());
        let mut qbuf = Vec::new();
        for r in 0..m.rows() {
            scales.push(quantize_row_into(m.row(r), &mut qbuf));
            data.extend_from_slice(&qbuf);
        }
        let mut rows = Self {
            data: data.into(),
            scales,
            inv_qnorms: Vec::new(),
            cols: m.cols(),
        };
        rows.refresh_inv_qnorms();
        rows
    }

    /// Reassembles from stored parts over any backing storage — a
    /// zero-copy view borrowed from a model-store blob as well as an owned
    /// byte vector; inverse norms are re-derived from the bytes. Shared
    /// rows stay borrowed until the first in-place mutation (refit, fault
    /// injection) promotes them.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] when `data` is not
    /// `scales.len() × cols` elements.
    pub(crate) fn from_storage(data: Storage<i8>, scales: Vec<f32>, cols: usize) -> Result<Self> {
        if cols == 0 || scales.len().checked_mul(cols) != Some(data.len()) {
            return Err(BoostHdError::DataMismatch {
                reason: format!(
                    "int8 payload holds {} bytes, expected {} rows x {} cols",
                    data.len(),
                    scales.len(),
                    cols
                ),
            });
        }
        let mut rows = Self {
            data,
            scales,
            inv_qnorms: Vec::new(),
            cols,
        };
        rows.refresh_inv_qnorms();
        Ok(rows)
    }

    /// Whether the byte grid is a zero-copy view into a model-store blob.
    #[cfg(test)]
    pub(crate) fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.scales.len()
    }

    /// Elements per row.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The row-major byte grid.
    pub(crate) fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row dequantization scales.
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes a deployed int8 memory would hold for these rows: the `i8`
    /// grid plus one f32 scale per row.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Recomputes the derived `1/‖q_r‖` cache from the stored bytes —
    /// required after any in-place mutation of `data`.
    fn refresh_inv_qnorms(&mut self) {
        let cols = self.cols.max(1);
        self.inv_qnorms = self.data.chunks(cols).map(inv_qnorm).collect();
    }

    /// Re-quantizes row `r` from fresh f32 values (the refit path).
    fn set_row_from(&mut self, r: usize, src: &[f32], qbuf: &mut Vec<i8>) {
        self.scales[r] = quantize_row_into(src, qbuf);
        let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
        row.copy_from_slice(qbuf);
        self.inv_qnorms[r] = inv_qnorm(row);
    }

    /// Approximate per-row cosine scores of query `h` against every stored
    /// row (see the [module docs](self) for the formula). `qbuf` is caller
    /// scratch and holds the quantized query on return.
    fn scores_into(&self, h: &[f32], qbuf: &mut Vec<i8>, out: &mut [f32]) {
        debug_assert_eq!(h.len(), self.cols);
        let f = query_factor(h, qbuf);
        self.scores_quantized_into(qbuf, f, out);
    }

    /// Scores a pre-quantized query — the integer-dot sweep alone,
    /// bit-identical to scoring the hypervector the query was built from.
    /// Use when one query is scored against several int8 memories (see
    /// [`I8Query`]).
    pub fn scores_query_into(&self, query: &I8Query, out: &mut [f32]) {
        self.scores_quantized_into(&query.q, query.f, out);
    }

    fn scores_quantized_into(&self, q: &[i8], f: f32, out: &mut [f32]) {
        debug_assert_eq!(q.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows());
        if f == 0.0 {
            out.fill(0.0);
            return;
        }
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot_i8(self.row(r), q) as f32 * self.inv_qnorms[r] * f;
        }
    }
}

/// `1/‖q‖` of one stored int8 row (`0.0` for an all-zero row).
fn inv_qnorm(row: &[i8]) -> f32 {
    let n2: i64 = row.iter().map(|&q| (q as i64) * (q as i64)).sum();
    if n2 == 0 {
        0.0
    } else {
        (1.0 / (n2 as f64).sqrt()) as f32
    }
}

/// Quantizes encoded query `h` into `qbuf` and returns its combined cosine
/// factor `s_h / ‖h‖` — `0.0` for degenerate (zero or non-finite) queries,
/// in which case every score is defined as `0.0`.
fn query_factor(h: &[f32], qbuf: &mut Vec<i8>) -> f32 {
    let hn = norm(h);
    let qscale = quantize_row_into(h, qbuf);
    if hn == 0.0 || qscale == 0.0 || !hn.is_finite() {
        0.0
    } else {
        qscale / hn
    }
}

/// An encoded query pre-quantized for the int8 sweep: the signed-byte
/// vector plus its combined cosine factor `s_h / ‖h‖`.
///
/// Quantizing the query costs several f32 passes over `D` values; the
/// integer-dot sweep it feeds costs one byte-pass per class row. When one
/// query is scored against many int8 memories — BoostHD weak learners, a
/// per-patient model fleet, or a benchmark's class-memory sweep —
/// preparing it once amortizes that cost away, exactly like
/// [`hdc::backend::PackedHv`] does for the 1-bit memory.
#[derive(Debug, Clone)]
pub struct I8Query {
    q: Vec<i8>,
    f: f32,
}

impl I8Query {
    /// Quantizes an already-encoded hypervector (degenerate inputs yield a
    /// query that scores `0.0` everywhere, matching the on-the-fly path).
    pub fn from_encoded(h: &[f32]) -> Self {
        let mut q = Vec::new();
        let f = query_factor(h, &mut q);
        Self { q, f }
    }

    /// Hyperspace dimensionality `D` of the quantized query.
    pub fn dim(&self) -> usize {
        self.q.len()
    }
}
