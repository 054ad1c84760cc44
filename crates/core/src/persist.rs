//! The one binary encoding of a trained model.
//!
//! Wearable deployments flash a trained model onto the device, and the
//! fleet store serves thousands of them; both persist the same **record
//! body**. The dependency policy for this reproduction admits `serde` but
//! no serializer crate, so the codec is hand-rolled: little-endian, with a
//! magic header and version byte so stale bodies fail loudly instead of
//! mis-deserializing.
//!
//! A body is a *structure stream* (scalars, shapes, and offsets) plus an
//! 8-byte-aligned *payload heap* holding every array. Readers decode the
//! stream and serve the bulk arrays (class matrices, packed sign words,
//! int8 grids) zero-copy out of the blob the heap sits in. The model part
//! of the stream reads:
//!
//! ```text
//! model     := magic:u32 version:u8(=5) kind:u8 body
//! body      := online | boost | centroid          (kind 1 | 2 | 3)
//! online    := dim:u64 lr:f32 epochs:u64 bootstrap:u8 seed:u64
//!              refit_epochs:u64 classes:u64 encoder memory
//! centroid  := classes:u64 encoder memory
//! boost     := dim_total:u64 n_learners:u64 lr:f32 epochs:u64
//!              bootstrap:u8 voting:u8 mode:u8 sample_mode:u8
//!              shrinkage:f64 weight_clamp:f64 balanced_init:u8 seed:u64
//!              refit_epochs:u64 classes:u64 encoder
//!              errors:u64 f64[errors] learners:u64 learner[learners]
//! learner   := alpha:f32 seg_start:u64 seg_end:u64 memory
//!              (0:u8 | 1:u8 encoder)                (private encoder)
//! memory    := 0:u8 matrix                        (f32 rows)
//!            | 1:u8 rows:u64 cols:u64 array array  (f32 scales, i8 rows)
//!            | 2:u8 rows:u64 dim:u64 array        (1-bit u64 sign words)
//! matrix    := rows:u64 cols:u64 offset:u64       (rows·cols f32 in the heap)
//! array     := len:u64 offset:u64                 (len elements in the heap)
//! encoder   := ref:u64(=u64::MAX-1) index:u64     (stored projection)
//!            | remat:u64(=u64::MAX) dim:u64 input_len:u64 bandwidth:f32
//!              seed:u64                           (rematerialized recipe)
//! ```
//!
//! Every heap offset is 8-aligned within the heap, and the heap is padded
//! to a multiple of 8 bytes. A model's precision is the tag in front of
//! each class memory; a BoostHD ensemble stores every learner at the same
//! precision. Readers accept exactly version 5: bodies of any other version
//! are rejected with an error naming both versions, never reinterpreted.
//!
//! A stored projection never sits in the model stream. The stream records
//! an index into the encoders the writer hands out separately, as live
//! copy-on-write clones ([`Writer::into_parts`]); each is persisted once as
//! an encoder body of its own (`EncoderBody`: the `F × D` transposed
//! projection as a `matrix`, then the phases as an `array`). The fleet
//! store writes it as an encoder record every model and ladder tier built
//! on that encoder shares, and a `.bhde` envelope
//! ([`crate::Pipeline::to_bytes`]) frames it after the model body. A
//! rematerialized encoder persists as its recipe; the reader checks the
//! recipe's width against the model's and caps `dim × input_len`
//! ([`MAX_REMAT_PROJECTION`]) before regenerating anything.
//!
//! # Example
//!
//! ```
//! use boosthd::{ModelSpec, OnlineHdConfig, Pipeline};
//! use linalg::{Matrix, Rng64};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed_from(1);
//! let x = Matrix::random_normal(40, 3, &mut rng);
//! let y: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let spec = ModelSpec::OnlineHd(OnlineHdConfig { dim: 64, epochs: 2, ..Default::default() });
//! let model = Pipeline::fit(&spec, &x, &y)?;
//!
//! let bytes = model.to_bytes()?;
//! let restored = Pipeline::from_bytes(&bytes)?;
//! assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
//! # Ok(())
//! # }
//! ```

use crate::boost::{BoostHd, BoostHdConfig, EnsembleMode, SampleMode, Voting};
use crate::centroid::CentroidHd;
use crate::classifier::Classifier;
use crate::error::{BoostHdError, Result};
use crate::memory::{ClassMemory, I8Rows, Precision};
use crate::online::{OnlineHd, OnlineHdConfig};
use hdc::backend::PackedMatrix;
use hdc::encoder::{Encode, RematSpec, SinusoidEncoder};
use linalg::{Blob, Matrix, SharedSlice, Storage};
use std::sync::Arc;

/// `"BHD1"` little-endian.
const MAGIC: u32 = 0x3144_4842;
/// The one model version this build reads and writes; bump on any layout
/// change.
const VERSION: u8 = 5;
const KIND_ONLINE: u8 = 1;
const KIND_BOOST: u8 = 2;
const KIND_CENTROID: u8 = 3;

/// Row-count sentinel marking a rematerialized-encoder recipe where a
/// reference would sit.
const REMAT_SENTINEL: u64 = u64::MAX;

/// Sentinel marking a reference to a stored encoder kept outside the
/// stream (the `index`-th encoder of [`Writer::into_parts`]).
const ENCODER_REF_SENTINEL: u64 = u64::MAX - 1;

/// The largest `dim × input_len` projection a rematerialized-encoder
/// recipe may regenerate at load: 2^24 Gaussian draws, a D = 10,000
/// encoder over 1,677 features. Building a recipe burns through every
/// draw, so a corrupt recipe left unchecked could spin for hours.
pub const MAX_REMAT_PROJECTION: usize = 1 << 24;

fn persist_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

/// Little-endian sink for one record body: scalars go to the structure
/// stream, every length-prefixed array body to the 8-byte-aligned payload
/// heap, with its heap byte offset recorded in the stream where the body
/// would sit. Stored encoders are not written at all: the stream records
/// an index into the encoder list [`Writer::into_parts`] returns.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    heap: Vec<u8>,
    /// The stored encoders the stream references, in index order, as
    /// copy-on-write clones of the live encoders.
    encoders: Vec<SinusoidEncoder>,
}

/// One record body: a structure stream plus the payload heap its array
/// offsets point into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordParts {
    /// Scalars, shapes, and heap offsets.
    pub structure: Vec<u8>,
    /// Array bodies at 8-aligned offsets; its length is a multiple of 8.
    pub heap: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the body plus the stored encoders its encoder
    /// references index. The heap must land at an 8-byte-aligned offset of
    /// whatever blob it is embedded in, so the recorded array offsets stay
    /// aligned for zero-copy reinterpretation; it is padded to a multiple
    /// of 8 so containers that embed it stay 8-aligned end to end.
    pub fn into_parts(mut self) -> (RecordParts, Vec<SinusoidEncoder>) {
        self.align_heap();
        let body = RecordParts {
            structure: self.buf,
            heap: self.heap,
        };
        (body, self.encoders)
    }

    /// Pads the heap to an 8-byte boundary and returns the write offset.
    fn align_heap(&mut self) -> u64 {
        self.heap.resize(self.heap.len().next_multiple_of(8), 0);
        self.heap.len() as u64
    }

    /// Appends `values` to the heap at the next 8-aligned offset and
    /// records that offset in the stream.
    fn put_heap<T: Copy, const N: usize>(&mut self, values: &[T], to_le: fn(T) -> [u8; N]) {
        let off = self.align_heap();
        self.heap.reserve(values.len() * N);
        for &v in values {
            self.heap.extend_from_slice(&to_le(v));
        }
        self.put_u64(off);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f32` array.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        self.put_heap(v, f32::to_le_bytes);
    }

    /// Appends a length-prefixed `i8` array.
    pub fn put_i8_slice(&mut self, v: &[i8]) {
        self.put_u64(v.len() as u64);
        self.put_heap(v, i8::to_le_bytes);
    }

    /// Appends a length-prefixed `u64` array.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        self.put_heap(v, u64::to_le_bytes);
    }

    /// Appends a shape-prefixed bitpacked matrix.
    pub fn put_packed_matrix(&mut self, m: &PackedMatrix) {
        self.put_u64(m.rows() as u64);
        self.put_u64(m.dim() as u64);
        self.put_u64_slice(m.as_words());
    }

    /// Appends a shape-prefixed matrix.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_u64(m.rows() as u64);
        self.put_u64(m.cols() as u64);
        self.put_heap(m.as_slice(), f32::to_le_bytes);
    }
}

/// Little-endian, bounds-checked source for one record body: a structure
/// stream written by a [`Writer`] plus the blob window holding its payload
/// heap. Array reads resolve their heap offsets against the blob and, for
/// the bulk containers (matrices, packed words, int8 grids), hand back
/// zero-copy views borrowing it instead of copied allocations. Encoder
/// references resolve against the caller's already-decoded encoders.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    blob: Arc<Blob>,
    heap_base: usize,
    heap_len: usize,
    encoders: &'a [SinusoidEncoder],
}

impl<'a> Reader<'a> {
    /// Wraps a structure stream plus the blob window holding its payload
    /// heap. `heap_base` must be 8-byte aligned within the blob (the store
    /// and envelope layouts guarantee this), or every array view will fail
    /// alignment validation. The stream's `index`-th encoder reference
    /// decodes to a clone of `encoders[index]`, which shares its
    /// projection storage.
    ///
    /// # Errors
    ///
    /// Fails when the heap window exceeds the blob.
    pub fn new(
        data: &'a [u8],
        blob: Arc<Blob>,
        heap_base: usize,
        heap_len: usize,
        encoders: &'a [SinusoidEncoder],
    ) -> Result<Self> {
        if heap_base
            .checked_add(heap_len)
            .is_none_or(|end| end > blob.len())
        {
            return Err(persist_err(format!(
                "payload heap {heap_base}+{heap_len} exceeds blob of {} bytes",
                blob.len()
            )));
        }
        Ok(Self {
            data,
            pos: 0,
            blob,
            heap_base,
            heap_len,
            encoders,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| persist_err("truncated model blob"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads an array's heap offset and validates the referenced
    /// `count × elem` byte range against the heap window, returning the
    /// range's start within the blob.
    fn heap_ref(&mut self, count: usize, elem: usize, what: &str) -> Result<usize> {
        let off = self.get_len()?;
        let bytes = count
            .checked_mul(elem)
            .ok_or_else(|| persist_err(format!("{what} length {count} overflows")))?;
        if off.checked_add(bytes).is_none_or(|end| end > self.heap_len) {
            return Err(persist_err(format!(
                "{what} payload at {off}+{bytes} exceeds heap of {} bytes",
                self.heap_len
            )));
        }
        Ok(self.heap_base + off)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` that must fit a `usize`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or overflow.
    pub fn get_len(&mut self) -> Result<usize> {
        usize::try_from(self.get_u64()?).map_err(|_| persist_err("length overflows usize"))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated input.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `len` raw stream bytes, validating `len` against the
    /// remaining input *before* any allocation — the read for untrusted
    /// counted sections (spec text, envelope parts).
    ///
    /// # Errors
    ///
    /// Fails with a descriptive error naming `what` when fewer than `len`
    /// bytes remain.
    pub fn get_bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let remaining = self.data.len() - self.pos;
        if len > remaining {
            return Err(persist_err(format!(
                "{what} claims {len} bytes but only {remaining} remain"
            )));
        }
        self.take(len)
    }

    /// The stream offset of the next read.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Reads a length-prefixed `f32` array, copied out of the heap — the
    /// small vectors this decodes, phases and scales, are not worth a view.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range array.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.get_len()?;
        let at = self.heap_ref(len, 4, "f32 vector")?;
        Ok(self.blob.as_bytes()[at..at + 4 * len]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads a length-prefixed `i8` array as a zero-copy view into the
    /// blob.
    pub(crate) fn get_i8_storage(&mut self) -> Result<Storage<i8>> {
        let len = self.get_len()?;
        let at = self.heap_ref(len, 1, "i8 vector")?;
        let view = SharedSlice::<i8>::new(Arc::clone(&self.blob), at, len)
            .map_err(|e| persist_err(e.to_string()))?;
        Ok(Storage::shared(view))
    }

    /// Reads a shape-prefixed bitpacked matrix as a zero-copy view into
    /// the blob.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or inconsistent shape.
    pub fn get_packed_matrix(&mut self) -> Result<PackedMatrix> {
        let rows = self.get_len()?;
        let dim = self.get_len()?;
        let len = self.get_len()?;
        let at = self.heap_ref(len, 8, "packed matrix")?;
        let m = PackedMatrix::from_shared(Arc::clone(&self.blob), at, rows, dim)
            .map_err(|e| persist_err(e.to_string()))?;
        if m.as_words().len() != len {
            return Err(persist_err("packed matrix word count disagrees with shape"));
        }
        Ok(m)
    }

    /// Reads a shape-prefixed matrix as a zero-copy view into the blob.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or inconsistent shape.
    pub fn get_matrix(&mut self) -> Result<Matrix> {
        let rows = self.get_len()?;
        let cols = self.get_len()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| persist_err("matrix shape overflows"))?;
        let at = self.heap_ref(n, 4, "matrix")?;
        Matrix::from_shared(Arc::clone(&self.blob), at, rows, cols)
            .map_err(|e| persist_err(e.to_string()))
    }

    /// Whether every stream byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Crash-safe file publication: the bytes land in a same-directory temp
/// file, are fsynced, and only then atomically renamed over `path` (with
/// a best-effort directory-entry sync afterwards). A crash or kill at any
/// instant leaves either the old file or the complete new one at `path` —
/// never a torn mix that loads as garbage.
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "model".into());
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&name),
        None => std::path::PathBuf::from(&name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            if let Ok(dh) = std::fs::File::open(d) {
                let _ = dh.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn put_header(w: &mut Writer, kind: u8) {
    w.put_u32(MAGIC);
    w.put_u8(VERSION);
    w.put_u8(kind);
}

fn check_header(r: &mut Reader<'_>, kind: u8) -> Result<()> {
    if r.get_u32()? != MAGIC {
        return Err(persist_err("not a BoostHD model blob (bad magic)"));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(persist_err(format!(
            "unsupported model blob version {version} (this build reads version {VERSION} only)"
        )));
    }
    let got = r.get_u8()?;
    if got != kind {
        return Err(persist_err(format!(
            "blob holds model kind {got}, expected {kind}"
        )));
    }
    Ok(())
}

fn put_encoder(w: &mut Writer, enc: &SinusoidEncoder) {
    match enc.remat_spec() {
        Some(spec) => {
            w.put_u64(REMAT_SENTINEL);
            w.put_u64(spec.dim as u64);
            w.put_u64(spec.input_len as u64);
            w.put_f32(spec.bandwidth);
            w.put_u64(spec.seed);
        }
        None => {
            // The projection stays out of the stream: its owner writes
            // each distinct encoder once and models reference it.
            w.put_u64(ENCODER_REF_SENTINEL);
            w.put_u64(w.encoders.len() as u64);
            w.encoders.push(enc.clone());
        }
    }
}

/// A stored encoder's encoder-record body read straight off the live
/// encoder: the structure stream, then a payload heap holding the `F × D`
/// transpose the encoder keeps in memory and its phase vector, so a shared
/// read borrows the projection with no transpose pass and no allocation.
/// The fleet store fingerprints and byte-compares a body against stored
/// records without serializing it, and serializes it
/// ([`EncoderBody::to_parts`]) only to write a new record; an envelope
/// always carries it serialized.
#[derive(Debug)]
pub(crate) struct EncoderBody<'a> {
    structure: Vec<u8>,
    /// Heap segments at their 8-aligned heap byte offsets, stored as
    /// little-endian `f32`s: projection, then phases. Every other heap
    /// byte is zero padding.
    segments: [(usize, &'a [f32]); 2],
    heap_len: usize,
}

impl<'a> EncoderBody<'a> {
    /// The body of `enc`, which must hold a stored projection.
    pub(crate) fn new(enc: &'a SinusoidEncoder) -> Self {
        let projection_t = enc.projection_t().expect("stored encoder has projection");
        let (projection, bias) = (projection_t.as_slice(), enc.bias());
        let bias_at = (4 * projection.len()).next_multiple_of(8);
        let heap_len = (bias_at + 4 * bias.len()).next_multiple_of(8);
        // The stream `put_matrix` + `put_f32_slice` write:
        // shape and heap offset, then length and heap offset.
        let mut structure = Vec::with_capacity(40);
        for v in [
            projection_t.rows(),
            projection_t.cols(),
            0,
            bias.len(),
            bias_at,
        ] {
            structure.extend_from_slice(&(v as u64).to_le_bytes());
        }
        Self {
            structure,
            segments: [(0, projection), (bias_at, bias)],
            heap_len,
        }
    }

    /// The structure stream: shapes and heap offsets.
    pub(crate) fn structure(&self) -> &[u8] {
        &self.structure
    }

    /// Payload heap length in bytes (a multiple of 8).
    pub(crate) fn heap_len(&self) -> usize {
        self.heap_len
    }

    /// The 8 heap bytes of word `w`.
    pub(crate) fn heap_word(&self, w: usize) -> [u8; 8] {
        let mut word = [0u8; 8];
        for (at, values) in &self.segments {
            // Segments start 8-aligned, so each half of a word is one
            // value of a segment or padding.
            for half in 0..2 {
                let byte = 8 * w + 4 * half;
                if let Some(v) = byte.checked_sub(*at).and_then(|rel| values.get(rel / 4)) {
                    word[4 * half..4 * half + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        word
    }

    /// Whether a record body's `structure` and `heap` are byte for byte
    /// this body's.
    pub(crate) fn matches(&self, structure: &[u8], heap: &[u8]) -> bool {
        if structure != self.structure || heap.len() != self.heap_len {
            return false;
        }
        let mut end = 0;
        for (at, values) in &self.segments {
            let stored = &heap[*at..at + 4 * values.len()];
            // No early exit, so the comparison vectorizes.
            let same = stored
                .chunks_exact(4)
                .zip(*values)
                .fold(true, |same, (b, v)| {
                    same & (u32::from_le_bytes([b[0], b[1], b[2], b[3]]) == v.to_bits())
                });
            if !same || heap[end..*at].iter().any(|&b| b != 0) {
                return false;
            }
            end = at + stored.len();
        }
        heap[end..].iter().all(|&b| b == 0)
    }

    /// Serializes the body, as a new encoder record stores it.
    pub(crate) fn to_parts(&self) -> RecordParts {
        let mut heap = Vec::with_capacity(self.heap_len);
        for (at, values) in &self.segments {
            heap.resize(*at, 0);
            for v in values.iter() {
                heap.extend_from_slice(&v.to_le_bytes());
            }
        }
        heap.resize(self.heap_len, 0);
        RecordParts {
            structure: self.structure.clone(),
            heap,
        }
    }
}

/// Decodes an encoder-record body ([`EncoderBody::to_parts`]). The
/// projection is a zero-copy view into `blob`, so every encoder decoded
/// from one blob shares one projection allocation.
///
/// # Errors
///
/// Fails on truncated or inconsistent bodies.
pub(crate) fn encoder_from_parts(
    structure: &[u8],
    blob: Arc<Blob>,
    heap_base: usize,
    heap_len: usize,
) -> Result<SinusoidEncoder> {
    let mut r = Reader::new(structure, blob, heap_base, heap_len, &[])?;
    let projection_t = r.get_matrix()?;
    let bias = r.get_f32_vec()?;
    if !r.is_exhausted() {
        return Err(persist_err("trailing bytes after encoder record structure"));
    }
    SinusoidEncoder::from_parts_transposed(projection_t, bias).map_err(BoostHdError::from)
}

/// An encoder as a model stream records it. A recipe is regenerated only
/// by [`StreamEncoder::build`], once the model's declared width is known.
enum StreamEncoder {
    /// A stored encoder, decoded by the body's owner and referenced here.
    Shared(SinusoidEncoder),
    /// A rematerialization recipe, not yet checked or built.
    Recipe(RematSpec),
}

impl StreamEncoder {
    /// The encoder, checked against the model's declared `width` (read
    /// from its header or its class memory) before a recipe spends any of
    /// its `dim × input_len` draws.
    fn build(self, width: usize) -> Result<SinusoidEncoder> {
        let dim = match &self {
            Self::Shared(enc) => enc.dim(),
            Self::Recipe(spec) => spec.dim,
        };
        if dim != width {
            return Err(persist_err(format!(
                "encoder width {dim} disagrees with the model width {width}"
            )));
        }
        match self {
            Self::Shared(enc) => Ok(enc),
            Self::Recipe(spec) => {
                if spec
                    .dim
                    .checked_mul(spec.input_len)
                    .is_none_or(|n| n > MAX_REMAT_PROJECTION)
                {
                    return Err(persist_err(format!(
                        "rematerialized encoder {} x {} exceeds the {MAX_REMAT_PROJECTION}-element cap",
                        spec.dim, spec.input_len
                    )));
                }
                SinusoidEncoder::from_remat_spec(spec).map_err(BoostHdError::from)
            }
        }
    }
}

fn get_encoder(r: &mut Reader<'_>) -> Result<StreamEncoder> {
    match r.get_u64()? {
        REMAT_SENTINEL => Ok(StreamEncoder::Recipe(RematSpec {
            dim: r.get_len()?,
            input_len: r.get_len()?,
            bandwidth: r.get_f32()?,
            seed: r.get_u64()?,
        })),
        ENCODER_REF_SENTINEL => {
            let index = r.get_len()?;
            let enc = r.encoders.get(index).cloned().ok_or_else(|| {
                persist_err(format!(
                    "encoder reference {index} is outside the {} encoder(s) supplied with the stream",
                    r.encoders.len()
                ))
            })?;
            Ok(StreamEncoder::Shared(enc))
        }
        other => Err(persist_err(format!("unknown encoder tag {other:#x}"))),
    }
}

fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::Int8 => 1,
        Precision::Binary => 2,
    }
}

/// Writes a class memory: its precision tag, then the rows in that
/// precision's layout.
fn put_memory(w: &mut Writer, memory: &ClassMemory) {
    w.put_u8(precision_code(memory.precision()));
    match memory {
        ClassMemory::Dense(m) => w.put_matrix(m),
        ClassMemory::Int8(rows) => {
            w.put_u64(rows.rows() as u64);
            w.put_u64(rows.cols() as u64);
            w.put_f32_slice(rows.scales());
            w.put_i8_slice(rows.data());
        }
        ClassMemory::Packed(m) => w.put_packed_matrix(m),
    }
}

fn get_memory(r: &mut Reader<'_>) -> Result<ClassMemory> {
    Ok(match r.get_u8()? {
        0 => ClassMemory::Dense(r.get_matrix()?),
        1 => {
            let rows = r.get_len()?;
            let cols = r.get_len()?;
            let scales = r.get_f32_vec()?;
            let data = r.get_i8_storage()?;
            if scales.len() != rows {
                return Err(persist_err("int8 scale count disagrees with row count"));
            }
            ClassMemory::Int8(I8Rows::from_storage(data, scales, cols)?)
        }
        2 => ClassMemory::Packed(r.get_packed_matrix()?),
        other => {
            return Err(persist_err(format!(
                "unknown class-memory precision tag {other}"
            )))
        }
    })
}

impl OnlineHd {
    /// Writes the model's record body (header included) into `w`.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_ONLINE);
        let c = self.config();
        w.put_u64(c.dim as u64);
        w.put_f32(c.lr);
        w.put_u64(c.epochs as u64);
        w.put_u8(c.bootstrap as u8);
        w.put_u64(c.seed);
        w.put_u64(c.refit_epochs as u64);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        put_memory(w, self.class_memory());
    }

    /// Decodes a record body from `r` (exhaustion is the caller's check).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        check_header(r, KIND_ONLINE)?;
        let mut config = OnlineHdConfig {
            dim: r.get_len()?,
            lr: r.get_f32()?,
            epochs: r.get_len()?,
            bootstrap: r.get_u8()? != 0,
            seed: r.get_u64()?,
            refit_epochs: r.get_len()?,
            ..OnlineHdConfig::default()
        };
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r)?;
        let memory = get_memory(r)?;
        if memory.dim() != config.dim {
            return Err(persist_err("class memory width disagrees with header"));
        }
        config.precision = memory.precision();
        Self::from_parts(encoder.build(config.dim)?, memory, num_classes, config)
    }
}

impl CentroidHd {
    /// Writes the model's record body (header included) into `w`.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_CENTROID);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        put_memory(w, self.class_memory());
    }

    /// Decodes a record body from `r` (exhaustion is the caller's check).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        check_header(r, KIND_CENTROID)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r)?;
        let memory = get_memory(r)?;
        Self::from_parts(encoder.build(memory.dim())?, memory, num_classes)
    }
}

fn voting_tag(v: Voting) -> u8 {
    match v {
        Voting::Soft => 0,
        Voting::Hard => 1,
    }
}

fn voting_from(tag: u8) -> Result<Voting> {
    match tag {
        0 => Ok(Voting::Soft),
        1 => Ok(Voting::Hard),
        other => Err(persist_err(format!("unknown voting tag {other}"))),
    }
}

fn mode_tag(m: EnsembleMode) -> u8 {
    match m {
        EnsembleMode::Partitioned => 0,
        EnsembleMode::FullDimension => 1,
    }
}

fn mode_from(tag: u8) -> Result<EnsembleMode> {
    match tag {
        0 => Ok(EnsembleMode::Partitioned),
        1 => Ok(EnsembleMode::FullDimension),
        other => Err(persist_err(format!("unknown ensemble mode tag {other}"))),
    }
}

fn sample_tag(s: SampleMode) -> u8 {
    match s {
        SampleMode::Resample => 0,
        SampleMode::Reweight => 1,
    }
}

fn sample_from(tag: u8) -> Result<SampleMode> {
    match tag {
        0 => Ok(SampleMode::Resample),
        1 => Ok(SampleMode::Reweight),
        other => Err(persist_err(format!("unknown sample mode tag {other}"))),
    }
}

impl BoostHd {
    /// Writes the model's record body (header included) into `w`.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_BOOST);
        let c = self.config();
        w.put_u64(c.dim_total as u64);
        w.put_u64(c.n_learners as u64);
        w.put_f32(c.lr);
        w.put_u64(c.epochs as u64);
        w.put_u8(c.bootstrap as u8);
        w.put_u8(voting_tag(c.voting));
        w.put_u8(mode_tag(c.mode));
        w.put_u8(sample_tag(c.sample_mode));
        w.put_f64(c.boost_shrinkage);
        w.put_f64(c.weight_clamp);
        w.put_u8(c.class_balanced_init as u8);
        w.put_u64(c.seed);
        w.put_u64(c.refit_epochs as u64);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_u64(self.training_errors().len() as u64);
        for &e in self.training_errors() {
            w.put_f64(e);
        }
        w.put_u64(self.num_learners() as u64);
        for i in 0..self.num_learners() {
            let (alpha, start, end, own_encoder) = self.learner_parts(i);
            w.put_f32(alpha);
            w.put_u64(start as u64);
            w.put_u64(end as u64);
            put_memory(w, self.learner_class_memory(i));
            match own_encoder {
                None => w.put_u8(0),
                Some(enc) => {
                    w.put_u8(1);
                    put_encoder(w, enc);
                }
            }
        }
    }

    /// Decodes a record body from `r` (exhaustion is the caller's check).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        check_header(r, KIND_BOOST)?;
        let mut config = BoostHdConfig {
            dim_total: r.get_len()?,
            n_learners: r.get_len()?,
            lr: r.get_f32()?,
            epochs: r.get_len()?,
            bootstrap: r.get_u8()? != 0,
            voting: voting_from(r.get_u8()?)?,
            mode: mode_from(r.get_u8()?)?,
            sample_mode: sample_from(r.get_u8()?)?,
            boost_shrinkage: r.get_f64()?,
            weight_clamp: r.get_f64()?,
            class_balanced_init: r.get_u8()? != 0,
            seed: r.get_u64()?,
            refit_epochs: r.get_len()?,
            ..BoostHdConfig::default()
        };
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r)?.build(config.dim_total)?;
        let n_errors = r.get_len()?;
        let mut train_errors = Vec::with_capacity(n_errors.min(1 << 16));
        for _ in 0..n_errors {
            train_errors.push(r.get_f64()?);
        }
        let n_learners = r.get_len()?;
        if n_learners != config.n_learners {
            return Err(persist_err("learner count disagrees with config"));
        }
        let mut learners = Vec::with_capacity(n_learners.min(1 << 16));
        for _ in 0..n_learners {
            let alpha = r.get_f32()?;
            let start = r.get_len()?;
            let end = r.get_len()?;
            let memory = get_memory(r)?;
            let own_encoder = match r.get_u8()? {
                0 => None,
                1 => Some(get_encoder(r)?.build(config.dim_total)?),
                other => return Err(persist_err(format!("unknown encoder tag {other}"))),
            };
            learners.push((alpha, start, end, memory, own_encoder));
        }
        if let Some((_, _, _, memory, _)) = learners.first() {
            config.precision = memory.precision();
        }
        Self::from_parts(encoder, learners, num_classes, config, train_errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::pipeline::{Model, Pipeline};
    use crate::spec::ModelSpec;
    use linalg::Rng64;

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    /// A reader over a body whose heap sits alone in its own blob.
    fn reader<'a>(body: &'a RecordParts, encoders: &'a [SinusoidEncoder]) -> Reader<'a> {
        let blob = Arc::new(Blob::from_bytes(&body.heap));
        Reader::new(&body.structure, blob, 0, body.heap.len(), encoders).unwrap()
    }

    /// The spec an envelope records for `model` (metadata only: loading
    /// never refits from it).
    fn spec_of(model: &dyn Model) -> ModelSpec {
        let any = model.as_any();
        if let Some(m) = any.downcast_ref::<OnlineHd>() {
            ModelSpec::OnlineHd(*m.config())
        } else if let Some(m) = any.downcast_ref::<BoostHd>() {
            ModelSpec::BoostHd(*m.config())
        } else {
            ModelSpec::CentroidHd(crate::CentroidHdConfig::default())
        }
    }

    fn pipeline_of(model: &dyn Model) -> Pipeline {
        Pipeline::from_model(spec_of(model), model.clone_box())
    }

    /// A `.bhde` envelope holding `model`.
    fn envelope(model: &dyn Model) -> Vec<u8> {
        pipeline_of(model).to_bytes().unwrap()
    }

    /// The `M` an envelope holds.
    fn reload<M: Model + Clone + 'static>(bytes: &[u8]) -> Result<M> {
        let pipeline = Pipeline::from_bytes(bytes)?;
        Ok(pipeline
            .downcast_ref::<M>()
            .expect("envelope holds another family")
            .clone())
    }

    /// Offset of the model body (its `BHD1` magic) in an envelope: after
    /// the 16-byte header, the model part's two lengths, and the record
    /// prefix (kind, threshold, spec length, spec text).
    fn body_at(bytes: &[u8]) -> usize {
        45 + u64::from_le_bytes(bytes[37..45].try_into().unwrap()) as usize
    }

    fn remat_online(dim: usize) -> OnlineHd {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim,
            epochs: 2,
            ..Default::default()
        };
        let mut model = OnlineHd::fit(&config, &x, &y).unwrap();
        model.rematerialize_encoder().unwrap();
        model
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-1.5);
        w.put_f64(std::f64::consts::PI);
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        let (body, _) = w.into_parts();
        let mut r = reader(&body, &[]);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), -1.5);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn matrix_round_trip() {
        let mut rng = Rng64::seed_from(1);
        let m = Matrix::random_normal(5, 7, &mut rng);
        let mut w = Writer::new();
        w.put_matrix(&m);
        let (body, _) = w.into_parts();
        assert_eq!(reader(&body, &[]).get_matrix().unwrap(), m);
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let mut w = Writer::new();
        w.put_u64(10);
        let (body, _) = w.into_parts();
        let blob = Arc::new(Blob::from_bytes(&[]));
        let mut r = Reader::new(&body.structure[..4], blob, 0, 0, &[]).unwrap();
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn onlinehd_round_trip_preserves_predictions() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let restored: OnlineHd = reload(&envelope(&model)).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.class_hypervectors(), restored.class_hypervectors());
        assert_eq!(model.config(), restored.config());
    }

    #[test]
    fn boosthd_round_trip_preserves_everything() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let restored: BoostHd = reload(&envelope(&model)).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.alphas(), restored.alphas());
        assert_eq!(model.training_errors(), restored.training_errors());
        assert_eq!(model.config(), restored.config());
    }

    #[test]
    fn file_save_load_round_trip() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 60,
            n_learners: 3,
            epochs: 2,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        let dir = std::env::temp_dir().join("boosthd_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bhde");
        pipeline_of(&model).save(&path).unwrap();
        let restored = Pipeline::load(&path).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        std::fs::remove_file(&path).ok();
    }

    fn online_at(precision: Precision, dim: usize) -> (OnlineHd, Matrix) {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        (model.with_precision(precision).unwrap(), x)
    }

    fn boost_at(precision: Precision) -> (BoostHd, Matrix) {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let model = BoostHd::fit(&config, &x, &y).unwrap();
        (model.with_precision(precision).unwrap(), x)
    }

    #[test]
    fn quantized_onlinehd_round_trips() {
        let (quantized, x) = online_at(Precision::Binary, 96);
        let restored: OnlineHd = reload(&envelope(&quantized)).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(restored.precision(), Precision::Binary);
        assert_eq!(restored.config(), quantized.config());
        let (ClassMemory::Packed(a), ClassMemory::Packed(b)) =
            (quantized.class_memory(), restored.class_memory())
        else {
            panic!("binary models store packed memories");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_boosthd_round_trips() {
        let (quantized, x) = boost_at(Precision::Binary);
        let restored: BoostHd = reload(&envelope(&quantized)).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.config(), restored.config());
        assert_eq!(restored.precision(), Precision::Binary);
    }

    #[test]
    fn precision_tag_is_persisted_and_validated() {
        // A rematerialized encoder has a fixed 36-byte recipe, which puts
        // the class-memory precision tag at a known offset of the body:
        // header (6), config (37), class count (8), encoder (36).
        let model = remat_online(32);
        const TAG: usize = 6 + 37 + 8 + 36;
        for (precision, tag) in [
            (Precision::F32, 0u8),
            (Precision::Int8, 1),
            (Precision::Binary, 2),
        ] {
            let mut bytes = envelope(&model.with_precision(precision).unwrap());
            let at = body_at(&bytes) + TAG;
            assert_eq!(bytes[at], tag, "{precision:?}");
            assert_eq!(reload::<OnlineHd>(&bytes).unwrap().precision(), precision);
            bytes[at] = 7;
            let err = reload::<OnlineHd>(&bytes).unwrap_err();
            assert!(err.to_string().contains("precision tag 7"), "{err}");
        }
    }

    #[test]
    fn truncated_quantized_blob_is_rejected() {
        let (quantized, _) = online_at(Precision::Binary, 32);
        let bytes = envelope(&quantized);
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(reload::<OnlineHd>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn v1_header_is_rejected_for_quantized_kinds() {
        let (quantized, _) = online_at(Precision::Binary, 32);
        let mut bytes = envelope(&quantized);
        let at = body_at(&bytes);
        bytes[at + 4] = 1; // version byte: pretend this is a v1 blob
        let err = reload::<OnlineHd>(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unsupported model blob version 1"),
            "{err}"
        );
    }

    #[test]
    fn older_blob_versions_are_rejected() {
        // Every earlier layout fails loudly instead of being reinterpreted
        // under the current grammar.
        let (model, _) = online_at(Precision::F32, 32);
        let mut bytes = envelope(&model);
        let at = body_at(&bytes) + 4;
        assert_eq!(bytes[at], 5, "current writer stamps v5");
        for old in 1..5u8 {
            bytes[at] = old;
            let err = reload::<OnlineHd>(&bytes).unwrap_err();
            assert!(err.to_string().contains("reads version 5 only"), "{err}");
        }
    }

    #[test]
    fn quantized_i8_onlinehd_round_trips_bit_identically() {
        let (quantized, x) = online_at(Precision::Int8, 96);
        let restored: OnlineHd = reload(&envelope(&quantized)).unwrap();
        // Derived norms are recomputed from the stored bytes at load, so
        // the full score surface must match bit-for-bit, not just argmaxes.
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
        assert_eq!(
            quantized.class_storage_bytes(),
            restored.class_storage_bytes()
        );
    }

    #[test]
    fn quantized_i8_boosthd_round_trips_bit_identically() {
        let (quantized, x) = boost_at(Precision::Int8);
        let restored: BoostHd = reload(&envelope(&quantized)).unwrap();
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.config(), restored.config());
    }

    #[test]
    fn i8_kinds_require_v4() {
        let (quantized, _) = online_at(Precision::Int8, 32);
        let bytes = envelope(&quantized);
        let at = body_at(&bytes);
        let mut old = bytes.clone();
        old[at + 4] = 3; // pretend the blob predates the int8 memories
        let err = reload::<OnlineHd>(&old).unwrap_err();
        assert!(
            err.to_string().contains("unsupported model blob version 3"),
            "{err}"
        );
        // An int8 OnlineHD body is still an OnlineHD body.
        let mut centroid = bytes;
        centroid[at + 5] = KIND_CENTROID;
        let err = reload::<OnlineHd>(&centroid).unwrap_err();
        assert!(err.to_string().contains("model kind 3"), "{err}");
    }

    #[test]
    fn truncated_i8_blob_is_rejected() {
        let (quantized, _) = online_at(Precision::Int8, 32);
        let bytes = envelope(&quantized);
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(reload::<OnlineHd>(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(reload::<OnlineHd>(&trailing).is_err());
    }

    #[test]
    fn remat_encoder_round_trips_as_recipe() {
        // A rematerialized encoder persists as a 36-byte recipe in the
        // stream instead of a D×F projection, and reloads to bit-identical
        // encodings.
        let enc = SinusoidEncoder::try_new_remat(128, 6, 77).unwrap();
        let mut rng = Rng64::seed_from(3);
        let probe = Matrix::random_normal(5, 6, &mut rng);
        let mut w = Writer::new();
        super::put_encoder(&mut w, &enc);
        let (body, encoders) = w.into_parts();
        assert_eq!(body.structure.len(), 36);
        assert!(body.heap.is_empty() && encoders.is_empty());
        let restored = super::get_encoder(&mut reader(&body, &[]))
            .unwrap()
            .build(128)
            .unwrap();
        assert!(restored.is_rematerialized());
        assert_eq!(enc.encode_batch(&probe), restored.encode_batch(&probe));
    }

    /// A recipe is checked before it is built: a `dim` patched away from
    /// the model's width, or a `dim × input_len` past the cap, fails at
    /// once instead of spinning through the draws.
    #[test]
    fn corrupt_remat_recipes_fail_fast() {
        let bytes = envelope(&remat_online(32));
        // Body header (6), config (37), class count (8), sentinel (8).
        let dim_at = body_at(&bytes) + 6 + 37 + 8 + 8;
        let input_len_at = dim_at + 8;
        assert_eq!(bytes[dim_at..dim_at + 8], 32u64.to_le_bytes());
        let patched = |at: usize, value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            reload::<OnlineHd>(&b).map(|_| ()).unwrap_err().to_string()
        };
        for value in [1 << 62, 33, u64::MAX] {
            let err = patched(dim_at, value);
            assert!(err.contains("disagrees"), "dim {value}: {err}");
        }
        for value in [1 << 62, 1 << 20, u64::MAX] {
            let err = patched(input_len_at, value);
            assert!(
                err.contains("cap") || err.contains("overflows"),
                "input_len {value}: {err}"
            );
        }
        // The cap holds on its own, whatever the declared width.
        let mut w = Writer::new();
        super::put_encoder(&mut w, &SinusoidEncoder::try_new_remat(64, 6, 1).unwrap());
        let (mut body, _) = w.into_parts();
        body.structure[16..24].copy_from_slice(&(MAX_REMAT_PROJECTION as u64).to_le_bytes());
        let err = super::get_encoder(&mut reader(&body, &[]))
            .unwrap()
            .build(64)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn i8_model_with_remat_encoder_round_trips() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let mut model = OnlineHd::fit(&config, &x, &y).unwrap();
        model.rematerialize_encoder().unwrap();
        let quantized = model.with_precision(Precision::Int8).unwrap();
        let stored_bytes = envelope(
            &OnlineHd::fit(&config, &x, &y)
                .unwrap()
                .with_precision(Precision::Int8)
                .unwrap(),
        );
        let remat_bytes = envelope(&quantized);
        assert!(
            remat_bytes.len() * 2 < stored_bytes.len(),
            "remat envelope ({}) should be far smaller than stored ({})",
            remat_bytes.len(),
            stored_bytes.len()
        );
        let restored: OnlineHd = reload(&remat_bytes).unwrap();
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
    }

    #[test]
    fn centroid_round_trip_preserves_predictions() {
        let (x, y) = toy();
        let config = crate::CentroidHdConfig {
            dim: 96,
            ..Default::default()
        };
        let model = CentroidHd::fit(&config, &x, &y).unwrap();
        let restored: CentroidHd = reload(&envelope(&model)).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(model.class_hypervectors(), restored.class_hypervectors());
    }

    #[test]
    fn centroid_blob_requires_v3_and_rejects_other_kinds() {
        let (x, y) = toy();
        let config = crate::CentroidHdConfig {
            dim: 64,
            ..Default::default()
        };
        let model = CentroidHd::fit(&config, &x, &y).unwrap();
        let bytes = envelope(&model);
        let at = body_at(&bytes);
        let mut online = bytes.clone();
        online[at + 5] = KIND_ONLINE;
        assert!(reload::<CentroidHd>(&online).is_err(), "kind is disjoint");
        let mut old = bytes;
        old[at + 4] = 2; // pretend the blob predates the centroid kind
        let err = reload::<CentroidHd>(&old).unwrap_err();
        assert!(
            err.to_string().contains("unsupported model blob version 2"),
            "{err}"
        );
    }

    fn small_online() -> OnlineHd {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        OnlineHd::fit(&config, &x, &y).unwrap()
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let mut bytes = envelope(&small_online());
        let at = body_at(&bytes);
        bytes[at + 5] = KIND_BOOST;
        assert!(reload::<OnlineHd>(&bytes).is_err());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let bytes = envelope(&small_online());
        let mut body_magic = bytes.clone();
        body_magic[body_at(&bytes)] ^= 0xFF;
        let err = reload::<OnlineHd>(&body_magic).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        let mut envelope_magic = bytes;
        envelope_magic[0] ^= 0xFF;
        assert!(reload::<OnlineHd>(&envelope_magic).is_err());
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let bytes = envelope(&small_online());
        assert!(reload::<OnlineHd>(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_length_prefixes_fail_fast_without_allocation() {
        // A length prefix claiming ~2^61 elements must produce a
        // descriptive error before any allocation is attempted — not an
        // abort on a multi-gigabyte reserve.
        let mut w = Writer::new();
        w.put_u64(1 << 61);
        w.put_u64(0);
        w.put_u64(1 << 61);
        w.put_u64(0);
        let (body, _) = w.into_parts();
        let rejected = |msg: String| msg.contains("exceeds") || msg.contains("overflows");
        let err = reader(&body, &[]).get_f32_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        let err = reader(&body, &[]).get_i8_storage().map(|_| ()).unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        // 2^61 packed words overflow the byte count.
        let err = reader(&body, &[]).get_packed_matrix().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        // Matrix shapes whose element count overflows are rejected too.
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        w.put_u64(16);
        let (body, _) = w.into_parts();
        let err = reader(&body, &[]).get_matrix().unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        // So is an envelope part claiming more bytes than the envelope.
        let mut bytes = envelope(&small_online());
        bytes[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let err = reload::<OnlineHd>(&bytes).unwrap_err();
        assert!(err.to_string().contains("but only"), "{err}");
    }

    #[test]
    fn heap_mode_primitives_round_trip_with_zero_copy_views() {
        let mut rng = Rng64::seed_from(9);
        let m = Matrix::random_normal(4, 6, &mut rng);
        // dim = 128 → two words per row, no padding bits to invalidate.
        let packed = PackedMatrix::from_parts(vec![1, 2, 3, u64::MAX], 2, 128).unwrap();
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_f32_slice(&[1.5, -2.5, 3.5]);
        w.put_i8_slice(&[-3, 0, 5]);
        w.put_matrix(&m);
        w.put_packed_matrix(&packed);
        let (body, encoders) = w.into_parts();
        assert!(encoders.is_empty());
        assert_eq!(body.heap.len() % 8, 0, "heap must be 8-padded");
        let mut r = reader(&body, &[]);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.5, 3.5]);
        let i8s = r.get_i8_storage().unwrap();
        assert!(i8s.is_shared(), "i8 arrays must borrow the blob");
        assert_eq!(i8s.into_vec(), vec![-3, 0, 5]);
        let m2 = r.get_matrix().unwrap();
        assert_eq!(m2, m);
        assert!(m2.is_shared(), "matrix must borrow the blob");
        let p2 = r.get_packed_matrix().unwrap();
        assert_eq!(p2.as_words(), packed.as_words());
        assert!(p2.is_shared(), "packed words must borrow the blob");
        assert!(r.is_exhausted());
    }

    #[test]
    fn heap_mode_model_round_trip_is_bit_identical_and_zero_copy() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let mut w = Writer::new();
        model.encode_into(&mut w);
        let (body, encoders) = w.into_parts();
        // The projection travels outside the body, referenced by index.
        assert_eq!(encoders.len(), 1);
        assert!(body.heap.len() < 96 * 4 * 4, "body heap holds a projection");
        let encoders = shared_encoders(&encoders);
        let mut r = reader(&body, &encoders);
        let restored = OnlineHd::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(model.scores_batch(&x), restored.scores_batch(&x));
        assert!(restored.class_hypervectors().is_shared());
        let projection = restored.encoder().projection_t().unwrap();
        assert!(projection.is_shared());
        assert_eq!(
            projection.as_slice().as_ptr(),
            encoders[0].projection_t().unwrap().as_slice().as_ptr(),
            "the decoded encoder must share the supplied projection"
        );
    }

    #[test]
    fn encoder_references_resolve_only_against_supplied_encoders() {
        let mut w = Writer::new();
        small_online().encode_into(&mut w);
        let (body, _) = w.into_parts();
        let err = OnlineHd::decode_from(&mut reader(&body, &[]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("encoder reference 0"), "{err}");
    }

    /// Decodes each encoder's record body zero-copy out of its own blob,
    /// as the fleet store does with encoder records.
    fn shared_encoders(encoders: &[SinusoidEncoder]) -> Vec<SinusoidEncoder> {
        encoders
            .iter()
            .map(|enc| {
                let p = EncoderBody::new(enc).to_parts();
                let blob = Arc::new(Blob::from_bytes(&p.heap));
                encoder_from_parts(&p.structure, blob, 0, p.heap.len()).unwrap()
            })
            .collect()
    }

    /// An encoder body read off the live encoder is byte for byte what a
    /// writer serializes for its projection and phases, word by word and
    /// as a whole, for projections with and without heap padding.
    #[test]
    fn encoder_body_matches_the_heap_mode_stream() {
        let mut rng = Rng64::seed_from(5);
        for (dim, features) in [(64, 2), (7, 3), (33, 5)] {
            let enc = SinusoidEncoder::new(dim, features, &mut rng);
            let mut w = Writer::new();
            w.put_matrix(enc.projection_t().unwrap());
            w.put_f32_slice(enc.bias());
            let (want, _) = w.into_parts();
            let body = EncoderBody::new(&enc);
            assert_eq!(body.to_parts(), want, "dim {dim}");
            assert_eq!(body.structure(), &want.structure[..]);
            assert_eq!(body.heap_len(), want.heap.len());
            for (i, word) in want.heap.chunks_exact(8).enumerate() {
                assert_eq!(&body.heap_word(i)[..], word, "dim {dim} word {i}");
            }
            assert!(body.matches(&want.structure, &want.heap));
            for at in [0, want.heap.len() / 2, want.heap.len() - 1] {
                let mut other = want.heap.clone();
                other[at] ^= 1;
                assert!(
                    !body.matches(&want.structure, &other),
                    "dim {dim} byte {at}"
                );
            }
            assert!(!body.matches(&want.structure, &want.heap[..want.heap.len() - 8]));
            assert!(!body.matches(&want.structure[8..], &want.heap));
        }
    }

    #[test]
    fn heap_mode_i8_round_trip_is_bit_identical_and_zero_copy() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y)
            .unwrap()
            .with_precision(Precision::Int8)
            .unwrap();
        let mut w = Writer::new();
        model.encode_into(&mut w);
        let (body, encoders) = w.into_parts();
        let encoders = shared_encoders(&encoders);
        let mut r = reader(&body, &encoders);
        let restored = OnlineHd::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(model.scores_batch(&x), restored.scores_batch(&x));
        let ClassMemory::Int8(rows) = restored.class_memory() else {
            panic!("int8 model decoded at another precision");
        };
        assert!(rows.is_shared(), "int8 class grid must borrow the blob");
    }

    #[test]
    fn atomic_save_replaces_existing_file_and_cleans_temp() {
        let dir = std::env::temp_dir().join("boosthd_atomic_save_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bhde");
        std::fs::write(&path, b"garbage that must be replaced").unwrap();
        let (x, _) = toy();
        let model = small_online();
        pipeline_of(&model).save(&path).unwrap();
        let restored = Pipeline::load(&path).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = envelope(&small_online());
        bytes.push(0);
        assert!(reload::<OnlineHd>(&bytes).is_err());
    }
}
