//! Compact binary persistence for trained models.
//!
//! Wearable deployments flash a trained model onto the device; this module
//! provides the byte format. The dependency policy for this reproduction
//! admits `serde` but no serializer crate, so the codec is hand-rolled:
//! little-endian, length-prefixed, with a magic header and version byte so
//! stale blobs fail loudly instead of mis-deserializing.
//!
//! ```text
//! blob     := magic:u32 version:u8 kind:u8 payload
//! matrix   := rows:u64 cols:u64 f32[rows·cols]
//! vec<f32> := len:u64 f32[len]
//! vec<u64> := len:u64 u64[len]          (v2+)
//! vec<i8>  := len:u64 i8[len]           (v4+)
//! packed   := rows:u64 dim:u64 vec<u64> (v2+, bitpacked sign matrices)
//! i8rows   := rows:u64 cols:u64 vec<f32> vec<i8>  (v4+, scaled int8 rows)
//! encoder  := matrix vec<f32>           (stored projection + bias)
//!           | remat:u64(=u64::MAX) dim:u64 input_len:u64 bandwidth:f32
//!             seed:u64                  (v4+, rematerialized recipe)
//! ```
//!
//! The same grammar also serializes in a **heap-mode** split (see
//! [`Writer::new_with_heap`]): every length-prefixed array body moves to a
//! separate 8-byte-aligned payload heap and the structure stream records
//! its heap offset instead. The fleet model store persists records in
//! that split so the bulk payloads (class matrices, packed sign words,
//! int8 grids) can be served zero-copy out of a loaded blob; plain `.bhd`
//! file blobs always use the inline layout above. A heap-mode stream never
//! holds a stored projection: it writes an encoder *reference*
//!
//! ```text
//! encoder  := ref:u64(=u64::MAX-1) index:u64   (heap mode only)
//! ```
//!
//! and the writer hands the encoder itself out separately
//! ([`Writer::into_parts`]), so the store can keep one encoder record
//! that every model and ladder tier built on that encoder shares.
//!
//! Version history: **v1** stored only the dense-f32 models (kinds 1–2);
//! **v2** adds the bitpacked inference models (kinds 3–4); **v3** adds the
//! centroid model (kind 5); **v4** adds the scaled-int8 inference models
//! (kinds 6–7) and the rematerialized-encoder recipe (a `u64::MAX` row
//! sentinel where a stored projection's row count would sit, so
//! stored-encoder payloads stay byte-identical to v1). Every version keeps
//! the earlier layouts unchanged, so old blobs remain readable.
//!
//! # Example
//!
//! ```
//! use boosthd::{OnlineHd, OnlineHdConfig, Classifier};
//! use linalg::{Matrix, Rng64};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed_from(1);
//! let x = Matrix::random_normal(40, 3, &mut rng);
//! let y: Vec<usize> = (0..40).map(|i| i % 2).collect();
//! let config = OnlineHdConfig { dim: 64, epochs: 2, ..Default::default() };
//! let model = OnlineHd::fit(&config, &x, &y)?;
//!
//! let bytes = model.to_bytes();
//! let restored = OnlineHd::from_bytes(&bytes)?;
//! assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
//! # Ok(())
//! # }
//! ```

use crate::boost::{BoostHd, BoostHdConfig, EnsembleMode, SampleMode, Voting};
use crate::classifier::Classifier;
use crate::error::{BoostHdError, Result};
use crate::online::{OnlineHd, OnlineHdConfig};
use crate::quantized::{QuantizedBoostHd, QuantizedHd, QuantizedWeakLearner};
use crate::quantized_i8::{I8Rows, QuantizedI8BoostHd, QuantizedI8Hd, QuantizedI8WeakLearner};
use hdc::backend::PackedMatrix;
use hdc::encoder::{RematSpec, SinusoidEncoder};
use linalg::{Blob, Matrix, SharedSlice, Storage};
use std::sync::Arc;

/// `"BHD1"` little-endian.
const MAGIC: u32 = 0x3144_4842;
/// Bump on any incompatible layout change; readers accept every version
/// back to [`MIN_VERSION`] whose layout for the requested kind is known.
const VERSION: u8 = 4;
/// Oldest readable blob version.
const MIN_VERSION: u8 = 1;
const KIND_ONLINE: u8 = 1;
const KIND_BOOST: u8 = 2;
/// Bitpacked single-learner model ([`QuantizedHd`]); requires v2.
const KIND_QUANT_ONLINE: u8 = 3;
/// Bitpacked boosted ensemble ([`QuantizedBoostHd`]); requires v2.
const KIND_QUANT_BOOST: u8 = 4;
/// Single-pass centroid model ([`crate::CentroidHd`]); requires v3.
const KIND_CENTROID: u8 = 5;
/// Scaled-int8 single-learner model ([`QuantizedI8Hd`]); requires v4.
const KIND_QUANT_I8_ONLINE: u8 = 6;
/// Scaled-int8 boosted ensemble ([`QuantizedI8BoostHd`]); requires v4.
const KIND_QUANT_I8_BOOST: u8 = 7;

/// Row-count sentinel marking a rematerialized-encoder recipe where a
/// stored projection's `rows:u64` would sit (no real projection has
/// `u64::MAX` rows, and v1–v3 readers fail loudly on it).
const REMAT_SENTINEL: u64 = u64::MAX;

/// Row-count sentinel marking a reference to a stored encoder kept
/// outside the stream (the `index`-th encoder of [`Writer::into_parts`]).
/// Only heap-mode streams (the fleet model store) emit it, so plain BHD1
/// file blobs stay byte-identical to v4.
const ENCODER_REF_SENTINEL: u64 = u64::MAX - 1;

fn persist_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

/// Little-endian byte sink.
///
/// Two modes share every `put_*` call:
///
/// * **inline** ([`Writer::new`]) — array bodies are written in place,
///   producing the classic single-stream BHD1 layout;
/// * **heap** ([`Writer::new_with_heap`]) — every length-prefixed array
///   body is appended to a separate 8-byte-aligned *payload heap* and the
///   structure stream records its heap byte offset (`u64`) where the body
///   would sit. The fleet model store uses this split: the structure
///   stream is decoded normally while the bulk payloads are served
///   zero-copy straight out of the loaded blob. Stored encoders are not
///   written into the stream at all; it records an index into the
///   encoder list [`Writer::into_parts`] returns.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    heap: Option<Vec<u8>>,
    /// Heap mode: the stored encoders the stream references, in index
    /// order, each serialized as an encoder-record body.
    encoders: Vec<RecordParts>,
}

/// One heap-mode body: a structure stream plus the payload heap its
/// array offsets point into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordParts {
    /// Scalars, shapes, and heap offsets.
    pub structure: Vec<u8>,
    /// Array bodies at 8-aligned offsets; its length is a multiple of 8.
    pub heap: Vec<u8>,
}

impl Writer {
    /// Creates an empty inline-mode writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap-mode writer (see the type docs).
    pub fn new_with_heap() -> Self {
        Self {
            heap: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Whether this writer routes array bodies to a payload heap.
    pub fn has_heap(&self) -> bool {
        self.heap.is_some()
    }

    /// Finishes, returning the encoded bytes (inline mode).
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.heap.is_none(), "heap-mode writer needs into_parts");
        self.buf
    }

    /// Finishes a heap-mode writer, returning the body plus the stored
    /// encoders its encoder references index, each serialized as the
    /// transposed projection and phase vector. Each heap must land at
    /// an 8-byte-aligned offset of whatever record it is embedded in, so
    /// the recorded array offsets stay aligned for zero-copy
    /// reinterpretation; heaps are padded to a multiple of 8 so records
    /// that embed them stay 8-aligned end to end.
    pub fn into_parts(mut self) -> (RecordParts, Vec<RecordParts>) {
        if self.heap.is_some() {
            self.align_heap();
        }
        let body = RecordParts {
            structure: self.buf,
            heap: self.heap.unwrap_or_default(),
        };
        (body, self.encoders)
    }

    /// Pads the heap to an 8-byte boundary and returns the write offset.
    fn align_heap(&mut self) -> u64 {
        let heap = self.heap.as_mut().expect("heap-mode writer");
        while !heap.len().is_multiple_of(8) {
            heap.push(0);
        }
        heap.len() as u64
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

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_u64(v.len() as u64);
        if self.heap.is_some() {
            let off = self.align_heap();
            let heap = self.heap.as_mut().expect("heap-mode writer");
            for &x in v {
                heap.extend_from_slice(&x.to_le_bytes());
            }
            self.put_u64(off);
        } else {
            for &x in v {
                self.put_f32(x);
            }
        }
    }

    /// Appends a length-prefixed `i8` slice (v4+).
    pub fn put_i8_slice(&mut self, v: &[i8]) {
        self.put_u64(v.len() as u64);
        if self.heap.is_some() {
            let off = self.align_heap();
            let heap = self.heap.as_mut().expect("heap-mode writer");
            heap.extend(v.iter().map(|&x| x as u8));
            self.put_u64(off);
        } else {
            self.buf.extend(v.iter().map(|&x| x as u8));
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u64(v.len() as u64);
        if self.heap.is_some() {
            let off = self.align_heap();
            let heap = self.heap.as_mut().expect("heap-mode writer");
            for &x in v {
                heap.extend_from_slice(&x.to_le_bytes());
            }
            self.put_u64(off);
        } else {
            for &x in v {
                self.put_u64(x);
            }
        }
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
        if self.heap.is_some() {
            let off = self.align_heap();
            let heap = self.heap.as_mut().expect("heap-mode writer");
            heap.reserve(m.as_slice().len() * 4);
            for &x in m.as_slice() {
                heap.extend_from_slice(&x.to_le_bytes());
            }
            self.put_u64(off);
        } else {
            for &x in m.as_slice() {
                self.put_f32(x);
            }
        }
    }
}

/// The payload heap a shared-mode [`Reader`] resolves array references
/// against: a window of a reference-counted blob, kept alive by the
/// decoded models' zero-copy views.
#[derive(Debug)]
struct HeapSource {
    blob: Arc<Blob>,
    base: usize,
    len: usize,
}

/// Little-endian byte source with bounds checking.
///
/// The shared-mode constructor ([`Reader::new_shared`]) decodes structure
/// streams written by a heap-mode [`Writer`]: array reads resolve their
/// `u64` heap offsets against a reference-counted blob and — for the bulk
/// containers (matrices, packed words, int8 grids) — hand back zero-copy
/// views borrowing the blob instead of copied allocations. Encoder
/// references resolve against the caller's already-decoded encoders.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    heap: Option<HeapSource>,
    encoders: &'a [SinusoidEncoder],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice (inline mode).
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            heap: None,
            encoders: &[],
        }
    }

    /// Wraps a structure stream plus the blob window holding its payload
    /// heap. `heap_base` must be 8-byte aligned within the blob (the
    /// store's record layout guarantees this), or every array view will
    /// fail alignment validation. The stream's `index`-th encoder
    /// reference decodes to a clone of `encoders[index]`, which shares
    /// its projection storage.
    ///
    /// # Errors
    ///
    /// Fails when the heap window exceeds the blob.
    pub fn new_shared(
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
            heap: Some(HeapSource {
                blob,
                base: heap_base,
                len: heap_len,
            }),
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

    /// [`Reader::take`] for a counted array: validates `count × elem`
    /// against the bytes actually remaining *before* any allocation, so a
    /// corrupted length prefix yields a descriptive error instead of a
    /// multi-gigabyte reserve or an abort.
    fn take_elems(&mut self, count: usize, elem: usize, what: &str) -> Result<&'a [u8]> {
        let bytes = count
            .checked_mul(elem)
            .ok_or_else(|| persist_err(format!("{what} length {count} overflows")))?;
        let remaining = self.data.len() - self.pos;
        if bytes > remaining {
            return Err(persist_err(format!(
                "{what} claims {count} elements ({bytes} bytes) but only {remaining} bytes remain"
            )));
        }
        self.take(bytes)
    }

    /// Reads an array's heap offset and validates the referenced
    /// `count × elem` byte range against the heap window.
    fn heap_ref(&mut self, count: usize, elem: usize, what: &str) -> Result<usize> {
        let heap_len = self.heap.as_ref().expect("shared-mode reader").len;
        let off = self.get_len()?;
        let bytes = count
            .checked_mul(elem)
            .ok_or_else(|| persist_err(format!("{what} length {count} overflows")))?;
        if off.checked_add(bytes).is_none_or(|end| end > heap_len) {
            return Err(persist_err(format!(
                "{what} payload at {off}+{bytes} exceeds heap of {heap_len} bytes"
            )));
        }
        Ok(off)
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

    /// Reads `len` raw bytes, validating `len` against the remaining
    /// input *before* any allocation — the read for untrusted counted
    /// sections (envelope spec text, embedded payloads).
    ///
    /// # Errors
    ///
    /// Fails with a descriptive error naming `what` when fewer than `len`
    /// bytes remain.
    pub fn get_bytes(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        self.take_elems(len, 1, what)
    }

    /// Bytes `start..start + len` of the heap window (pre-validated by
    /// [`Reader::heap_ref`]).
    fn heap_bytes(&self, off: usize, bytes: usize) -> &[u8] {
        let heap = self.heap.as_ref().expect("shared-mode reader");
        &heap.blob.as_bytes()[heap.base + off..heap.base + off + bytes]
    }

    fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }

    /// Reads a length-prefixed `f32` vector (copied out of the heap in
    /// shared mode — the small vectors this decodes, biases and scales,
    /// are not worth a view).
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.get_len()?;
        if self.heap.is_some() {
            let off = self.heap_ref(len, 4, "f32 vector")?;
            Ok(Self::decode_f32s(self.heap_bytes(off, len * 4)))
        } else {
            Ok(Self::decode_f32s(self.take_elems(len, 4, "f32 vector")?))
        }
    }

    /// Reads a length-prefixed `i8` vector (v4+).
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_i8_vec(&mut self) -> Result<Vec<i8>> {
        Ok(self.get_i8_storage()?.into_vec())
    }

    /// [`Reader::get_i8_vec`], but in shared mode the bytes stay a
    /// zero-copy view into the blob instead of being copied out.
    pub(crate) fn get_i8_storage(&mut self) -> Result<Storage<i8>> {
        let len = self.get_len()?;
        if self.heap.is_some() {
            let off = self.heap_ref(len, 1, "i8 vector")?;
            let heap = self.heap.as_ref().expect("shared-mode reader");
            let view = SharedSlice::<i8>::new(Arc::clone(&heap.blob), heap.base + off, len)
                .map_err(|e| persist_err(e.to_string()))?;
            Ok(Storage::shared(view))
        } else {
            let bytes = self.take_elems(len, 1, "i8 vector")?;
            Ok(bytes.iter().map(|&b| b as i8).collect::<Vec<_>>().into())
        }
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an out-of-range length prefix.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.get_len()?;
        let bytes = if self.heap.is_some() {
            let off = self.heap_ref(len, 8, "u64 vector")?;
            self.heap_bytes(off, len * 8)
        } else {
            self.take_elems(len, 8, "u64 vector")?
        };
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a shape-prefixed bitpacked matrix — a zero-copy view into
    /// the blob in shared mode.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or inconsistent shape.
    pub fn get_packed_matrix(&mut self) -> Result<PackedMatrix> {
        let rows = self.get_len()?;
        let dim = self.get_len()?;
        if self.heap.is_some() {
            let len = self.get_len()?;
            let off = self.heap_ref(len, 8, "packed matrix")?;
            let heap = self.heap.as_ref().expect("shared-mode reader");
            let m = PackedMatrix::from_shared(Arc::clone(&heap.blob), heap.base + off, rows, dim)
                .map_err(|e| persist_err(e.to_string()))?;
            if m.as_words().len() != len {
                return Err(persist_err("packed matrix word count disagrees with shape"));
            }
            Ok(m)
        } else {
            let words = self.get_u64_vec()?;
            PackedMatrix::from_parts(words, rows, dim).map_err(|e| persist_err(e.to_string()))
        }
    }

    /// Reads a shape-prefixed matrix — a zero-copy view into the blob in
    /// shared mode.
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
        if self.heap.is_some() {
            let off = self.heap_ref(n, 4, "matrix")?;
            let heap = self.heap.as_ref().expect("shared-mode reader");
            Matrix::from_shared(Arc::clone(&heap.blob), heap.base + off, rows, cols)
                .map_err(|e| persist_err(e.to_string()))
        } else {
            let data = Self::decode_f32s(self.take_elems(n, 4, "matrix")?);
            Matrix::from_vec(rows, cols, data).map_err(|e| persist_err(e.to_string()))
        }
    }

    /// Whether every byte has been consumed.
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

fn check_header(r: &mut Reader<'_>, kind: u8) -> Result<u8> {
    if r.get_u32()? != MAGIC {
        return Err(persist_err("not a BoostHD model blob (bad magic)"));
    }
    let version = r.get_u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(persist_err(format!(
            "unsupported model blob version {version} (supported {MIN_VERSION}..={VERSION})"
        )));
    }
    if version < 2 && kind >= KIND_QUANT_ONLINE {
        return Err(persist_err(format!(
            "model kind {kind} requires blob version 2, got {version}"
        )));
    }
    if version < 3 && kind == KIND_CENTROID {
        return Err(persist_err(format!(
            "model kind {kind} requires blob version 3, got {version}"
        )));
    }
    if version < 4 && kind >= KIND_QUANT_I8_ONLINE {
        return Err(persist_err(format!(
            "model kind {kind} requires blob version 4, got {version}"
        )));
    }
    let got = r.get_u8()?;
    if got != kind {
        return Err(persist_err(format!(
            "blob holds model kind {got}, expected {kind}"
        )));
    }
    Ok(version)
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
        None if w.has_heap() => {
            // Heap mode keeps the projection out of the record: the store
            // writes each distinct encoder once and models reference it.
            w.put_u64(ENCODER_REF_SENTINEL);
            w.put_u64(w.encoders.len() as u64);
            w.encoders.push(encoder_parts(enc));
        }
        None => {
            w.put_matrix(&enc.projection_matrix());
            w.put_f32_slice(enc.bias());
        }
    }
}

/// Serializes a stored encoder as an encoder-record body: the F×D
/// transpose the encoder holds in memory, then its phase vector, both in
/// the heap, so a shared read borrows the projection with no transpose
/// pass and no allocation.
fn encoder_parts(enc: &SinusoidEncoder) -> RecordParts {
    let mut w = Writer::new_with_heap();
    w.put_matrix(enc.projection_t().expect("stored encoder has projection"));
    w.put_f32_slice(enc.bias());
    w.into_parts().0
}

/// Decodes an encoder-record body written by [`Writer::into_parts`]. The
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
    let mut r = Reader::new_shared(structure, blob, heap_base, heap_len, &[])?;
    let projection_t = r.get_matrix()?;
    let bias = r.get_f32_vec()?;
    if !r.is_exhausted() {
        return Err(persist_err("trailing bytes after encoder record structure"));
    }
    SinusoidEncoder::from_parts_transposed(projection_t, bias).map_err(BoostHdError::from)
}

fn get_encoder(r: &mut Reader<'_>, version: u8) -> Result<SinusoidEncoder> {
    let rows = r.get_u64()?;
    if rows == REMAT_SENTINEL {
        if version < 4 {
            return Err(persist_err(format!(
                "rematerialized encoder requires blob version 4, got {version}"
            )));
        }
        let spec = RematSpec {
            dim: r.get_len()?,
            input_len: r.get_len()?,
            bandwidth: r.get_f32()?,
            seed: r.get_u64()?,
        };
        return SinusoidEncoder::from_remat_spec(spec).map_err(BoostHdError::from);
    }
    if rows == ENCODER_REF_SENTINEL {
        let index = r.get_len()?;
        return r.encoders.get(index).cloned().ok_or_else(|| {
            persist_err(format!(
                "encoder reference {index} is outside the {} encoder(s) supplied with the stream",
                r.encoders.len()
            ))
        });
    }
    // Stored projection: `rows` was the matrix row count — finish reading
    // the v1-layout matrix in place.
    let rows = usize::try_from(rows).map_err(|_| persist_err("length overflows usize"))?;
    let cols = r.get_len()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| persist_err("matrix shape overflows"))?;
    let data = Reader::decode_f32s(r.take_elems(n, 4, "projection matrix")?);
    let projection = Matrix::from_vec(rows, cols, data).map_err(|e| persist_err(e.to_string()))?;
    let bias = r.get_f32_vec()?;
    SinusoidEncoder::from_parts(projection, bias).map_err(BoostHdError::from)
}

fn put_i8_rows(w: &mut Writer, rows: &I8Rows) {
    w.put_u64(rows.rows() as u64);
    w.put_u64(rows.cols() as u64);
    w.put_f32_slice(rows.scales());
    w.put_i8_slice(rows.data());
}

fn get_i8_rows(r: &mut Reader<'_>) -> Result<I8Rows> {
    let rows = r.get_len()?;
    let cols = r.get_len()?;
    let scales = r.get_f32_vec()?;
    let data = r.get_i8_storage()?;
    if scales.len() != rows {
        return Err(persist_err("int8 scale count disagrees with row count"));
    }
    I8Rows::from_storage(data, scales, cols)
}

impl OnlineHd {
    /// Serializes the trained model to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Writes the full model blob (header included) into `w` — the body
    /// shared by [`OnlineHd::to_bytes`] and the fleet store's heap-mode
    /// records.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_ONLINE);
        let c = self.config();
        w.put_u64(c.dim as u64);
        w.put_f32(c.lr);
        w.put_u64(c.epochs as u64);
        w.put_u8(c.bootstrap as u8);
        w.put_u64(c.seed);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_matrix(self.class_hypervectors());
    }

    /// Deserializes a model written by [`OnlineHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Decodes a full model blob from `r` — the body shared by
    /// [`OnlineHd::from_bytes`] and the fleet store's shared-mode reads
    /// (exhaustion is the caller's check).
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_ONLINE)?;
        let config = OnlineHdConfig {
            dim: r.get_len()?,
            lr: r.get_f32()?,
            epochs: r.get_len()?,
            bootstrap: r.get_u8()? != 0,
            seed: r.get_u64()?,
        };
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let class_hvs = r.get_matrix()?;
        if class_hvs.rows() != num_classes || class_hvs.cols() != config.dim {
            return Err(persist_err("class hypervector shape disagrees with header"));
        }
        Ok(Self::from_parts(encoder, class_hvs, num_classes, config))
    }

    /// Writes the model to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads a model written by [`OnlineHd::save`].
    ///
    /// # Errors
    ///
    /// As [`OnlineHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl crate::CentroidHd {
    /// Serializes the trained model to the compact binary format (v3).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_CENTROID);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_matrix(self.class_hypervectors());
    }

    /// Deserializes a model written by [`crate::CentroidHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_CENTROID)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let class_hvs = r.get_matrix()?;
        Self::from_parts(encoder, class_hvs, num_classes)
    }

    /// Writes the model to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads a model written by [`crate::CentroidHd::save`].
    ///
    /// # Errors
    ///
    /// As [`crate::CentroidHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
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
    /// Serializes the trained ensemble to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
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
            w.put_matrix(self.learner_class_hypervectors(i));
            match own_encoder {
                None => w.put_u8(0),
                Some(enc) => {
                    w.put_u8(1);
                    put_encoder(w, enc);
                }
            }
        }
    }

    /// Deserializes an ensemble written by [`BoostHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_BOOST)?;
        let config = BoostHdConfig {
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
        };
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
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
            let class_hvs = r.get_matrix()?;
            if class_hvs.rows() != num_classes {
                return Err(persist_err("learner class count disagrees with header"));
            }
            let own_encoder = match r.get_u8()? {
                0 => None,
                1 => Some(get_encoder(r, version)?),
                other => return Err(persist_err(format!("unknown encoder tag {other}"))),
            };
            learners.push((alpha, start, end, class_hvs, own_encoder));
        }
        Self::from_parts(encoder, learners, num_classes, config, train_errors)
    }

    /// Writes the ensemble to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads an ensemble written by [`BoostHd::save`].
    ///
    /// # Errors
    ///
    /// As [`BoostHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl QuantizedHd {
    /// Serializes the bitpacked model to the compact binary format (v2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_QUANT_ONLINE);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_packed_matrix(self.class_bits());
    }

    /// Deserializes a model written by [`QuantizedHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_QUANT_ONLINE)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let class_bits = r.get_packed_matrix()?;
        Self::from_parts(encoder, class_bits, num_classes)
    }

    /// Writes the model to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads a model written by [`QuantizedHd::save`].
    ///
    /// # Errors
    ///
    /// As [`QuantizedHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl QuantizedBoostHd {
    /// Serializes the bitpacked ensemble to the compact binary format (v2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_QUANT_BOOST);
        w.put_u64(self.dim_total() as u64);
        w.put_u8(voting_tag(self.voting()));
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_u64(self.num_learners() as u64);
        for i in 0..self.num_learners() {
            let (class_bits, alpha, start, end, own_encoder) = self.learner_parts(i);
            w.put_f32(alpha);
            w.put_u64(start as u64);
            w.put_u64(end as u64);
            w.put_packed_matrix(class_bits);
            match own_encoder {
                None => w.put_u8(0),
                Some(enc) => {
                    w.put_u8(1);
                    put_encoder(w, enc);
                }
            }
        }
    }

    /// Deserializes an ensemble written by [`QuantizedBoostHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_QUANT_BOOST)?;
        let dim_total = r.get_len()?;
        let voting = voting_from(r.get_u8()?)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let n_learners = r.get_len()?;
        let mut learners = Vec::with_capacity(n_learners.min(1 << 16));
        for _ in 0..n_learners {
            let alpha = r.get_f32()?;
            let seg_start = r.get_len()?;
            let seg_end = r.get_len()?;
            let class_bits = r.get_packed_matrix()?;
            let own_encoder = match r.get_u8()? {
                0 => None,
                1 => Some(get_encoder(r, version)?),
                other => return Err(persist_err(format!("unknown encoder tag {other}"))),
            };
            learners.push(QuantizedWeakLearner {
                class_bits,
                alpha,
                seg_start,
                seg_end,
                own_encoder,
            });
        }
        Self::from_parts(encoder, learners, num_classes, voting, dim_total)
    }

    /// Writes the ensemble to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads an ensemble written by [`QuantizedBoostHd::save`].
    ///
    /// # Errors
    ///
    /// As [`QuantizedBoostHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl QuantizedI8Hd {
    /// Serializes the scaled-int8 model to the compact binary format (v4).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_QUANT_I8_ONLINE);
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        put_i8_rows(w, self.classes());
    }

    /// Deserializes a model written by [`QuantizedI8Hd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_QUANT_I8_ONLINE)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let classes = get_i8_rows(r)?;
        Self::from_parts(encoder, classes, num_classes)
    }

    /// Writes the model to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads a model written by [`QuantizedI8Hd::save`].
    ///
    /// # Errors
    ///
    /// As [`QuantizedI8Hd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl QuantizedI8BoostHd {
    /// Serializes the scaled-int8 ensemble to the compact binary format
    /// (v4).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Full-blob encode body shared with the fleet store.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        put_header(w, KIND_QUANT_I8_BOOST);
        w.put_u64(self.dim_total() as u64);
        w.put_u8(voting_tag(self.voting()));
        w.put_u64(self.num_classes() as u64);
        put_encoder(w, self.encoder());
        w.put_u64(self.num_learners() as u64);
        for learner in self.learners() {
            w.put_f32(learner.alpha);
            w.put_u64(learner.seg_start as u64);
            w.put_u64(learner.seg_end as u64);
            put_i8_rows(w, &learner.classes);
            match &learner.own_encoder {
                None => w.put_u8(0),
                Some(enc) => {
                    w.put_u8(1);
                    put_encoder(w, enc);
                }
            }
        }
    }

    /// Deserializes an ensemble written by
    /// [`QuantizedI8BoostHd::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated, corrupt, or
    /// wrong-kind blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let model = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return Err(persist_err("trailing bytes after model blob"));
        }
        Ok(model)
    }

    /// Full-blob decode body shared with the fleet store.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let version = check_header(r, KIND_QUANT_I8_BOOST)?;
        let dim_total = r.get_len()?;
        let voting = voting_from(r.get_u8()?)?;
        let num_classes = r.get_len()?;
        let encoder = get_encoder(r, version)?;
        let n_learners = r.get_len()?;
        let mut learners = Vec::with_capacity(n_learners.min(1 << 16));
        for _ in 0..n_learners {
            let alpha = r.get_f32()?;
            let seg_start = r.get_len()?;
            let seg_end = r.get_len()?;
            let classes = get_i8_rows(r)?;
            let own_encoder = match r.get_u8()? {
                0 => None,
                1 => Some(get_encoder(r, version)?),
                other => return Err(persist_err(format!("unknown encoder tag {other}"))),
            };
            learners.push(QuantizedI8WeakLearner {
                classes,
                alpha,
                seg_start,
                seg_end,
                own_encoder,
            });
        }
        Self::from_parts(encoder, learners, num_classes, voting, dim_total)
    }

    /// Writes the ensemble to a file (atomically: temp sibling + fsync +
    /// rename, so a crash mid-save never leaves a torn file at `path`).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] wrapping any I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| persist_err(e.to_string()))
    }

    /// Reads an ensemble written by [`QuantizedI8BoostHd::save`].
    ///
    /// # Errors
    ///
    /// As [`QuantizedI8BoostHd::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| persist_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
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

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f32(-1.5);
        w.put_f64(std::f64::consts::PI);
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
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
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_matrix().unwrap(), m);
    }

    #[test]
    fn truncated_read_fails_cleanly() {
        let mut w = Writer::new();
        w.put_u64(10);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
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
        let restored = OnlineHd::from_bytes(&model.to_bytes()).unwrap();
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
        let restored = BoostHd::from_bytes(&model.to_bytes()).unwrap();
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
        let path = dir.join("model.bhd");
        model.save(&path).unwrap();
        let restored = BoostHd::load(&path).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_onlinehd_round_trips() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let restored = QuantizedHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(quantized.class_bits(), restored.class_bits());
    }

    #[test]
    fn quantized_boosthd_round_trips() {
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize();
        let restored = QuantizedBoostHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.predict_batch(&x), restored.predict_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.voting(), restored.voting());
        assert_eq!(quantized.dim_total(), restored.dim_total());
    }

    #[test]
    fn quantized_blob_kinds_are_disjoint_from_f32_kinds() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let quantized = model.quantize();
        assert!(OnlineHd::from_bytes(&quantized.to_bytes()).is_err());
        assert!(QuantizedHd::from_bytes(&model.to_bytes()).is_err());
    }

    #[test]
    fn truncated_quantized_blob_is_rejected() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let bytes = quantized.to_bytes();
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(QuantizedHd::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn v1_header_is_rejected_for_quantized_kinds() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize();
        let mut bytes = quantized.to_bytes();
        bytes[4] = 1; // version byte: pretend this is a v1 blob
        let err = QuantizedHd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 2"), "{err}");
    }

    #[test]
    fn v1_dense_blobs_remain_readable() {
        // The writer emits the same payload layout for kinds 1–2 as v1 did
        // (a stored encoder serializes byte-identically); a blob re-stamped
        // as v1 must still load.
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let mut bytes = model.to_bytes();
        assert_eq!(bytes[4], 4, "current writer stamps v4");
        bytes[4] = 1;
        let restored = OnlineHd::from_bytes(&bytes).unwrap();
        assert_eq!(model.predict_batch(&x), restored.predict_batch(&x));
    }

    #[test]
    fn quantized_i8_onlinehd_round_trips_bit_identically() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let restored = QuantizedI8Hd::from_bytes(&quantized.to_bytes()).unwrap();
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
        let (x, y) = toy();
        let config = BoostHdConfig {
            dim_total: 120,
            n_learners: 6,
            epochs: 3,
            ..Default::default()
        };
        let quantized = BoostHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let restored = QuantizedI8BoostHd::from_bytes(&quantized.to_bytes()).unwrap();
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
        assert_eq!(quantized.alphas(), restored.alphas());
        assert_eq!(quantized.voting(), restored.voting());
        assert_eq!(quantized.dim_total(), restored.dim_total());
    }

    #[test]
    fn i8_kinds_require_v4() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let mut bytes = quantized.to_bytes();
        bytes[4] = 3; // pretend the blob predates the int8 kinds
        let err = QuantizedI8Hd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 4"), "{err}");
        // And the kinds stay disjoint from the packed tier.
        assert!(QuantizedHd::from_bytes(&quantized.to_bytes()).is_err());
    }

    #[test]
    fn truncated_i8_blob_is_rejected() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let bytes = quantized.to_bytes();
        for cut in (0..bytes.len()).step_by(bytes.len() / 7 + 1) {
            assert!(QuantizedI8Hd::from_bytes(&bytes[..cut]).is_err());
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(QuantizedI8Hd::from_bytes(&trailing).is_err());
    }

    #[test]
    fn remat_encoder_round_trips_as_recipe() {
        use hdc::encoder::{Encode, SinusoidEncoder};
        // A rematerialized encoder persists as a ~32-byte recipe instead of
        // the D×F projection, and reloads to bit-identical encodings.
        let enc = SinusoidEncoder::try_new_remat(128, 6, 77).unwrap();
        let mut rng = Rng64::seed_from(3);
        let probe = Matrix::random_normal(5, 6, &mut rng);
        let mut w = Writer::new();
        super::put_encoder(&mut w, &enc);
        let bytes = w.into_bytes();
        assert!(
            bytes.len() < 64,
            "remat recipe should be tiny, got {} bytes",
            bytes.len()
        );
        let mut r = Reader::new(&bytes);
        let restored = super::get_encoder(&mut r, VERSION).unwrap();
        assert!(restored.is_rematerialized());
        assert_eq!(enc.encode_batch(&probe), restored.encode_batch(&probe));
        // Pre-v4 readers must reject the sentinel loudly.
        let mut r = Reader::new(&bytes);
        let err = super::get_encoder(&mut r, 3).unwrap_err();
        assert!(err.to_string().contains("requires blob version 4"), "{err}");
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
        let quantized = model.quantize_i8();
        let stored_bytes = OnlineHd::fit(&config, &x, &y)
            .unwrap()
            .quantize_i8()
            .to_bytes();
        let remat_bytes = quantized.to_bytes();
        assert!(
            remat_bytes.len() * 2 < stored_bytes.len(),
            "remat blob ({}) should be far smaller than stored ({})",
            remat_bytes.len(),
            stored_bytes.len()
        );
        let restored = QuantizedI8Hd::from_bytes(&remat_bytes).unwrap();
        assert_eq!(quantized.scores_batch(&x), restored.scores_batch(&x));
    }

    #[test]
    fn centroid_round_trip_preserves_predictions() {
        let (x, y) = toy();
        let config = crate::CentroidHdConfig {
            dim: 96,
            ..Default::default()
        };
        let model = crate::CentroidHd::fit(&config, &x, &y).unwrap();
        let restored = crate::CentroidHd::from_bytes(&model.to_bytes()).unwrap();
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
        let model = crate::CentroidHd::fit(&config, &x, &y).unwrap();
        let mut bytes = model.to_bytes();
        assert!(OnlineHd::from_bytes(&bytes).is_err(), "kind is disjoint");
        bytes[4] = 2; // pretend the blob predates the centroid kind
        let err = crate::CentroidHd::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("requires blob version 3"), "{err}");
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let (x, y) = toy();
        let online = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        assert!(BoostHd::from_bytes(&online.to_bytes()).is_err());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let mut bytes = model.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(OnlineHd::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let bytes = model.to_bytes();
        assert!(OnlineHd::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_length_prefixes_fail_fast_without_allocation() {
        // A length prefix claiming ~2^61 elements must produce a
        // descriptive error before any allocation is attempted — not an
        // abort on a multi-gigabyte reserve.
        let mut w = Writer::new();
        w.put_u64(1 << 61);
        let bytes = w.into_bytes();
        let rejected = |msg: String| msg.contains("but only") || msg.contains("overflows");
        let err = Reader::new(&bytes).get_f32_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        let err = Reader::new(&bytes).get_u64_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        let err = Reader::new(&bytes).get_i8_vec().unwrap_err();
        assert!(rejected(err.to_string()), "{err}");
        // Matrix shapes whose element count overflows are rejected too.
        let mut w = Writer::new();
        w.put_u64(u64::MAX / 2);
        w.put_u64(16);
        let err = Reader::new(&w.into_bytes()).get_matrix().unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn heap_mode_primitives_round_trip_with_zero_copy_views() {
        let mut rng = Rng64::seed_from(9);
        let m = Matrix::random_normal(4, 6, &mut rng);
        // dim = 128 → two words per row, no padding bits to invalidate.
        let packed = PackedMatrix::from_parts(vec![1, 2, 3, u64::MAX], 2, 128).unwrap();
        let mut w = Writer::new_with_heap();
        w.put_u8(7);
        w.put_f32_slice(&[1.5, -2.5, 3.5]);
        w.put_i8_slice(&[-3, 0, 5]);
        w.put_u64_slice(&[10, 20]);
        w.put_matrix(&m);
        w.put_packed_matrix(&packed);
        let (body, encoders) = w.into_parts();
        assert!(encoders.is_empty());
        assert_eq!(body.heap.len() % 8, 0, "heap must be 8-padded");
        let blob = Arc::new(Blob::from_bytes(&body.heap));
        let mut r = Reader::new_shared(&body.structure, blob, 0, body.heap.len(), &[]).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.5, -2.5, 3.5]);
        assert_eq!(r.get_i8_vec().unwrap(), vec![-3, 0, 5]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![10, 20]);
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
        let mut w = Writer::new_with_heap();
        model.encode_into(&mut w);
        let (body, encoders) = w.into_parts();
        // The projection travels outside the body, referenced by index.
        assert_eq!(encoders.len(), 1);
        assert!(body.heap.len() < 96 * 4 * 4, "body heap holds a projection");
        let encoders = shared_encoders(&encoders);
        let blob = Arc::new(Blob::from_bytes(&body.heap));
        let mut r =
            Reader::new_shared(&body.structure, blob, 0, body.heap.len(), &encoders).unwrap();
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
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 32,
            epochs: 2,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let mut w = Writer::new_with_heap();
        model.encode_into(&mut w);
        let (body, _) = w.into_parts();
        let blob = Arc::new(Blob::from_bytes(&body.heap));
        let mut r = Reader::new_shared(&body.structure, blob, 0, body.heap.len(), &[]).unwrap();
        let err = OnlineHd::decode_from(&mut r).unwrap_err().to_string();
        assert!(err.contains("encoder reference 0"), "{err}");
    }

    /// Decodes each encoder body zero-copy out of its own blob, as the
    /// fleet store does with encoder records.
    fn shared_encoders(parts: &[RecordParts]) -> Vec<SinusoidEncoder> {
        parts
            .iter()
            .map(|p| {
                let blob = Arc::new(Blob::from_bytes(&p.heap));
                encoder_from_parts(&p.structure, blob, 0, p.heap.len()).unwrap()
            })
            .collect()
    }

    #[test]
    fn heap_mode_i8_round_trip_is_bit_identical_and_zero_copy() {
        let (x, y) = toy();
        let config = OnlineHdConfig {
            dim: 96,
            epochs: 4,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap().quantize_i8();
        let mut w = Writer::new_with_heap();
        model.encode_into(&mut w);
        let (body, encoders) = w.into_parts();
        let encoders = shared_encoders(&encoders);
        let blob = Arc::new(Blob::from_bytes(&body.heap));
        let mut r =
            Reader::new_shared(&body.structure, blob, 0, body.heap.len(), &encoders).unwrap();
        let restored = QuantizedI8Hd::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(model.scores_batch(&x), restored.scores_batch(&x));
        assert!(
            restored.classes().is_shared(),
            "int8 class grid must borrow the blob"
        );
    }

    #[test]
    fn atomic_save_replaces_existing_file_and_cleans_temp() {
        let dir = std::env::temp_dir().join("boosthd_atomic_save_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bhd");
        std::fs::write(&path, b"garbage that must be replaced").unwrap();
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        model.save(&path).unwrap();
        let restored = OnlineHd::load(&path).unwrap();
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
        let (x, y) = toy();
        let model = OnlineHd::fit(
            &OnlineHdConfig {
                dim: 32,
                epochs: 2,
                ..Default::default()
            },
            &x,
            &y,
        )
        .unwrap();
        let mut bytes = model.to_bytes();
        bytes.push(0);
        assert!(OnlineHd::from_bytes(&bytes).is_err());
    }
}
