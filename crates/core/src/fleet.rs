//! Model fleet: an append-only on-disk model store plus an in-memory
//! registry that serves many models from one process with bounded
//! residency and atomic hot-swap.
//!
//! # The BHFS store file
//!
//! A store file is a flat sequence of 8-byte-aligned, self-delimiting,
//! checksummed records followed by a footer index, so it can be read
//! zero-copy and recovered after a torn write. Records come in two
//! kinds. An **encoder record** holds one stored encoder's `F × D`
//! transposed projection and its phase vector. A **model record** holds
//! one pipeline's spec and class memory plus a *reference* (the file
//! offset) to each encoder record it is built on. Models that share an
//! encoder — one fit published under many ids, or the tiers of one
//! degrade ladder — share one encoder record on disk and one projection
//! allocation in memory.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header: "BHFS" magic (u32 LE) | version u8 (4) | 3 pad bytes |  8 B
//! +--------------------------------------------------------------+
//! | record 0  (8-aligned)                                        |
//! |   "FREC" magic u32 | kind u32 (0 = model, 1 = encoder)       |
//! |   total_len u64   -- 48-byte header + padded meta + heap     |
//! |   meta_len u64    -- unpadded meta byte count                |
//! |   heap_len u64    -- payload heap byte count (multiple of 8) |
//! |   meta_checksum u64 (FNV-1a 64 over meta bytes)              |
//! |   heap_checksum u64 (FNV-1a 64 over heap bytes)              |
//! |   meta bytes, zero-padded to the next 8-byte boundary:       |
//! |     model:   model_id (u64 len + UTF-8 bytes), version u64,  |
//! |              encoder refs (u64 count + u64 record offsets),  |
//! |              structure stream (u64 len + bytes)              |
//! |     encoder: structure stream (shape + heap offsets)         |
//! |   payload heap bytes (starts 8-aligned within the record):   |
//! |     model:   class memory                                    |
//! |     encoder: transposed projection, then phase vector        |
//! +--------------------------------------------------------------+
//! | record 1 ... record N-1 (each starts where the last ends)    |
//! +--------------------------------------------------------------+
//! | footer index: one tagged entry per record, in file order:    |
//! |   model:   tag u64 (0) | id_len u64 | id bytes | version u64 |
//! |            | offset u64 | total_len u64                      |
//! |   encoder: tag u64 (1) | offset u64 | total_len u64          |
//! |            | fingerprint u64                                 |
//! | trailer (last 48 bytes of the file):                         |
//! |   index_off u64 | index_len u64 | index_checksum u64         |
//! |   | model_count u64 | encoder_count u64                      |
//! |   | "BHFSIDX\0" magic u64                                    |
//! +--------------------------------------------------------------+
//! ```
//!
//! **Version invariant.** This is format version 4: each model record's
//! structure stream is the current BHD1 model grammar ([`crate::persist`]),
//! with a precision tag in front of every class memory, and the footer
//! index is append-ordered and tagged. [`ModelStore::open`] reads version
//! 4 only and rejects any other with a message asking for the store to be
//! rebuilt.
//!
//! **Alignment invariant.** Every record starts on an 8-byte boundary
//! and its payload heap starts on an 8-byte boundary *within* the
//! record. A record read into a [`Blob`] (itself 8-aligned) therefore
//! keeps every `f32`/`u64`/`i8` payload naturally aligned, and the
//! decoder can hand out borrowed slices of the blob instead of
//! deserializing — loading a model performs no per-array copies.
//!
//! **Checksum invariant.** `meta_checksum`/`heap_checksum` are FNV-1a
//! 64 over the exact stored bytes. A model record is verified on every
//! admission; an encoder record when it is first read into memory. A
//! flipped bit on disk surfaces as a descriptive error rather than a
//! corrupt model — for an encoder record, on every model built on it.
//!
//! **Index invariant.** The footer index lists every record in file
//! order, so it is byte for byte the index a scan of the records builds.
//! An open store keeps the index bytes and the running FNV-1a state over
//! them, built once when it opens (from the footer, or from the scan);
//! each append extends both by its own records only, so a publish never
//! re-serializes or re-hashes the entries before it. The footer's bytes
//! are still rewritten on every publish.
//!
//! **Sharing invariant.** [`ModelStore::append`] writes an encoder
//! record only for an encoder no earlier record holds. Two encoders are
//! the same only when their shape, projection bytes, and phase bytes are
//! equal: a sampled fingerprint picks candidates and a full byte
//! comparison confirms them. Both read the live encoder, so an append
//! serializes only the encoders it writes. Loads decode every model built
//! on one encoder record out of one cached blob (held while any loaded
//! model uses it), so their projections are one allocation; the
//! copy-on-write storage in [`linalg::share`] keeps a mutation, such as
//! fault injection, local to the model that makes it.
//!
//! **Durability invariant.** [`ModelStore::append`] seeks to the end of
//! the record region (overwriting the previous footer), writes the new
//! encoder records and then the model records that reference them, and
//! `fsync`s. That one `fsync` is the commit point: once it returns, the
//! publish survives any crash. The append then writes the new footer
//! behind the records without an `fsync` of its own (trimming the file
//! only when it would shrink), so the footer reaches the disk only after
//! the records it indexes. A crash or power cut at any point leaves the
//! old footer intact, a missing or torn footer, or a stale trailer at the
//! end of the file whose index bytes the new records overwrote. The last
//! two fail the trailer's magic, geometry or index checksum, and
//! [`ModelStore::open`] falls back to scanning the self-delimiting
//! records from the top and keeps exactly the checksum-valid prefix,
//! ending it early at any model record whose encoder record is not in
//! that prefix. A power cut between the commit and writeback of the
//! footer therefore costs the next open one full scan and loses no
//! publish `append` returned. A store is never loadable-but-corrupt.
//!
//! # The registry
//!
//! [`Fleet`] keys models by `(model_id, version)`. All records sharing
//! one key form a degrade ladder (append order = tier order, most
//! precise first) and are admitted, swapped, and evicted as a single
//! [`FleetModel`] unit. Requests take an [`Arc`] snapshot, so an
//! in-flight request keeps its model (and the blob behind it) alive
//! across hot-swap and LRU eviction; a swapped-out version is tracked
//! until the last snapshot drops ([`Fleet::draining_count`]).

use crate::error::{BoostHdError, Result};
use crate::persist::{encoder_from_parts, EncoderBody, RecordParts};
use crate::pipeline::Pipeline;
use hdc::encoder::SinusoidEncoder;
use linalg::Blob;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

const STORE_MAGIC: u32 = u32::from_le_bytes(*b"BHFS");
const STORE_VERSION: u8 = 4;
const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"FREC");
/// Record kind (and footer index tag) of a published model tier.
const KIND_MODEL: u32 = 0;
/// Record kind (and footer index tag) of a stored encoder that model
/// records reference.
const KIND_ENCODER: u32 = 1;
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"BHFSIDX\0");
const HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: u64 = 48;
const TRAILER_LEN: u64 = 48;
/// Per-record ceiling; rejects absurd length fields before allocating.
const MAX_RECORD_LEN: u64 = 1 << 40;
/// Heap words an encoder fingerprint samples.
const FINGERPRINT_SAMPLES: usize = 64;
/// FNV-1a 64 offset basis: the hash state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn store_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

fn io_err(what: &str, e: std::io::Error) -> BoostHdError {
    store_err(format!("fleet store {what}: {e}"))
}

/// Prefixes `e`'s reason with `what`.
fn with_context(what: &str, e: BoostHdError) -> BoostHdError {
    let reason = match e {
        BoostHdError::DataMismatch { reason } => reason,
        other => other.to_string(),
    };
    store_err(format!("{what}: {reason}"))
}

/// FNV-1a 64-bit; the store's per-record and footer checksum.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash whose state is `hash` over `bytes`, so a
/// hash over a growing buffer costs only its new bytes.
fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Dedup candidate filter for encoder records: FNV-1a over the encoder's
/// structure stream, its heap length, and [`FINGERPRINT_SAMPLES`] heap
/// words at an even stride, `word(w)` giving the heap's `w`-th 8 bytes.
/// Equal encoders always share a fingerprint; a shared fingerprint only
/// nominates a candidate, which a full byte comparison must confirm.
/// Costs the same for any encoder size.
fn encoder_fingerprint(structure: &[u8], heap_len: usize, word: impl Fn(usize) -> [u8; 8]) -> u64 {
    let words = heap_len / 8;
    let samples = FINGERPRINT_SAMPLES.min(words);
    let mut hash = fnv1a64_extend(FNV_OFFSET, structure);
    hash = fnv1a64_extend(hash, &(heap_len as u64).to_le_bytes());
    for i in 0..samples {
        hash = fnv1a64_extend(hash, &word(i * words / samples));
    }
    hash
}

/// [`encoder_fingerprint`] of a stored encoder record's meta and heap.
fn record_fingerprint(structure: &[u8], heap: &[u8]) -> u64 {
    encoder_fingerprint(structure, heap.len(), |w| {
        heap[w * 8..w * 8 + 8].try_into().expect("8-byte word")
    })
}

/// [`encoder_fingerprint`] of a live encoder, without serializing it.
fn body_fingerprint(body: &EncoderBody<'_>) -> u64 {
    encoder_fingerprint(body.structure(), body.heap_len(), |w| body.heap_word(w))
}

fn align8(n: u64) -> u64 {
    (n + 7) & !7
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian u64 read out of a byte slice.
fn read_u64(bytes: &[u8], off: usize, what: &str) -> Result<u64> {
    let end = off
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| store_err(format!("fleet store truncated while reading {what}")))?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[off..end]);
    Ok(u64::from_le_bytes(raw))
}

/// One model record's location in the store, as listed by the footer
/// index (or recovered by the torn-tail scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Logical model name this record belongs to.
    pub model_id: String,
    /// Version the record was published under.
    pub version: u64,
    /// Byte offset of the record header within the store file.
    pub offset: u64,
    /// Record length in bytes (header + padded meta + heap).
    pub total_len: u64,
}

/// One encoder record's location, its dedup fingerprint, and the load
/// cache for its blob.
#[derive(Debug)]
struct EncoderEntry {
    offset: u64,
    total_len: u64,
    fingerprint: u64,
    /// The checksum-verified record blob, while any loaded model still
    /// borrows its projection.
    blob: Weak<Blob>,
}

/// Append-only on-disk model store (`.bhfs`). See the module docs for
/// the record format and its alignment/checksum/index/durability
/// invariants.
pub struct ModelStore {
    path: PathBuf,
    file: Mutex<File>,
    state: Mutex<StoreState>,
}

struct StoreState {
    /// Model records, in append (= tier) order.
    entries: Vec<StoreEntry>,
    /// Positions in `entries` of each model id's records, in append order.
    by_id: HashMap<String, Vec<usize>>,
    /// Encoder records, in file (= ascending offset) order.
    encoders: Vec<EncoderEntry>,
    /// Byte offset one past the last record; the footer starts here.
    record_end: u64,
    /// The footer index over every record above, in file order.
    index: Vec<u8>,
    /// FNV-1a state over `index`: its checksum, extended per append.
    index_hash: u64,
    /// Store file length as this store last left it.
    file_len: u64,
}

/// Where a [`StoreState`] stood before an append, so a failed append
/// can be undone.
#[derive(Debug, Clone, Copy)]
struct StateMark {
    entries: usize,
    encoders: usize,
    record_end: u64,
    index_len: usize,
    index_hash: u64,
}

impl StoreState {
    /// A state with no records, for a file `file_len` bytes long.
    fn new(file_len: u64) -> Self {
        StoreState {
            entries: Vec::new(),
            by_id: HashMap::new(),
            encoders: Vec::new(),
            record_end: HEADER_LEN,
            index: Vec::new(),
            index_hash: FNV_OFFSET,
            file_len,
        }
    }

    /// Lists the model record `entry`, which must start at `record_end`.
    fn push_model(&mut self, entry: StoreEntry) {
        debug_assert_eq!(entry.offset, self.record_end, "records are contiguous");
        let start = self.index.len();
        push_u64(&mut self.index, KIND_MODEL as u64);
        push_u64(&mut self.index, entry.model_id.len() as u64);
        self.index.extend_from_slice(entry.model_id.as_bytes());
        for v in [entry.version, entry.offset, entry.total_len] {
            push_u64(&mut self.index, v);
        }
        self.index_hash = fnv1a64_extend(self.index_hash, &self.index[start..]);
        self.record_end = entry.offset + entry.total_len;
        self.by_id
            .entry(entry.model_id.clone())
            .or_default()
            .push(self.entries.len());
        self.entries.push(entry);
    }

    /// Lists the encoder record `entry`, which must start at `record_end`.
    fn push_encoder(&mut self, entry: EncoderEntry) {
        debug_assert_eq!(entry.offset, self.record_end, "records are contiguous");
        let start = self.index.len();
        for v in [
            KIND_ENCODER as u64,
            entry.offset,
            entry.total_len,
            entry.fingerprint,
        ] {
            push_u64(&mut self.index, v);
        }
        self.index_hash = fnv1a64_extend(self.index_hash, &self.index[start..]);
        self.record_end = entry.offset + entry.total_len;
        self.encoders.push(entry);
    }

    fn mark(&self) -> StateMark {
        StateMark {
            entries: self.entries.len(),
            encoders: self.encoders.len(),
            record_end: self.record_end,
            index_len: self.index.len(),
            index_hash: self.index_hash,
        }
    }

    /// Forgets every record listed since `mark`.
    fn rollback(&mut self, mark: StateMark) {
        for entry in self.entries.drain(mark.entries..) {
            if let Some(ix) = self.by_id.get_mut(&entry.model_id) {
                ix.pop();
                if ix.is_empty() {
                    self.by_id.remove(&entry.model_id);
                }
            }
        }
        self.encoders.truncate(mark.encoders);
        self.record_end = mark.record_end;
        self.index.truncate(mark.index_len);
        self.index_hash = mark.index_hash;
    }

    /// The footer trailer for the current index.
    fn trailer(&self) -> Vec<u8> {
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        for v in [
            self.record_end,
            self.index.len() as u64,
            self.index_hash,
            self.entries.len() as u64,
            self.encoders.len() as u64,
            FOOTER_MAGIC,
        ] {
            push_u64(&mut trailer, v);
        }
        trailer
    }

    /// `model_id`'s records, in append order.
    fn model_entries<'a>(&'a self, model_id: &str) -> impl Iterator<Item = &'a StoreEntry> {
        self.by_id
            .get(model_id)
            .into_iter()
            .flatten()
            .map(|&i| &self.entries[i])
    }

    fn encoder_mut(&mut self, offset: u64) -> Option<&mut EncoderEntry> {
        let i = self
            .encoders
            .binary_search_by_key(&offset, |e| e.offset)
            .ok()?;
        Some(&mut self.encoders[i])
    }
}

impl ModelStore {
    /// Creates an empty store at `path`, truncating any existing file,
    /// and publishes an empty footer so the file is immediately valid.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&STORE_MAGIC.to_le_bytes());
        header.push(STORE_VERSION);
        header.extend_from_slice(&[0u8; 3]);
        file.write_all(&header).map_err(|e| io_err("write", e))?;
        let mut state = StoreState::new(HEADER_LEN);
        write_footer(&mut file, &mut state)?;
        file.sync_all().map_err(|e| io_err("fsync", e))?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            state: Mutex::new(state),
        })
    }

    /// Opens an existing store. Reads the footer index when its trailer
    /// validates; otherwise recovers by scanning the self-delimiting
    /// records and keeping the checksum-valid prefix.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        if file_len < HEADER_LEN {
            return Err(store_err(format!(
                "fleet store is {file_len} bytes, smaller than its {HEADER_LEN}-byte header"
            )));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", e))?;
        file.read_exact(&mut header)
            .map_err(|e| io_err("read", e))?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic != STORE_MAGIC {
            return Err(store_err("not a BHFS fleet store (bad magic)"));
        }
        match header[4] {
            STORE_VERSION => {}
            old if old < STORE_VERSION => {
                return Err(store_err(format!(
                    "fleet store version {old} predates this build's store format; \
                     this build reads version {STORE_VERSION} only: rebuild the store by \
                     publishing its models again"
                )))
            }
            new => {
                return Err(store_err(format!(
                    "fleet store version {new} is newer than this build supports ({STORE_VERSION})"
                )))
            }
        }
        let state = match read_footer(&mut file, file_len) {
            Ok(state) => state,
            Err(_) => recover_by_scan(&mut file, file_len)?,
        };
        Ok(Self {
            path,
            file: Mutex::new(file),
            state: Mutex::new(state),
        })
    }

    /// Path the store was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Snapshot of the model-record index, in append (= tier) order.
    /// Encoder records are not listed.
    pub fn entries(&self) -> Vec<StoreEntry> {
        self.state.lock().unwrap().entries.clone()
    }

    /// Distinct versions published for `model_id`, ascending.
    pub fn versions(&self, model_id: &str) -> Vec<u64> {
        let st = self.state.lock().unwrap();
        let mut versions: Vec<u64> = st.model_entries(model_id).map(|e| e.version).collect();
        versions.sort_unstable();
        versions.dedup();
        versions
    }

    /// Highest version published for `model_id`, if any.
    pub fn latest_version(&self, model_id: &str) -> Option<u64> {
        let st = self.state.lock().unwrap();
        st.model_entries(model_id).map(|e| e.version).max()
    }

    /// Appends one published model — all its degrade-ladder tiers, most
    /// precise first — under `(model_id, version)` and republishes the
    /// footer, so the tiers become visible as one unit. Each stored
    /// encoder the tiers use is written as an encoder record only if no
    /// earlier record holds the same encoder; the model records reference
    /// it either way.
    ///
    /// Durability: the record bytes are written and `fsync`ed; that
    /// `fsync` commits the publish. The footer that names them is written
    /// after it without a second `fsync`: a crash before it reaches the
    /// disk costs the next [`ModelStore::open`] a scan of the records,
    /// which recovers every committed publish and never a torn record.
    pub fn append(&self, model_id: &str, version: u64, tiers: &[&Pipeline]) -> Result<()> {
        if tiers.is_empty() {
            return Err(store_err("refusing to publish a model with zero tiers"));
        }
        if model_id.is_empty() {
            return Err(store_err("model_id must be non-empty"));
        }
        // Encode every tier before touching the file.
        let parts = tiers
            .iter()
            .map(|tier| tier.encode_store_parts())
            .collect::<Result<Vec<_>>>()?;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("open for append", e))?;
        let mut st = self.state.lock().unwrap();
        let mark = st.mark();
        if let Err(e) = append_locked(&mut st, &mut file, model_id, version, &parts) {
            // Its records may have reached the file before the error.
            st.file_len = st.file_len.max(st.record_end);
            st.rollback(mark);
            return Err(e);
        }
        // Committed. The footer only caches the index the records already
        // hold, so failing to write it costs the next open a scan, not
        // this publish.
        let _ = write_footer(&mut file, &mut st);
        // Refresh the shared read handle: the old one is still valid
        // (records never move), but keeping it in sync keeps recovery
        // reasoning simple.
        *self.file.lock().unwrap() = file;
        Ok(())
    }

    /// Loads every tier published under `(model_id, version)` as one
    /// [`FleetModel`]. Each record is read into its own [`Blob`] and
    /// decoded zero-copy; both checksums are verified first.
    pub fn load(&self, model_id: &str, version: u64) -> Result<FleetModel> {
        let entries: Vec<StoreEntry> = self
            .state
            .lock()
            .unwrap()
            .model_entries(model_id)
            .filter(|e| e.version == version)
            .cloned()
            .collect();
        if entries.is_empty() {
            return Err(store_err(format!(
                "model '{model_id}' version {version} is not in the store"
            )));
        }
        let mut tiers = Vec::with_capacity(entries.len());
        for entry in &entries {
            tiers.push(Arc::new(self.load_record(entry)?));
        }
        Ok(FleetModel {
            model_id: model_id.to_string(),
            version,
            tiers,
        })
    }

    /// Loads the latest published version of `model_id`.
    pub fn load_latest(&self, model_id: &str) -> Result<FleetModel> {
        let version = self
            .latest_version(model_id)
            .ok_or_else(|| store_err(format!("model '{model_id}' is not in the store")))?;
        self.load(model_id, version)
    }

    /// Reads one model record into a fresh blob and decodes it zero-copy,
    /// with its encoders shared out of their encoder records' blobs.
    pub fn load_record(&self, entry: &StoreEntry) -> Result<Pipeline> {
        let blob = Arc::new(self.read_blob(entry.offset, entry.total_len)?);
        let bytes = blob.as_bytes();
        let layout = verify_record(bytes, entry.total_len)?;
        if layout.kind != KIND_MODEL {
            return Err(store_err(format!(
                "record at offset {} is not a model record",
                entry.offset
            )));
        }
        let meta = parse_model_meta(&bytes[layout.meta.clone()])?;
        let encoders = meta
            .encoder_refs
            .iter()
            .map(|&offset| self.shared_encoder(offset))
            .collect::<Result<Vec<_>>>()
            .map_err(|e| {
                with_context(
                    &format!("model '{}' version {}", entry.model_id, entry.version),
                    e,
                )
            })?;
        let structure = &bytes
            [layout.meta.start + meta.structure.start..layout.meta.start + meta.structure.end];
        Pipeline::decode_store_parts(
            structure,
            Arc::clone(&blob),
            layout.heap.start,
            layout.heap.len(),
            &encoders,
        )
    }

    /// Decodes the encoder record at `offset` zero-copy out of its cached
    /// blob, reading and verifying the record only when no loaded model
    /// holds that blob any more.
    fn shared_encoder(&self, offset: u64) -> Result<SinusoidEncoder> {
        let (total_len, cached) = {
            let mut st = self.state.lock().unwrap();
            let entry = st.encoder_mut(offset).ok_or_else(|| {
                store_err(format!(
                    "encoder record at offset {offset} is not in the store"
                ))
            })?;
            (entry.total_len, entry.blob.upgrade())
        };
        let blob = match cached {
            Some(blob) => blob,
            None => {
                let context = format!("shared encoder record at offset {offset}");
                let blob = Arc::new(
                    self.read_blob(offset, total_len)
                        .map_err(|e| with_context(&context, e))?,
                );
                let layout = verify_record(blob.as_bytes(), total_len)
                    .map_err(|e| with_context(&context, e))?;
                if layout.kind != KIND_ENCODER {
                    return Err(store_err(format!("{context} is not an encoder record")));
                }
                // Publish the blob unless a concurrent load beat us to it,
                // so every model shares one projection allocation.
                let mut st = self.state.lock().unwrap();
                match st.encoder_mut(offset) {
                    Some(entry) => match entry.blob.upgrade() {
                        Some(won) => won,
                        None => {
                            entry.blob = Arc::downgrade(&blob);
                            blob
                        }
                    },
                    None => blob,
                }
            }
        };
        let layout = record_layout(blob.as_bytes(), total_len)?;
        let structure = &blob.as_bytes()[layout.meta.clone()];
        encoder_from_parts(
            structure,
            Arc::clone(&blob),
            layout.heap.start,
            layout.heap.len(),
        )
    }

    /// Reads `total_len` bytes at `offset` into a fresh 8-aligned blob.
    fn read_blob(&self, offset: u64, total_len: u64) -> Result<Blob> {
        if total_len > MAX_RECORD_LEN {
            return Err(store_err(format!(
                "record claims {total_len} bytes, above the {MAX_RECORD_LEN}-byte ceiling"
            )));
        }
        let raw = read_at(&mut self.file.lock().unwrap(), offset, total_len)?;
        Ok(Blob::from_bytes(&raw))
    }
}

/// Writes one append's records and `fsync`s them — the commit point —
/// listing the new records in `st` (the caller rolls them back on
/// error). Writes no footer.
fn append_locked(
    st: &mut StoreState,
    file: &mut File,
    model_id: &str,
    version: u64,
    parts: &[(RecordParts, Vec<SinusoidEncoder>)],
) -> Result<()> {
    let start = st.record_end;
    let stored_encoders = st.encoders.len();
    let mut records: Vec<Vec<u8>> = Vec::new();
    // Encoder records this append writes, for the tiers that share them:
    // offset, fingerprint, and position in `records`.
    let mut written: Vec<(u64, u64, usize)> = Vec::new();
    for (body, encoders) in parts {
        let mut encoder_refs = Vec::with_capacity(encoders.len());
        for encoder in encoders {
            let live = EncoderBody::new(encoder);
            let fingerprint = body_fingerprint(&live);
            let known = match written
                .iter()
                .find(|&&(_, fp, i)| fp == fingerprint && record_holds(&records[i], &live))
            {
                Some(&(at, _, _)) => Some(at),
                None => find_encoder(file, &st.encoders[..stored_encoders], fingerprint, &live)?,
            };
            let at = match known {
                Some(at) => at,
                None => {
                    // Serialize only the encoders this append writes.
                    let serialized = live.to_parts();
                    let record =
                        encode_record(KIND_ENCODER, &serialized.structure, &serialized.heap);
                    let at = st.record_end;
                    st.push_encoder(EncoderEntry {
                        offset: at,
                        total_len: record.len() as u64,
                        fingerprint,
                        blob: Weak::new(),
                    });
                    written.push((at, fingerprint, records.len()));
                    records.push(record);
                    at
                }
            };
            encoder_refs.push(at);
        }
        let meta = model_meta(model_id, version, &encoder_refs, &body.structure);
        let record = encode_record(KIND_MODEL, &meta, &body.heap);
        st.push_model(StoreEntry {
            model_id: model_id.to_string(),
            version,
            offset: st.record_end,
            total_len: record.len() as u64,
        });
        records.push(record);
    }
    file.seek(SeekFrom::Start(start))
        .map_err(|e| io_err("seek", e))?;
    for record in &records {
        file.write_all(record).map_err(|e| io_err("write", e))?;
    }
    file.sync_all().map_err(|e| io_err("fsync", e))
}

/// The first of `stored` whose record holds exactly `encoder`'s bytes.
/// Only fingerprint matches are compared, against the cached blob when a
/// loaded model holds one and the file otherwise.
fn find_encoder(
    file: &mut File,
    stored: &[EncoderEntry],
    fingerprint: u64,
    encoder: &EncoderBody<'_>,
) -> Result<Option<u64>> {
    for candidate in stored.iter().filter(|e| e.fingerprint == fingerprint) {
        let same = match candidate.blob.upgrade() {
            Some(blob) => record_holds(blob.as_bytes(), encoder),
            None => record_holds(
                &read_at(file, candidate.offset, candidate.total_len)?,
                encoder,
            ),
        };
        if same {
            return Ok(Some(candidate.offset));
        }
    }
    Ok(None)
}

/// Whether an encoder record's meta and heap are byte for byte `encoder`.
fn record_holds(record: &[u8], encoder: &EncoderBody<'_>) -> bool {
    record_layout(record, record.len() as u64)
        .is_ok_and(|layout| encoder.matches(&record[layout.meta], &record[layout.heap]))
}

/// Reads `len` bytes at `offset`.
fn read_at(file: &mut File, offset: u64, len: u64) -> Result<Vec<u8>> {
    let mut raw = vec![0u8; len as usize];
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| io_err("seek", e))?;
    file.read_exact(&mut raw).map_err(|e| io_err("read", e))?;
    Ok(raw)
}

/// Model record meta: id, version, encoder record offsets, structure.
fn model_meta(model_id: &str, version: u64, encoder_refs: &[u64], structure: &[u8]) -> Vec<u8> {
    let mut meta =
        Vec::with_capacity(32 + model_id.len() + 8 * encoder_refs.len() + structure.len());
    push_u64(&mut meta, model_id.len() as u64);
    meta.extend_from_slice(model_id.as_bytes());
    push_u64(&mut meta, version);
    push_u64(&mut meta, encoder_refs.len() as u64);
    for &at in encoder_refs {
        push_u64(&mut meta, at);
    }
    push_u64(&mut meta, structure.len() as u64);
    meta.extend_from_slice(structure);
    meta
}

/// Serializes one record (header + padded meta + heap) to bytes.
/// Callers must place it at an 8-aligned file offset; `heap` is already
/// a multiple of 8 long, so the record ends 8-aligned too.
fn encode_record(kind: u32, meta: &[u8], heap: &[u8]) -> Vec<u8> {
    debug_assert_eq!(heap.len() % 8, 0, "payload heap must be 8-padded");
    let meta_len = meta.len() as u64;
    let heap_off = RECORD_HEADER_LEN + align8(meta_len);
    let total_len = heap_off + heap.len() as u64;

    let mut record = Vec::with_capacity(total_len as usize);
    record.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    record.extend_from_slice(&kind.to_le_bytes());
    push_u64(&mut record, total_len);
    push_u64(&mut record, meta_len);
    push_u64(&mut record, heap.len() as u64);
    push_u64(&mut record, fnv1a64(meta));
    push_u64(&mut record, fnv1a64(heap));
    record.extend_from_slice(meta);
    record.resize(heap_off as usize, 0);
    record.extend_from_slice(heap);
    record
}

/// A record's header fields: its kind, checksums, and the meta and heap
/// byte ranges within the record.
struct RecordLayout {
    kind: u32,
    meta: Range<usize>,
    heap: Range<usize>,
    meta_checksum: u64,
    heap_checksum: u64,
}

/// Parses the header of the record starting at `record[0]`, checking its
/// magic, kind, and length fields but not its checksums.
fn record_layout(record: &[u8], expect_total: u64) -> Result<RecordLayout> {
    if record.len() < RECORD_HEADER_LEN as usize {
        return Err(store_err("fleet store truncated inside a record header"));
    }
    let word = |at: usize| {
        u32::from_le_bytes([record[at], record[at + 1], record[at + 2], record[at + 3]])
    };
    if word(0) != RECORD_MAGIC {
        return Err(store_err("record magic mismatch"));
    }
    let kind = word(4);
    if kind != KIND_MODEL && kind != KIND_ENCODER {
        return Err(store_err(format!("unknown record kind {kind}")));
    }
    let total_len = read_u64(record, 8, "record total_len")?;
    let meta_len = read_u64(record, 16, "record meta_len")?;
    let heap_len = read_u64(record, 24, "record heap_len")?;
    if total_len != expect_total {
        return Err(store_err(format!(
            "record claims {total_len} bytes but the index lists {expect_total}"
        )));
    }
    if total_len > MAX_RECORD_LEN || meta_len > total_len || heap_len > total_len {
        return Err(store_err("record length fields are inconsistent"));
    }
    let heap_off = RECORD_HEADER_LEN + align8(meta_len);
    if heap_off + heap_len != total_len || heap_len % 8 != 0 {
        return Err(store_err(format!(
            "record layout mismatch: header {RECORD_HEADER_LEN} + padded meta {} + heap {heap_len} != total {total_len}",
            align8(meta_len)
        )));
    }
    if total_len > record.len() as u64 {
        return Err(store_err("record extends past the end of the store"));
    }
    let meta_start = RECORD_HEADER_LEN as usize;
    Ok(RecordLayout {
        kind,
        meta: meta_start..meta_start + meta_len as usize,
        heap: heap_off as usize..total_len as usize,
        meta_checksum: read_u64(record, 32, "record meta checksum")?,
        heap_checksum: read_u64(record, 40, "record heap checksum")?,
    })
}

/// [`record_layout`] plus both checksums.
fn verify_record(record: &[u8], expect_total: u64) -> Result<RecordLayout> {
    let layout = record_layout(record, expect_total)?;
    if fnv1a64(&record[layout.meta.clone()]) != layout.meta_checksum {
        return Err(store_err(
            "record meta checksum mismatch: store file is corrupt or torn",
        ));
    }
    if fnv1a64(&record[layout.heap.clone()]) != layout.heap_checksum {
        return Err(store_err(
            "record payload checksum mismatch: store file is corrupt or torn",
        ));
    }
    Ok(layout)
}

/// A model record's parsed meta; `structure` is relative to the meta.
struct ModelMeta {
    model_id: String,
    version: u64,
    encoder_refs: Vec<u64>,
    structure: Range<usize>,
}

fn parse_model_meta(meta: &[u8]) -> Result<ModelMeta> {
    let id_len = read_u64(meta, 0, "record model_id length")? as usize;
    let id_end = 8usize
        .checked_add(id_len)
        .filter(|&e| e <= meta.len().saturating_sub(24))
        .ok_or_else(|| store_err("record meta truncated inside model_id"))?;
    let model_id = std::str::from_utf8(&meta[8..id_end])
        .map_err(|_| store_err("record model_id is not valid UTF-8"))?
        .to_string();
    let version = read_u64(meta, id_end, "record version")?;
    let ref_count = read_u64(meta, id_end + 8, "record encoder count")? as usize;
    let refs_start = id_end + 16;
    let refs_end = ref_count
        .checked_mul(8)
        .and_then(|n| n.checked_add(refs_start))
        .filter(|&e| e <= meta.len().saturating_sub(8))
        .ok_or_else(|| store_err("record meta truncated inside encoder references"))?;
    let encoder_refs = (refs_start..refs_end)
        .step_by(8)
        .map(|at| read_u64(meta, at, "record encoder reference"))
        .collect::<Result<Vec<_>>>()?;
    let structure_len = read_u64(meta, refs_end, "record structure length")? as usize;
    let structure_start = refs_end + 8;
    if structure_start.checked_add(structure_len) != Some(meta.len()) {
        return Err(store_err(
            "record meta length disagrees with its structure stream",
        ));
    }
    Ok(ModelMeta {
        model_id,
        version,
        encoder_refs,
        structure: structure_start..meta.len(),
    })
}

/// Writes the footer — the cached index, then the trailer — at
/// `record_end`, trimming the file when it was longer. Nothing here is
/// `fsync`ed: see the durability invariant in the module docs.
fn write_footer(file: &mut File, st: &mut StoreState) -> Result<()> {
    let end = st.record_end + st.index.len() as u64 + TRAILER_LEN;
    let written = file
        .seek(SeekFrom::Start(st.record_end))
        .and_then(|_| file.write_all(&st.index))
        .and_then(|()| file.write_all(&st.trailer()))
        .and_then(|()| {
            if st.file_len > end {
                file.set_len(end)
            } else {
                Ok(())
            }
        });
    // A failed write may have extended the file, never past `end`.
    st.file_len = if written.is_ok() {
        end
    } else {
        st.file_len.max(end)
    };
    written.map_err(|e| io_err("footer write", e))
}

/// Reads and validates the footer, building the store state (index cache
/// included) from it. Errors if the trailer is missing, torn, or
/// inconsistent — the caller then falls back to a record scan.
fn read_footer(file: &mut File, file_len: u64) -> Result<StoreState> {
    if file_len < HEADER_LEN + TRAILER_LEN {
        return Err(store_err("fleet store too small to hold a footer"));
    }
    let trailer = read_at(file, file_len - TRAILER_LEN, TRAILER_LEN)?;
    let index_off = read_u64(&trailer, 0, "trailer index offset")?;
    let index_len = read_u64(&trailer, 8, "trailer index length")?;
    let index_checksum = read_u64(&trailer, 16, "trailer index checksum")?;
    let model_count = read_u64(&trailer, 24, "trailer model count")?;
    let encoder_count = read_u64(&trailer, 32, "trailer encoder count")?;
    let magic = read_u64(&trailer, 40, "trailer magic")?;
    if magic != FOOTER_MAGIC {
        return Err(store_err("footer magic missing"));
    }
    if index_off < HEADER_LEN
        || index_off
            .checked_add(index_len)
            .and_then(|n| n.checked_add(TRAILER_LEN))
            != Some(file_len)
    {
        return Err(store_err("footer geometry inconsistent"));
    }
    let index = read_at(file, index_off, index_len)?;
    if fnv1a64(&index) != index_checksum {
        return Err(store_err("footer index checksum mismatch"));
    }
    let mut st = StoreState::new(file_len);
    let mut pos = 0usize;
    while pos < index.len() {
        let tag = read_u64(&index, pos, "index entry tag")?;
        pos += 8;
        // Every entry names the record that starts where the last ended.
        if tag == KIND_MODEL as u64 {
            let id_len = read_u64(&index, pos, "index id length")? as usize;
            pos += 8;
            let id_end = pos
                .checked_add(id_len)
                .filter(|&e| e <= index.len().saturating_sub(24))
                .ok_or_else(|| store_err("footer index truncated"))?;
            let model_id = std::str::from_utf8(&index[pos..id_end])
                .map_err(|_| store_err("footer index model_id is not valid UTF-8"))?
                .to_string();
            pos = id_end;
            let version = read_u64(&index, pos, "index version")?;
            let offset = read_u64(&index, pos + 8, "index offset")?;
            let total_len = read_u64(&index, pos + 16, "index total_len")?;
            pos += 24;
            check_placement(&st, offset, total_len, index_off)?;
            st.push_model(StoreEntry {
                model_id,
                version,
                offset,
                total_len,
            });
        } else if tag == KIND_ENCODER as u64 {
            let offset = read_u64(&index, pos, "index encoder offset")?;
            let total_len = read_u64(&index, pos + 8, "index encoder total_len")?;
            let fingerprint = read_u64(&index, pos + 16, "index encoder fingerprint")?;
            pos += 24;
            check_placement(&st, offset, total_len, index_off)?;
            st.push_encoder(EncoderEntry {
                offset,
                total_len,
                fingerprint,
                blob: Weak::new(),
            });
        } else {
            return Err(store_err(format!("unknown footer index tag {tag}")));
        }
    }
    if st.record_end != index_off {
        return Err(store_err("footer index does not reach the footer"));
    }
    if st.entries.len() as u64 != model_count || st.encoders.len() as u64 != encoder_count {
        return Err(store_err("footer record counts disagree with its index"));
    }
    debug_assert_eq!(st.index_hash, index_checksum, "rebuilt index differs");
    Ok(st)
}

/// Checks that an index entry names a record that starts where the
/// previous one ended, is 8-aligned and record-sized, and ends before
/// the footer.
fn check_placement(st: &StoreState, offset: u64, total_len: u64, index_off: u64) -> Result<()> {
    let fits = offset == st.record_end
        && (RECORD_HEADER_LEN..=MAX_RECORD_LEN).contains(&total_len)
        && total_len.is_multiple_of(8)
        && offset + total_len <= index_off;
    if fits {
        Ok(())
    } else {
        Err(store_err("footer index entry out of place"))
    }
}

/// Torn-footer recovery: walk the self-delimiting records from the top
/// of the file and keep the longest checksum-valid prefix, building the
/// same index a footer over it holds. The prefix also ends at a model
/// record that references an encoder record not already in it, so
/// recovery never lists a model it cannot load.
fn recover_by_scan(file: &mut File, file_len: u64) -> Result<StoreState> {
    let bytes = read_at(file, HEADER_LEN, file_len - HEADER_LEN)?;
    let mut st = StoreState::new(file_len);
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER_LEN as usize {
        let Ok(total_len) = read_u64(&bytes, pos + 8, "record total_len") else {
            break;
        };
        if total_len < RECORD_HEADER_LEN || total_len > (bytes.len() - pos) as u64 {
            break;
        }
        let record = &bytes[pos..pos + total_len as usize];
        // First invalid record: everything past here is a torn tail or
        // stale footer bytes.
        let Ok(layout) = verify_record(record, total_len) else {
            break;
        };
        let offset = HEADER_LEN + pos as u64;
        if layout.kind == KIND_ENCODER {
            st.push_encoder(EncoderEntry {
                offset,
                total_len,
                fingerprint: record_fingerprint(&record[layout.meta], &record[layout.heap]),
                blob: Weak::new(),
            });
        } else {
            let Ok(meta) = parse_model_meta(&record[layout.meta]) else {
                break;
            };
            let resolves = meta
                .encoder_refs
                .iter()
                .all(|at| st.encoders.binary_search_by_key(at, |e| e.offset).is_ok());
            if !resolves {
                break;
            }
            st.push_model(StoreEntry {
                model_id: meta.model_id,
                version: meta.version,
                offset,
                total_len,
            });
        }
        pos += total_len as usize;
    }
    Ok(st)
}

/// One resident model: a `(model_id, version)` pair plus its degrade
/// ladder. Requests hold an `Arc<FleetModel>` snapshot, so swaps and
/// evictions never invalidate an in-flight prediction.
pub struct FleetModel {
    model_id: String,
    version: u64,
    tiers: Vec<Arc<Pipeline>>,
}

impl std::fmt::Debug for FleetModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetModel")
            .field("model_id", &self.model_id)
            .field("version", &self.version)
            .field("tiers", &self.tiers.len())
            .finish()
    }
}

impl FleetModel {
    /// Logical model name.
    pub fn model_id(&self) -> &str {
        &self.model_id
    }

    /// Version this snapshot was published under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All ladder tiers, most precise first (append order).
    pub fn tiers(&self) -> &[Arc<Pipeline>] {
        &self.tiers
    }

    /// The most precise tier.
    pub fn primary(&self) -> &Arc<Pipeline> {
        &self.tiers[0]
    }

    /// Tier at degrade `level`, clamped to the most degraded available,
    /// so a ladder shorter than the server's degrade ladder still
    /// serves every level.
    pub fn tier(&self, level: usize) -> &Arc<Pipeline> {
        &self.tiers[level.min(self.tiers.len() - 1)]
    }
}

/// Residency knobs for a [`Fleet`].
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Maximum models resident at once; `0` means unbounded. Pinned
    /// models never count as eviction candidates.
    pub max_resident: usize,
}

struct ResidentModel {
    model: Arc<FleetModel>,
    pinned: bool,
    last_used: u64,
}

struct FleetState {
    resident: HashMap<String, ResidentModel>,
    clock: u64,
    /// Swapped-out or evicted models still referenced by in-flight
    /// requests; pruned on every admission and eviction, so its length
    /// stays bounded by the live snapshots.
    retiring: Vec<Weak<FleetModel>>,
}

impl FleetState {
    /// Drops the retiring entries whose last snapshot is gone.
    fn prune_retiring(&mut self) {
        self.retiring.retain(|w| w.strong_count() > 0);
    }
}

/// In-memory registry over a [`ModelStore`]: LRU residency with
/// pinning, per-request `Arc` snapshots, and atomic hot-swap.
pub struct Fleet {
    store: ModelStore,
    max_resident: usize,
    state: Mutex<FleetState>,
}

impl Fleet {
    /// Opens the store at `path` and wraps it in an empty registry.
    pub fn open(path: impl AsRef<Path>, config: FleetConfig) -> Result<Self> {
        Ok(Self::new(ModelStore::open(path)?, config))
    }

    /// Wraps an already-open store.
    pub fn new(store: ModelStore, config: FleetConfig) -> Self {
        Fleet {
            store,
            max_resident: config.max_resident,
            state: Mutex::new(FleetState {
                resident: HashMap::new(),
                clock: 0,
                retiring: Vec::new(),
            }),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Returns a snapshot of `model_id`, admitting its latest published
    /// version from disk if it is not resident (including when it was
    /// previously evicted — eviction is never a request error).
    pub fn get(&self, model_id: &str) -> Result<Arc<FleetModel>> {
        if let Some(model) = self.lookup_resident(model_id) {
            return Ok(model);
        }
        // Load outside the lock: admission does disk IO + decode and
        // must not stall requests for models that are resident.
        let loaded = Arc::new(self.store.load_latest(model_id)?);
        Ok(self.admit(loaded))
    }

    /// Re-reads the latest published version from the store and swaps
    /// it in atomically. Versions only move forward: if the store holds
    /// nothing newer than the resident version, the resident snapshot
    /// is kept. The swapped-out version keeps serving its in-flight
    /// requests and is tracked via [`Fleet::draining_count`] until the
    /// last snapshot drops.
    pub fn refresh(&self, model_id: &str) -> Result<Arc<FleetModel>> {
        let loaded = Arc::new(self.store.load_latest(model_id)?);
        Ok(self.admit(loaded))
    }

    /// Pins (or unpins) a model, loading it if necessary. Pinned models
    /// are never LRU-evicted.
    pub fn pin(&self, model_id: &str, pinned: bool) -> Result<()> {
        self.get(model_id)?;
        let mut st = self.state.lock().unwrap();
        if let Some(r) = st.resident.get_mut(model_id) {
            r.pinned = pinned;
        }
        Ok(())
    }

    /// Drops a model from residency (its blob is freed once the last
    /// in-flight snapshot drops). Returns whether it was resident.
    pub fn evict(&self, model_id: &str) -> bool {
        let mut st = self.state.lock().unwrap();
        st.prune_retiring();
        if let Some(r) = st.resident.remove(model_id) {
            st.retiring.push(Arc::downgrade(&r.model));
            true
        } else {
            false
        }
    }

    /// Number of models currently resident.
    pub fn resident_count(&self) -> usize {
        self.state.lock().unwrap().resident.len()
    }

    /// `(model_id, version, pinned)` for every resident model.
    pub fn resident(&self) -> Vec<(String, u64, bool)> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<_> = st
            .resident
            .values()
            .map(|r| (r.model.model_id.clone(), r.model.version, r.pinned))
            .collect();
        out.sort();
        out
    }

    /// Swapped-out or evicted models still held alive by in-flight
    /// requests.
    pub fn draining_count(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.prune_retiring();
        st.retiring.len()
    }

    fn lookup_resident(&self, model_id: &str) -> Option<Arc<FleetModel>> {
        let mut st = self.state.lock().unwrap();
        st.clock += 1;
        let now = st.clock;
        st.resident.get_mut(model_id).map(|r| {
            r.last_used = now;
            Arc::clone(&r.model)
        })
    }

    /// Inserts `loaded` under the monotonic-version rule and runs LRU
    /// eviction: an equal-version reload keeps the resident snapshot,
    /// and an older store version never replaces a newer resident one.
    fn admit(&self, loaded: Arc<FleetModel>) -> Arc<FleetModel> {
        let mut st = self.state.lock().unwrap();
        st.prune_retiring();
        st.clock += 1;
        let now = st.clock;
        let chosen = match st.resident.get_mut(loaded.model_id.as_str()) {
            Some(r) if r.model.version >= loaded.version => {
                // A concurrent admit (or an already-newer resident
                // version) wins; keep it.
                r.last_used = now;
                Arc::clone(&r.model)
            }
            Some(r) => {
                let old = std::mem::replace(&mut r.model, Arc::clone(&loaded));
                r.last_used = now;
                st.retiring.push(Arc::downgrade(&old));
                loaded
            }
            None => {
                st.resident.insert(
                    loaded.model_id.clone(),
                    ResidentModel {
                        model: Arc::clone(&loaded),
                        pinned: false,
                        last_used: now,
                    },
                );
                loaded
            }
        };
        self.evict_excess(&mut st);
        chosen
    }

    fn evict_excess(&self, st: &mut FleetState) {
        if self.max_resident == 0 {
            return;
        }
        while st.resident.len() > self.max_resident {
            let victim = st
                .resident
                .iter()
                .filter(|(_, r)| !r.pinned)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(id, _)| id.clone());
            match victim {
                Some(id) => {
                    if let Some(r) = st.resident.remove(&id) {
                        st.retiring.push(Arc::downgrade(&r.model));
                    }
                }
                // Everything is pinned; residency stays above the cap.
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::memory::Precision;
    use crate::online::{OnlineHd, OnlineHdConfig};
    use crate::spec::ModelSpec;
    use linalg::{Matrix, Rng64};

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(7);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn fit(dim: usize, x: &Matrix, y: &[usize]) -> Pipeline {
        let spec = ModelSpec::OnlineHd(OnlineHdConfig {
            dim,
            epochs: 2,
            ..Default::default()
        });
        Pipeline::fit(&spec, x, y).unwrap()
    }

    #[test]
    fn store_round_trips_models_and_preserves_predictions() {
        let dir = tempdir("fleet-roundtrip");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let a = fit(64, &x, &y);
        let b = fit(96, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("alpha", 1, &[&a]).unwrap();
        store.append("beta", 1, &[&b]).unwrap();

        let reopened = ModelStore::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), 2);
        assert_eq!(reopened.versions("alpha"), vec![1]);
        let got = reopened.load("alpha", 1).unwrap();
        assert_eq!(got.primary().predict_batch(&x), a.predict_batch(&x));
        let got_b = reopened.load_latest("beta").unwrap();
        assert_eq!(got_b.primary().predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn ladder_tiers_publish_and_load_as_one_unit() {
        let dir = tempdir("fleet-ladder");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let full = fit(64, &x, &y);
        let small = fit(32, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 3, &[&full, &small]).unwrap();
        let model = ModelStore::open(&path).unwrap().load("m", 3).unwrap();
        assert_eq!(model.tiers().len(), 2);
        assert_eq!(model.tier(0).predict_batch(&x), full.predict_batch(&x));
        assert_eq!(model.tier(1).predict_batch(&x), small.predict_batch(&x));
        // Levels past the end clamp to the most degraded tier.
        assert_eq!(model.tier(9).predict_batch(&x), small.predict_batch(&x));
    }

    #[test]
    fn torn_footer_recovers_every_complete_record() {
        let dir = tempdir("fleet-torn-footer");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&fit(48, &x, &y)]).unwrap();
        store.append("b", 1, &[&fit(64, &x, &y)]).unwrap();
        // Tear the trailer: chop half the footer off.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - TRAILER_LEN / 2).unwrap();
        drop(file);
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["a", "b"]);
        recovered.load("b", 1).unwrap();
    }

    #[test]
    fn torn_record_tail_is_dropped_and_prefix_survives() {
        let dir = tempdir("fleet-torn-record");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("keep", 1, &[&fit(48, &x, &y)]).unwrap();
        let keep = store.entries()[0].clone();
        let keep_end = keep.offset + keep.total_len;
        store.append("torn", 1, &[&fit(64, &x, &y)]).unwrap();
        // Simulate a crash mid-append: cut into the second record,
        // which also destroyed the old footer.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep_end + 40).unwrap();
        drop(file);
        let recovered = ModelStore::open(&path).unwrap();
        let ids: Vec<_> = recovered
            .entries()
            .iter()
            .map(|e| e.model_id.clone())
            .collect();
        assert_eq!(ids, vec!["keep"]);
        recovered.load("keep", 1).unwrap();
        assert!(recovered.load("torn", 1).is_err());
        // The store stays appendable after recovery.
        recovered.append("again", 2, &[&fit(32, &x, &y)]).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        assert_eq!(reopened.entries().len(), 2);
    }

    #[test]
    fn flipped_payload_bit_fails_checksum_descriptively() {
        let dir = tempdir("fleet-bitflip");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 1, &[&fit(48, &x, &y)]).unwrap();
        let entry = store.entries()[0].clone();
        // Flip a bit in the middle of the payload heap.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = entry.offset + entry.total_len - 16;
        bytes[target as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        let err = reopened.load("m", 1).unwrap_err().to_string();
        assert!(err.contains("checksum"), "unexpected error: {err}");
    }

    #[test]
    fn registry_lru_evicts_and_readmits_without_error() {
        let dir = tempdir("fleet-lru");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            store.append(id, 1, &[&fit(32 + 16 * i, &x, &y)]).unwrap();
        }
        let fleet = Fleet::new(store, FleetConfig { max_resident: 2 });
        let a = fleet.get("a").unwrap();
        fleet.get("b").unwrap();
        fleet.get("c").unwrap();
        assert_eq!(fleet.resident_count(), 2);
        // "a" was least recently used and got evicted; the held
        // snapshot still predicts, and a new get re-admits from disk.
        assert!(!fleet.resident().iter().any(|(id, _, _)| id == "a"));
        assert_eq!(a.primary().predict_batch(&x).len(), x.rows());
        let a2 = fleet.get("a").unwrap();
        assert_eq!(
            a.primary().predict_batch(&x),
            a2.primary().predict_batch(&x)
        );
        assert_eq!(fleet.resident_count(), 2);
    }

    #[test]
    fn pinned_models_survive_eviction_pressure() {
        let dir = tempdir("fleet-pin");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        for id in ["a", "b", "c"] {
            store.append(id, 1, &[&fit(32, &x, &y)]).unwrap();
        }
        let fleet = Fleet::new(store, FleetConfig { max_resident: 2 });
        fleet.pin("a", true).unwrap();
        fleet.get("b").unwrap();
        fleet.get("c").unwrap();
        let resident = fleet.resident();
        assert!(resident.iter().any(|(id, _, pinned)| id == "a" && *pinned));
        assert_eq!(resident.len(), 2);
    }

    #[test]
    fn hot_swap_is_monotonic_and_drains_the_old_version() {
        let dir = tempdir("fleet-swap");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 1, &[&fit(48, &x, &y)]).unwrap();
        let fleet = Fleet::new(store, FleetConfig::default());
        let v1 = fleet.get("m").unwrap();
        assert_eq!(v1.version(), 1);

        fleet.store().append("m", 2, &[&fit(64, &x, &y)]).unwrap();
        let v2 = fleet.refresh("m").unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(fleet.get("m").unwrap().version(), 2);
        // The old snapshot keeps serving its in-flight work and is
        // tracked until dropped.
        assert_eq!(v1.primary().predict_batch(&x).len(), x.rows());
        assert_eq!(fleet.draining_count(), 1);
        drop(v1);
        assert_eq!(fleet.draining_count(), 0);
        // A refresh when the store has nothing newer keeps v2.
        let again = fleet.refresh("m").unwrap();
        assert_eq!(again.version(), 2);
        assert!(Arc::ptr_eq(&again, &v2));
    }

    /// The stored projection behind a pipeline's (primary) encoder.
    fn projection_ptr(p: &Pipeline) -> *const f32 {
        let encoder = if let Some(m) = p.downcast_ref::<OnlineHd>() {
            m.encoder()
        } else if let Some(m) = p.downcast_ref::<crate::CentroidHd>() {
            m.encoder()
        } else if let Some(m) = p.downcast_ref::<crate::BoostHd>() {
            m.encoder()
        } else {
            panic!("{} has no stored encoder", p.spec().kind_tag())
        };
        encoder.projection_t().unwrap().as_slice().as_ptr()
    }

    /// A fit plus its refit-free int8 and 1-bit siblings: one encoder,
    /// three class memories.
    fn ladder(x: &Matrix, y: &[usize]) -> Vec<Pipeline> {
        let base = OnlineHdConfig {
            dim: 64,
            epochs: 2,
            ..Default::default()
        };
        let full = Pipeline::fit(&ModelSpec::OnlineHd(base), x, y).unwrap();
        Precision::ALL
            .into_iter()
            .map(|p| full.with_precision(p).unwrap())
            .collect()
    }

    /// Every persistable payload kind — dense f32, packed u64, and int8
    /// class matrices — must decode zero-copy out of the record blob and
    /// predict bit-identically to the fitted original, probabilities
    /// included. Models and ladder tiers built on one encoder must load
    /// with one shared projection allocation.
    #[test]
    fn all_payload_kinds_serve_zero_copy_and_bit_identical() {
        use crate::{BoostHdConfig, CentroidHdConfig};
        let specs = vec![
            ModelSpec::OnlineHd(OnlineHdConfig {
                dim: 96,
                epochs: 3,
                ..Default::default()
            }),
            ModelSpec::CentroidHd(CentroidHdConfig {
                dim: 96,
                ..Default::default()
            }),
            ModelSpec::BoostHd(BoostHdConfig {
                dim_total: 120,
                n_learners: 4,
                epochs: 2,
                ..Default::default()
            }),
            ModelSpec::OnlineHd(OnlineHdConfig {
                dim: 96,
                epochs: 3,
                precision: Precision::Binary,
                refit_epochs: 2,
                ..Default::default()
            }),
            ModelSpec::BoostHd(BoostHdConfig {
                dim_total: 120,
                n_learners: 4,
                epochs: 2,
                precision: Precision::Binary,
                ..Default::default()
            }),
            ModelSpec::OnlineHd(OnlineHdConfig {
                dim: 96,
                epochs: 3,
                precision: Precision::Int8,
                refit_epochs: 2,
                ..Default::default()
            }),
            ModelSpec::BoostHd(BoostHdConfig {
                dim_total: 120,
                n_learners: 4,
                epochs: 2,
                precision: Precision::Int8,
                ..Default::default()
            }),
        ];
        let (x, y) = toy();
        let dir = tempdir("fleet-payload-kinds");
        let store = ModelStore::create(dir.join("models.bhfs")).unwrap();
        for spec in specs {
            let tag = spec.display_name();
            let fitted =
                Pipeline::fit(&spec, &x, &y).unwrap_or_else(|e| panic!("{tag} failed to fit: {e}"));
            // The class memory decodes zero-copy: the pipeline borrows its
            // payload slices straight out of the record blob, so the
            // blob's refcount rises past the test's own handle.
            let (body, encoders) = fitted
                .encode_store_parts()
                .unwrap_or_else(|e| panic!("{tag} failed to encode: {e}"));
            let encoders: Vec<SinusoidEncoder> = encoders
                .iter()
                .map(|enc| {
                    let enc = EncoderBody::new(enc).to_parts();
                    let blob = Arc::new(Blob::from_bytes(&enc.heap));
                    encoder_from_parts(&enc.structure, blob, 0, enc.heap.len()).unwrap()
                })
                .collect();
            let blob = Arc::new(Blob::from_bytes(&body.heap));
            let decoded = Pipeline::decode_store_parts(
                &body.structure,
                Arc::clone(&blob),
                0,
                body.heap.len(),
                &encoders,
            )
            .unwrap_or_else(|e| panic!("{tag} failed to decode: {e}"));
            assert!(
                Arc::strong_count(&blob) > 1,
                "{tag} copied its payloads instead of borrowing the blob"
            );
            assert_eq!(
                fitted.predict_batch_with_confidence(&x),
                decoded.predict_batch_with_confidence(&x),
                "{tag} predictions are not bit-identical after zero-copy decode"
            );

            // Through the store: two ids published from one fit share one
            // encoder record and, once loaded, one projection allocation.
            let (a, b) = (format!("{tag}-a"), format!("{tag}-b"));
            store.append(&a, 1, &[&fitted]).unwrap();
            store.append(&b, 1, &[&fitted]).unwrap();
            let (la, lb) = (store.load(&a, 1).unwrap(), store.load(&b, 1).unwrap());
            for loaded in [&la, &lb] {
                assert_eq!(
                    fitted.predict_batch_with_confidence(&x),
                    loaded.primary().predict_batch_with_confidence(&x),
                    "{tag} predictions are not bit-identical after a store load"
                );
            }
            assert_eq!(
                projection_ptr(la.primary()),
                projection_ptr(lb.primary()),
                "{tag} models built on one encoder hold two projections"
            );
        }

        // The three tiers of one ladder share one encoder record and one
        // projection allocation, and each predicts bit-identically.
        let tiers = ladder(&x, &y);
        let refs: Vec<&Pipeline> = tiers.iter().collect();
        let before = record_end(&store);
        store.append("ladder", 1, &refs).unwrap();
        let loaded = store.load("ladder", 1).unwrap();
        assert_eq!(loaded.tiers().len(), 3);
        let shared = projection_ptr(loaded.tier(0));
        for (tier, fitted) in loaded.tiers().iter().zip(&tiers) {
            assert_eq!(
                projection_ptr(tier),
                shared,
                "ladder tiers hold two projections"
            );
            assert_eq!(
                tier.predict_batch_with_confidence(&x),
                fitted.predict_batch_with_confidence(&x)
            );
        }
        // One 2 × 64 projection + phases is written once, not per tier.
        let tier_records: u64 = store
            .entries()
            .iter()
            .filter(|e| e.model_id == "ladder")
            .map(|e| e.total_len)
            .sum();
        let encoder_bytes = record_end(&store) - before - tier_records;
        assert!(
            encoder_bytes < 2 * (3 * 64 * 4 + RECORD_HEADER_LEN),
            "ladder wrote {encoder_bytes} encoder bytes"
        );
    }

    /// One envelope part at `at`: its structure stream, its heap, and the
    /// offset of the next part.
    fn envelope_part(bytes: &[u8], at: usize) -> (&[u8], &[u8], usize) {
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap()) as usize;
        let (structure_len, heap_len) = (word(at), word(at + 8));
        let heap_at = (at + 16 + structure_len).next_multiple_of(8);
        (
            &bytes[at + 16..at + 16 + structure_len],
            &bytes[heap_at..heap_at + heap_len],
            heap_at + heap_len,
        )
    }

    /// The `.bhde` envelope and the store persist one encoding: the
    /// envelope's model part is the store's record body byte for byte and
    /// its encoder parts are the store's encoder bodies. A pipeline loaded
    /// from an envelope and published next to its fitted original finds
    /// the original's encoder records (no second write) and predicts
    /// bit-identically.
    #[test]
    fn envelope_carries_the_store_record_body() {
        use crate::boost::EnsembleMode;
        use crate::{BoostHdConfig, CentroidHdConfig};
        let (x, y) = toy();
        let mut fitted = ladder(&x, &y);
        for spec in [
            ModelSpec::CentroidHd(CentroidHdConfig {
                dim: 64,
                ..Default::default()
            }),
            ModelSpec::BoostHd(BoostHdConfig {
                dim_total: 48,
                n_learners: 3,
                epochs: 2,
                mode: EnsembleMode::FullDimension,
                ..Default::default()
            }),
        ] {
            fitted.push(Pipeline::fit(&spec, &x, &y).unwrap());
        }
        let dir = tempdir("fleet-envelope");
        let store = ModelStore::create(dir.join("models.bhfs")).unwrap();
        for (i, original) in fitted.iter().enumerate() {
            let name = original.spec().display_name();
            let bytes = original.to_bytes().unwrap();
            let (body, encoders) = original.encode_store_parts().unwrap();
            let (structure, heap, mut at) = envelope_part(&bytes, 16);
            assert_eq!(structure, &body.structure[..], "{name}");
            assert_eq!(heap, &body.heap[..], "{name}");
            assert_eq!(bytes[at..at + 8], (encoders.len() as u64).to_le_bytes());
            at += 8;
            for encoder in &encoders {
                let want = EncoderBody::new(encoder).to_parts();
                let (structure, heap, next) = envelope_part(&bytes, at);
                assert_eq!(structure, &want.structure[..], "{name}");
                assert_eq!(heap, &want.heap[..], "{name}");
                at = next;
            }
            assert_eq!(at, bytes.len(), "{name}");

            let loaded = Pipeline::from_bytes(&bytes).unwrap();
            store.append(&format!("fitted{i}"), 1, &[original]).unwrap();
            let stored = store.state.lock().unwrap().encoders.len();
            store.append(&format!("loaded{i}"), 1, &[&loaded]).unwrap();
            assert_eq!(
                store.state.lock().unwrap().encoders.len(),
                stored,
                "{name}: the loaded pipeline wrote a second encoder record"
            );
            let served = store.load(&format!("loaded{i}"), 1).unwrap();
            for other in [&loaded, served.primary().as_ref()] {
                assert_eq!(
                    original.predict_batch_with_confidence(&x),
                    other.predict_batch_with_confidence(&x),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn models_sharing_an_encoder_write_it_once() {
        let dir = tempdir("fleet-dedup");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let a = fit(64, &x, &y);
        let b = fit(96, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("first", 1, &[&a]).unwrap();
        let one = record_end(&store);
        for i in 0..5 {
            store.append(&format!("copy{i}"), 1, &[&a]).unwrap();
        }
        let six = record_end(&store);
        let model_record = store.entries()[0].total_len;
        assert_eq!(
            six - one,
            5 * model_record,
            "a repeat publish rewrote the encoder"
        );
        // A different encoder gets its own record; reopening keeps the
        // dedup index, so a repeat after reopen still writes no encoder.
        store.append("other", 1, &[&b]).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        assert_eq!(reopened.state.lock().unwrap().encoders.len(), 2);
        let before = record_end(&reopened);
        reopened.append("copy-after-reopen", 1, &[&a]).unwrap();
        let after = record_end(&reopened);
        let last = reopened.entries().last().unwrap().total_len;
        assert_eq!(after - before, last);
        assert_eq!(
            reopened
                .load_latest("copy-after-reopen")
                .unwrap()
                .primary()
                .predict_batch_with_confidence(&x),
            a.predict_batch_with_confidence(&x)
        );
    }

    /// A crash anywhere inside an append that introduces a new encoder —
    /// in the encoder record or in the model record after it — recovers
    /// to the store as it was before that append.
    #[test]
    fn torn_append_introducing_an_encoder_recovers_to_prior_prefix() {
        let dir = tempdir("fleet-torn-encoder");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let kept = fit(48, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("keep", 1, &[&kept]).unwrap();
        let keep = store.entries()[0].clone();
        let prior_end = keep.offset + keep.total_len;
        store.append("torn", 1, &[&fit(64, &x, &y)]).unwrap();
        let torn = store.entries()[1].clone();
        assert!(
            torn.offset > prior_end,
            "the append wrote no encoder record"
        );
        let full = std::fs::read(&path).unwrap();
        let cuts = [
            prior_end + 20,
            (prior_end + torn.offset) / 2,
            torn.offset,
            torn.offset + 30,
            torn.offset + torn.total_len - 8,
        ];
        for cut in cuts {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let recovered = ModelStore::open(&path).unwrap();
            assert_eq!(recovered.entries(), vec![keep.clone()], "cut at {cut}");
            assert_eq!(
                recovered
                    .load("keep", 1)
                    .unwrap()
                    .primary()
                    .predict_batch(&x),
                kept.predict_batch(&x)
            );
            assert!(recovered.load("torn", 1).is_err());
            // Still appendable, and the re-published model loads.
            recovered.append("again", 2, &[&fit(32, &x, &y)]).unwrap();
            let reopened = ModelStore::open(&path).unwrap();
            assert_eq!(reopened.entries().len(), 2, "cut at {cut}");
            reopened.load("again", 2).unwrap();
        }
    }

    /// Recovery ends the valid prefix at a model record whose encoder
    /// record is not in it: a torn or corrupt encoder record, or a
    /// checksum-valid model record whose reference resolves to nothing.
    #[test]
    fn recovery_never_lists_a_model_whose_encoder_is_outside_the_prefix() {
        let dir = tempdir("fleet-encoder-prefix");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&fit(48, &x, &y)]).unwrap();
        store.append("b", 1, &[&fit(64, &x, &y)]).unwrap();
        let entries = store.entries();
        let (a, b) = (entries[0].clone(), entries[1].clone());
        let record_end = b.offset + b.total_len;
        let full = std::fs::read(&path).unwrap();

        // b's encoder record (between a and b) carries a flipped bit.
        let mut bytes = full[..record_end as usize].to_vec();
        let encoder_heap_byte = (a.offset + a.total_len + b.offset) / 2;
        bytes[encoder_heap_byte as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(ModelStore::open(&path).unwrap().entries(), vec![a.clone()]);

        // b's model record is intact but references an offset that holds
        // no encoder record (its own); its meta checksum is patched up.
        let mut bytes = full[..record_end as usize].to_vec();
        let meta_at = (b.offset + RECORD_HEADER_LEN) as usize;
        let ref_at = meta_at + 8 + "b".len() + 16;
        bytes[ref_at..ref_at + 8].copy_from_slice(&b.offset.to_le_bytes());
        let meta_len = read_u64(&bytes, b.offset as usize + 16, "meta_len").unwrap() as usize;
        let checksum = fnv1a64(&bytes[meta_at..meta_at + meta_len]);
        let checksum_at = b.offset as usize + 32;
        bytes[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let recovered = ModelStore::open(&path).unwrap();
        assert_eq!(recovered.entries(), vec![a]);
        recovered.load("a", 1).unwrap();
    }

    #[test]
    fn flipped_bit_in_a_shared_encoder_fails_every_model_that_uses_it() {
        let dir = tempdir("fleet-encoder-bitflip");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let model = fit(48, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        let ids = ["a", "b", "c"];
        for id in ids {
            store.append(id, 1, &[&model]).unwrap();
        }
        // The one encoder record sits between the header and "a".
        let first = store.entries()[0].offset;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(first - 16) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reopened = ModelStore::open(&path).unwrap();
        for id in ids {
            let err = reopened.load(id, 1).unwrap_err().to_string();
            assert!(
                err.contains(&format!("model '{id}'"))
                    && err.contains("encoder record")
                    && err.contains("checksum"),
                "unexpected error: {err}"
            );
        }
    }

    /// Bit-flips injected into one loaded model's encoder promote that
    /// model's projection to a private copy; every other model built on
    /// the same encoder record keeps predicting bit-identically.
    #[test]
    fn encoder_bitflips_in_one_model_leave_its_sharers_bit_identical() {
        let dir = tempdir("fleet-encoder-cow");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let model = fit(64, &x, &y);
        let store = ModelStore::create(&path).unwrap();
        for id in ["a", "b"] {
            store.append(id, 1, &[&model]).unwrap();
        }
        let fleet = Fleet::new(store, FleetConfig::default());
        let (a, b) = (fleet.get("a").unwrap(), fleet.get("b").unwrap());
        let shared = projection_ptr(b.primary());
        assert_eq!(projection_ptr(a.primary()), shared);

        let resident = a.primary().downcast_ref::<OnlineHd>().unwrap();
        let mut projection_t = resident.encoder().projection_t().unwrap().clone();
        assert!(projection_t.is_shared());
        let mut rng = Rng64::seed_from(11);
        let report = faults::flip_bits_in(projection_t.as_mut_slice(), 0.05, &mut rng);
        assert!(report.flipped > 0);
        assert!(
            !projection_t.is_shared(),
            "the flip wrote through the shared blob"
        );
        let encoder = SinusoidEncoder::from_parts_transposed(
            projection_t,
            resident.encoder().bias().to_vec(),
        )
        .unwrap();
        let corrupted = Pipeline::from_model(
            a.primary().spec().clone(),
            Box::new(
                OnlineHd::from_parts(
                    encoder,
                    resident.class_memory().clone(),
                    Classifier::num_classes(resident),
                    *resident.config(),
                )
                .unwrap(),
            ),
        );
        assert_ne!(
            corrupted.predict_batch_with_confidence(&x),
            model.predict_batch_with_confidence(&x)
        );
        for sharer in [&a, &b, &fleet.get("b").unwrap()] {
            assert_eq!(projection_ptr(sharer.primary()), shared);
            assert_eq!(
                sharer.primary().predict_batch_with_confidence(&x),
                model.predict_batch_with_confidence(&x)
            );
        }
    }

    /// Any single corrupted byte, in a record or in the footer, yields an
    /// error or a loadable prefix — never a panic.
    #[test]
    fn corrupting_any_byte_never_panics_on_open_or_load() {
        let dir = tempdir("fleet-byte-mutation");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&fit(16, &x, &y)]).unwrap();
        store
            .append("b", 1, &[&fit(16, &x, &y), &fit(24, &x, &y)])
            .unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bytes = full.clone();
            bytes[i] ^= 0xA5;
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(store) = ModelStore::open(&path) {
                for entry in store.entries() {
                    let _ = store.load_record(&entry);
                }
            }
        }
    }

    #[test]
    fn old_store_versions_are_rejected_with_a_rebuild_hint() {
        let dir = tempdir("fleet-v1");
        let path = dir.join("models.bhfs");
        ModelStore::create(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for old in [1u8, 2, 3] {
            bytes[4] = old;
            std::fs::write(&path, &bytes).unwrap();
            let err = ModelStore::open(&path).err().unwrap().to_string();
            assert!(
                err.contains(&format!("version {old}")) && err.contains("rebuild"),
                "unexpected error: {err}"
            );
        }
    }

    /// The images a power cut can leave once the N-th publish's records
    /// are committed but its footer has not fully reached the disk: the
    /// footer missing (file cut at the record end); the previous trailer
    /// still at the end of the file, behind a last record shorter than the
    /// footer it overwrote; and the new footer written up to every prefix
    /// length over the previous footer's tail. Each reopens to exactly
    /// publishes 1..N, loads every listed entry, and stays appendable.
    #[test]
    fn power_cut_images_keep_every_committed_publish() {
        const N: usize = 4;
        let dir = tempdir("fleet-power-cut");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let model = fit(16, &x, &y);
        // Long ids grow the footer past the size of one model record.
        let id = |i: usize| format!("{}{i}", "m".repeat(500));
        let store = ModelStore::create(&path).unwrap();
        for i in 0..N - 1 {
            store.append(&id(i), 1, &[&model]).unwrap();
        }
        let old = std::fs::read(&path).unwrap();
        store.append(&id(N - 1), 1, &[&model]).unwrap();
        let new = std::fs::read(&path).unwrap();
        let published = store.entries();
        assert_eq!(published.len(), N);
        let record_end = record_end(&store) as usize;
        assert!(
            old.len() > record_end,
            "the last record outgrew the previous footer"
        );
        // The new file up to `len`, over what the file held before.
        let image = |len: usize| {
            let mut bytes = new[..len].to_vec();
            if old.len() > len {
                bytes.extend_from_slice(&old[len..]);
            }
            bytes
        };
        let mut images = vec![
            ("footer missing", new[..record_end].to_vec()),
            ("previous trailer at the end", image(record_end)),
        ];
        for len in record_end..=new.len() {
            images.push(("new footer prefix", image(len)));
        }
        // The trim of a tail left by an earlier torn append never reached
        // the disk.
        let mut stale = new.clone();
        stale.resize(new.len() + 4096, 0xA5);
        images.push(("stale tail past the new footer", stale));
        let again = fit(24, &x, &y);
        for (what, bytes) in images {
            let context = format!("{what}, {} bytes", bytes.len());
            std::fs::write(&path, &bytes).unwrap();
            let reopened = ModelStore::open(&path).unwrap();
            assert_eq!(reopened.entries(), published, "{context}");
            for entry in &published {
                reopened.load_record(entry).unwrap();
            }
            reopened.append("again", 1, &[&again]).unwrap();
            // The append left a whole footer at the end of the file.
            let len = std::fs::metadata(&path).unwrap().len();
            let footer = read_footer(&mut File::open(&path).unwrap(), len);
            assert!(footer.is_ok(), "{context}: footer not rewritten");
            let after = ModelStore::open(&path).unwrap().entries();
            assert_eq!(after[..N], published[..], "{context}");
            assert_eq!(after.len(), N + 1, "{context}");
        }
    }

    /// Everything a store state lists: model entries, encoder records
    /// with their fingerprints, the index cache, its hash, and the record
    /// end.
    type Listing = (Vec<StoreEntry>, Vec<(u64, u64, u64)>, Vec<u8>, u64, u64);

    fn listing(st: &StoreState) -> Listing {
        let encoders = st
            .encoders
            .iter()
            .map(|e| (e.offset, e.total_len, e.fingerprint))
            .collect();
        (
            st.entries.clone(),
            encoders,
            st.index.clone(),
            st.index_hash,
            st.record_end,
        )
    }

    /// A run of appends mixing new encoders, shared encoders, 3-tier
    /// ladders and one rolled-back append leaves the index a live store
    /// built incrementally equal to the one the footer holds and the one a
    /// scan rebuilds, and stores reopened either way dedupe exactly as the
    /// live one does.
    #[test]
    fn incremental_index_equals_a_full_rebuild() {
        let dir = tempdir("fleet-incremental-index");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        // `ladder` fits at dim 64; these three each bring their own encoder.
        let (a, b, c) = (fit(48, &x, &y), fit(56, &x, &y), fit(80, &x, &y));
        let tiers = ladder(&x, &y);
        let store = ModelStore::create(&path).unwrap();
        store.append("a", 1, &[&a]).unwrap();
        store.append("a-copy", 1, &[&a]).unwrap();
        store
            .append("ladder", 1, &tiers.iter().collect::<Vec<_>>())
            .unwrap();

        // A two-tier append fails after its first tier listed a new
        // encoder: the second shares a's encoder, whose record the
        // externally truncated file no longer holds.
        let intact = std::fs::read(&path).unwrap();
        let before = listing(&store.state.lock().unwrap());
        let a_encoder = store.state.lock().unwrap().encoders[0].offset;
        std::fs::write(&path, &intact[..a_encoder as usize + 16]).unwrap();
        let err = store.append("failed", 1, &[&b, &a]).unwrap_err();
        assert!(err.to_string().contains("read"), "unexpected error: {err}");
        assert_eq!(
            listing(&store.state.lock().unwrap()),
            before,
            "the failed append left a trace"
        );
        assert!(store.versions("failed").is_empty());
        std::fs::write(&path, &intact).unwrap();

        store.append("b", 1, &[&b]).unwrap();
        store.append("ladder", 2, &[&a, &b, &tiers[2]]).unwrap();
        let live = listing(&store.state.lock().unwrap());
        let bytes = std::fs::read(&path).unwrap();
        let mut file = File::open(&path).unwrap();
        let footer = read_footer(&mut file, bytes.len() as u64).unwrap();
        let scan = recover_by_scan(&mut file, bytes.len() as u64).unwrap();
        assert_eq!(listing(&footer), live);
        assert_eq!(listing(&scan), live);

        let by_footer = dir.join("by-footer.bhfs");
        let by_scan = dir.join("by-scan.bhfs");
        std::fs::write(&by_footer, &bytes).unwrap();
        std::fs::write(&by_scan, &bytes[..bytes.len() - 24]).unwrap();
        let reopened = [
            ModelStore::open(&by_footer).unwrap(),
            ModelStore::open(&by_scan).unwrap(),
        ];
        for (store, how) in [(&store, "live")]
            .into_iter()
            .chain(reopened.iter().zip(["footer", "scan"]))
        {
            store.append("mixed", 1, &[&tiers[1], &c, &b]).unwrap();
            assert_eq!(store.entries().len(), live.0.len() + 3, "{how}");
        }
        let want = std::fs::read(&path).unwrap();
        assert_eq!(std::fs::read(&by_footer).unwrap(), want);
        assert_eq!(std::fs::read(&by_scan).unwrap(), want);
    }

    /// Two encoders that differ only in a projection word the sampled
    /// fingerprint skips share a fingerprint, but not a record; an
    /// identical encoder writes none.
    #[test]
    fn encoders_sharing_a_fingerprint_are_told_apart_by_their_bytes() {
        let dir = tempdir("fleet-fingerprint-guard");
        let (x, y) = toy();
        let base = fit(256, &x, &y);
        let online = base.downcast_ref::<OnlineHd>().unwrap();
        let body = EncoderBody::new(online.encoder());
        let words = body.heap_len() / 8;
        let sampled: Vec<usize> = (0..FINGERPRINT_SAMPLES)
            .map(|i| i * words / FINGERPRINT_SAMPLES)
            .collect();
        let mut projection_t = online.encoder().projection_t().unwrap().clone();
        let skipped = (0..projection_t.as_slice().len() / 2)
            .find(|w| !sampled.contains(w))
            .unwrap();
        projection_t.as_mut_slice()[2 * skipped] += 1.0;
        let encoder =
            SinusoidEncoder::from_parts_transposed(projection_t, online.encoder().bias().to_vec())
                .unwrap();
        let twin_body = EncoderBody::new(&encoder);
        assert_eq!(body_fingerprint(&twin_body), body_fingerprint(&body));
        let twin_parts = twin_body.to_parts();
        assert!(!body.matches(&twin_parts.structure, &twin_parts.heap));
        let twin = Pipeline::from_model(
            base.spec().clone(),
            Box::new(
                OnlineHd::from_parts(
                    encoder,
                    online.class_memory().clone(),
                    Classifier::num_classes(online),
                    *online.config(),
                )
                .unwrap(),
            ),
        );
        assert_ne!(
            twin.predict_batch_with_confidence(&x),
            base.predict_batch_with_confidence(&x),
            "the twin must be told apart by what it predicts"
        );

        // Across appends (stored candidate) and within one (this
        // append's own records).
        let across = ModelStore::create(dir.join("across.bhfs")).unwrap();
        across.append("base", 1, &[&base]).unwrap();
        across.append("twin", 1, &[&twin]).unwrap();
        let within = ModelStore::create(dir.join("within.bhfs")).unwrap();
        within.append("pair", 1, &[&base, &twin]).unwrap();
        for store in [&across, &within] {
            assert_eq!(store.state.lock().unwrap().encoders.len(), 2);
            let before = record_end(store);
            store.append("twin-copy", 1, &[&twin]).unwrap();
            let copy = store.entries().last().unwrap().total_len;
            assert_eq!(record_end(store) - before, copy, "a copy wrote an encoder");
            let reopened = ModelStore::open(store.path()).unwrap();
            let entries = reopened.entries();
            for (entry, fitted) in entries.iter().zip([&base, &twin, &twin]) {
                assert_eq!(
                    reopened
                        .load_record(entry)
                        .unwrap()
                        .predict_batch_with_confidence(&x),
                    fitted.predict_batch_with_confidence(&x)
                );
            }
        }
    }

    #[test]
    fn retiring_list_stays_bounded_without_in_flight_snapshots() {
        let dir = tempdir("fleet-retiring");
        let path = dir.join("models.bhfs");
        let (x, y) = toy();
        let store = ModelStore::create(&path).unwrap();
        store.append("m", 1, &[&fit(32, &x, &y)]).unwrap();
        let fleet = Fleet::new(store, FleetConfig::default());
        for _ in 0..10_000 {
            fleet.get("m").unwrap();
            assert!(fleet.evict("m"));
        }
        assert!(fleet.state.lock().unwrap().retiring.len() <= 1);
        assert_eq!(fleet.draining_count(), 0);
    }

    #[test]
    fn missing_models_error_descriptively() {
        let dir = tempdir("fleet-missing");
        let path = dir.join("models.bhfs");
        let store = ModelStore::create(&path).unwrap();
        let fleet = Fleet::new(store, FleetConfig::default());
        let err = fleet.get("ghost").unwrap_err().to_string();
        assert!(err.contains("ghost"), "unexpected error: {err}");
    }

    /// End of the record region (excludes the footer).
    fn record_end(store: &ModelStore) -> u64 {
        store.state.lock().unwrap().record_end
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("boosthd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
