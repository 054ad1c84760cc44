//! The [`Pipeline`] facade: config-driven training, confidence-aware
//! prediction, and one persistence envelope for every model family.
//!
//! The reproduction used to expose one bespoke config struct and ad-hoc
//! `fit`/`to_bytes` pair per model; a caller wiring a healthcare
//! deployment had to know five APIs and two blob formats. This module is
//! the single front door the ROADMAP's "architecture that enables all
//! three" step asks for:
//!
//! * [`Pipeline::fit`] turns a declarative [`ModelSpec`] into a trained
//!   model ([`Box<dyn Model>`] under the hood) — every family in the
//!   evaluation, HDC and classical, through one call;
//! * [`Pipeline::predict_with_confidence`] returns normalized per-class
//!   probabilities, the top-two margin, and an abstention flag driven by a
//!   configurable threshold — the "how sure are we?" signal an
//!   abstain/escalate clinical workflow gates on (the paper's reliability
//!   argument made operational);
//! * [`Pipeline::save`]/[`Pipeline::load`] frame the model's record body
//!   (the one encoding the fleet store also writes; see
//!   [`crate::persist`]) in a versioned envelope that also records the
//!   spec, so a deployed artifact knows how to rebuild and re-evaluate
//!   itself, and loads zero-copy.
//!
//! # Example
//!
//! ```
//! use boosthd::{ModelSpec, OnlineHdConfig, Pipeline};
//! use linalg::{Matrix, Rng64};
//!
//! let mut rng = Rng64::seed_from(9);
//! let x = Matrix::random_normal(60, 3, &mut rng);
//! let y: Vec<usize> = (0..60).map(|i| i % 2).collect();
//!
//! let spec = ModelSpec::OnlineHd(OnlineHdConfig { dim: 128, epochs: 3, ..Default::default() });
//! let pipeline = Pipeline::fit(&spec, &x, &y)?.with_abstain_threshold(0.55);
//!
//! let p = pipeline.predict_with_confidence(x.row(0));
//! assert!((0.0..=1.0).contains(&p.confidence));
//! assert_eq!(p.probabilities.len(), 2);
//!
//! // One envelope for every family: save, load, identical predictions.
//! let bytes = pipeline.to_bytes()?;
//! let restored = Pipeline::from_bytes(&bytes)?;
//! assert_eq!(pipeline.predict_batch(&x), restored.predict_batch(&x));
//! assert_eq!(restored.spec(), pipeline.spec());
//! # Ok::<(), boosthd::BoostHdError>(())
//! ```

use std::any::Any;
use std::sync::Mutex;

use crate::boost::BoostHd;
use crate::centroid::CentroidHd;
use crate::classifier::{argmax, predict_batch_chunked, Classifier};
use crate::error::{BoostHdError, Result};
use crate::memory::Precision;
use crate::online::{OnlineHd, OnlineHdConfig};
use crate::persist::{encoder_from_parts, EncoderBody, Reader, RecordParts, Writer};
use crate::spec::{BaselineSpec, ModelSpec};
use crate::BoostHdConfig;
use faults::BitflipReport;
use hdc::encoder::SinusoidEncoder;
use linalg::autotune::{Tuning, TuningSource};
use linalg::{Blob, Matrix, Rng64};
use std::sync::Arc;

fn pipeline_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::DataMismatch {
        reason: reason.into(),
    }
}

/// Which model body a [`Model`] serializes as: one per HDC family,
/// whatever the precision of its class memory (the body records that
/// itself; see [`crate::persist`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// OnlineHD ([`OnlineHd`]).
    OnlineHd,
    /// Centroid model ([`CentroidHd`]).
    CentroidHd,
    /// Boosted ensemble ([`BoostHd`]).
    BoostHd,
    /// No binary codec (the classical baselines); saving reports a clear
    /// error instead of writing an unreadable blob.
    Unsupported,
}

impl PayloadKind {
    fn tag(self) -> u8 {
        match self {
            PayloadKind::Unsupported => 0,
            PayloadKind::OnlineHd => 1,
            PayloadKind::CentroidHd => 2,
            PayloadKind::BoostHd => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => PayloadKind::Unsupported,
            1 => PayloadKind::OnlineHd,
            2 => PayloadKind::CentroidHd,
            3 => PayloadKind::BoostHd,
            other => return Err(pipeline_err(format!("unknown payload kind {other}"))),
        })
    }

    /// Decodes a model of this kind from `r` (record body, header
    /// included).
    fn decode(self, r: &mut Reader<'_>) -> Result<Box<dyn Model>> {
        Ok(match self {
            PayloadKind::OnlineHd => Box::new(OnlineHd::decode_from(r)?),
            PayloadKind::CentroidHd => Box::new(CentroidHd::decode_from(r)?),
            PayloadKind::BoostHd => Box::new(BoostHd::decode_from(r)?),
            PayloadKind::Unsupported => {
                return Err(pipeline_err(
                    "no loadable payload (baseline families have no codec)",
                ))
            }
        })
    }
}

/// A trained model behind the [`Pipeline`] facade: classification plus the
/// persistence hooks the envelope needs, object-safe so heterogeneous
/// model zoos are `Vec<Pipeline>` instead of bespoke enums.
///
/// Implemented by the three HDC families here (at every class-memory
/// precision) and by the classical baselines in the `baselines` crate.
pub trait Model: Classifier + Send + Sync {
    /// Which model body [`Model::encode_store`] writes.
    fn payload_kind(&self) -> PayloadKind;

    /// Clones the trained model behind the trait object (fault-injection
    /// campaigns corrupt a fresh clone per trial; `Box<dyn Model>` cannot
    /// derive `Clone`).
    fn clone_box(&self) -> Box<dyn Model>;

    /// Flips each stored parameter bit independently with probability
    /// `p_b`, drawing flip positions from `rng` — the memory-fault model
    /// of the paper's Section IV-D. f32 class memories take IEEE-754 word
    /// flips ([`faults::flip_bits`]), int8 memories byte flips
    /// ([`faults::flip_i8_bits`]), and packed 1-bit memories sign-bit flips
    /// ([`faults::flip_sign_bits`]).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families that expose no
    /// parameter storage (the tree-based baselines).
    fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport>;

    /// Kept so existing `Model` wrappers that forward it still compile;
    /// nothing in this crate calls it. Models serialize only through
    /// [`Model::encode_store`]; save a [`Pipeline`] to get bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] unless overridden.
    fn to_payload(&self) -> Result<Vec<u8>> {
        Err(BoostHdError::InvalidConfig {
            reason: "models serialize through Model::encode_store; save a Pipeline instead".into(),
        })
    }

    /// Writes the model's record body through `w`: the structure stream
    /// plus the zero-copy payload heap that both the fleet store and the
    /// `.bhde` envelope persist.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// codec (the default implementation).
    fn encode_store(&self, w: &mut Writer) -> Result<()> {
        let _ = w;
        Err(BoostHdError::InvalidConfig {
            reason: "model family has no binary codec; only the HDC models persist".into(),
        })
    }

    /// Upcast for concrete-type escape hatches ([`Pipeline::downcast_ref`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast ([`Pipeline::downcast_mut`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

macro_rules! impl_hdc_model {
    ($ty:ty, $kind:expr) => {
        impl Model for $ty {
            fn payload_kind(&self) -> PayloadKind {
                $kind
            }
            fn clone_box(&self) -> Box<dyn Model> {
                Box::new(self.clone())
            }
            fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport> {
                Ok(<$ty>::inject_bitflips(self, p_b, rng))
            }
            fn encode_store(&self, w: &mut Writer) -> Result<()> {
                self.encode_into(w);
                Ok(())
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
    };
}

impl_hdc_model!(OnlineHd, PayloadKind::OnlineHd);
impl_hdc_model!(CentroidHd, PayloadKind::CentroidHd);
impl_hdc_model!(BoostHd, PayloadKind::BoostHd);

/// Builder the `baselines` crate registers so [`Pipeline::fit`] can
/// construct [`ModelSpec::Baseline`] models without a dependency cycle
/// (`baselines` depends on this crate for the [`Classifier`] trait).
pub type BaselineBuilder = fn(&BaselineSpec, &Matrix, &[usize]) -> Result<Box<dyn Model>>;

static BASELINE_BUILDER: Mutex<Option<BaselineBuilder>> = Mutex::new(None);

/// Registers the process-wide baseline builder (idempotent; the last
/// registration wins). Call `baselines::spec::install()` rather than this
/// directly.
pub fn register_baseline_builder(builder: BaselineBuilder) {
    *BASELINE_BUILDER
        .lock()
        .expect("baseline builder lock poisoned") = Some(builder);
}

fn baseline_builder() -> Result<BaselineBuilder> {
    BASELINE_BUILDER
        .lock()
        .expect("baseline builder lock poisoned")
        .ok_or_else(|| BoostHdError::InvalidConfig {
            reason: "no baseline builder registered — call baselines::spec::install() \
                     before fitting ModelSpec::Baseline"
                .into(),
        })
}

/// Softmax-normalized per-class probabilities for one score row.
///
/// Model score scales differ (cosine similarities, `α`-weighted votes,
/// margins, log-odds); the softmax puts them all on one `[0, 1]`,
/// sums-to-one scale whose argmax agrees with the raw scores. Non-finite
/// scores carry no evidence and map to probability 0; a row with no finite
/// score at all returns all zeros (so downstream confidence gating
/// abstains instead of trusting garbage).
pub fn normalized_probabilities(scores: &[f32]) -> Vec<f32> {
    let max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return vec![0.0; scores.len()];
    }
    let exps: Vec<f32> = scores
        .iter()
        .map(|&s| if s.is_finite() { (s - max).exp() } else { 0.0 })
        .collect();
    let sum: f32 = exps.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![0.0; scores.len()];
    }
    exps.iter().map(|e| (e / sum).clamp(0.0, 1.0)).collect()
}

/// One confidence-aware prediction; see
/// [`Pipeline::predict_with_confidence`].
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted class (argmax of the raw scores).
    pub class: usize,
    /// Probability of the predicted class, in `[0, 1]` (0 when the score
    /// row carried no finite evidence).
    pub confidence: f32,
    /// Top-1 minus top-2 probability, in `[0, 1]` — the separation signal
    /// the reliability literature gates on.
    pub margin: f32,
    /// Softmax-normalized per-class probabilities
    /// ([`normalized_probabilities`]).
    pub probabilities: Vec<f32>,
    /// Whether the confidence fell below the pipeline's abstention
    /// threshold.
    pub abstained: bool,
}

impl Prediction {
    /// The gated decision: `Some(class)` when confident enough, `None`
    /// when the pipeline abstained (escalate to a clinician / stronger
    /// model).
    pub fn decision(&self) -> Option<usize> {
        if self.abstained {
            None
        } else {
            Some(self.class)
        }
    }
}

/// `"BHDP"` little-endian — the envelope magic (distinct from the inner
/// model-blob magic so the two layers cannot be confused).
const ENVELOPE_MAGIC: u32 = 0x5044_4842;
/// The one envelope version this build reads and writes (layout at
/// [`Pipeline::to_bytes`]).
const ENVELOPE_VERSION: u8 = 4;

/// The unified model facade; see the [module docs](self).
pub struct Pipeline {
    spec: ModelSpec,
    model: Box<dyn Model>,
    abstain_threshold: f32,
    saved_tuning: Option<Tuning>,
}

impl Clone for Pipeline {
    fn clone(&self) -> Self {
        Self {
            spec: self.spec.clone(),
            model: self.model.clone_box(),
            abstain_threshold: self.abstain_threshold,
            saved_tuning: self.saved_tuning,
        }
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .field("abstain_threshold", &self.abstain_threshold)
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Trains the model `spec` describes on feature rows `x` with labels
    /// `y` — the one construction path every experiment binary, example,
    /// and deployment goes through.
    ///
    /// # Errors
    ///
    /// * [`BoostHdError::InvalidConfig`] for invalid hyperparameters, a
    ///   garbage `HDC_THREADS`/`HDC_FORCE_SCALAR` environment value, or an
    ///   unregistered baseline builder;
    /// * [`BoostHdError::DataMismatch`] for inconsistent training data.
    pub fn fit(spec: &ModelSpec, x: &Matrix, y: &[usize]) -> Result<Self> {
        crate::parallel::validate_runtime_env()?;
        let model: Box<dyn Model> = match spec {
            ModelSpec::OnlineHd(c) => Box::new(OnlineHd::fit(c, x, y)?),
            ModelSpec::CentroidHd(c) => Box::new(CentroidHd::fit(c, x, y)?),
            ModelSpec::BoostHd(c) => Box::new(BoostHd::fit(c, x, y)?),
            ModelSpec::Baseline(b) => baseline_builder()?(b, x, y)?,
        };
        Ok(Self {
            spec: spec.clone(),
            model,
            abstain_threshold: 0.0,
            saved_tuning: None,
        })
    }

    /// A sibling pipeline whose class memory is frozen at `precision`
    /// (data-free; an identical encoder and the same abstention threshold) —
    /// one rung of a degrade ladder. The spec records the new precision.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] unless the pipeline holds an
    /// f32 OnlineHD or BoostHD model (the families whose spec carries a
    /// precision).
    pub fn with_precision(&self, precision: Precision) -> Result<Self> {
        let unsupported = || BoostHdError::InvalidConfig {
            reason: format!(
                "`{}` pipelines have no precision ladder (f32 online_hd/boost_hd only)",
                self.spec.display_name()
            ),
        };
        let (spec, model): (ModelSpec, Box<dyn Model>) = match &self.spec {
            ModelSpec::OnlineHd(c) => {
                let m = self.downcast_ref::<OnlineHd>().ok_or_else(unsupported)?;
                let spec = ModelSpec::OnlineHd(OnlineHdConfig {
                    precision,
                    refit_epochs: 0,
                    ..*c
                });
                (spec, Box::new(m.with_precision(precision)?))
            }
            ModelSpec::BoostHd(c) => {
                let m = self.downcast_ref::<BoostHd>().ok_or_else(unsupported)?;
                let spec = ModelSpec::BoostHd(BoostHdConfig {
                    precision,
                    refit_epochs: 0,
                    ..*c
                });
                (spec, Box::new(m.with_precision(precision)?))
            }
            _ => return Err(unsupported()),
        };
        Ok(Self::from_model(spec, model).with_abstain_threshold(self.abstain_threshold))
    }

    /// Wraps an already-trained model with its spec (the load path, and
    /// the escape hatch for models trained outside the facade).
    pub fn from_model(spec: ModelSpec, model: Box<dyn Model>) -> Self {
        Self {
            spec,
            model,
            abstain_threshold: 0.0,
            saved_tuning: None,
        }
    }

    /// The kernel-tuning record the envelope this pipeline was loaded from
    /// carried (the [`linalg::autotune`] result of the machine that saved
    /// it) — provenance for performance triage, never an input to
    /// prediction. `None` for freshly-fit pipelines.
    pub fn saved_tuning(&self) -> Option<Tuning> {
        self.saved_tuning
    }

    /// The spec the model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The trained model behind the facade.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Concrete-type view of the trained model, when the caller knows the
    /// family (fault-injection sweeps cloning the model, streaming updates
    /// on [`OnlineHd`], ...).
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.model.as_any().downcast_ref::<T>()
    }

    /// Mutable concrete-type view ([`Pipeline::downcast_ref`]).
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.model.as_any_mut().downcast_mut::<T>()
    }

    /// Flips stored parameter bits of the model behind the facade with
    /// per-bit probability `p_b` — memory-fault injection without
    /// downcasting to the concrete family (see
    /// [`Model::inject_bitflips`]). The campaign engine clones a pipeline
    /// and corrupts the clone, one trial at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families that expose no
    /// parameter storage.
    pub fn inject_bitflips(&mut self, p_b: f64, rng: &mut Rng64) -> Result<BitflipReport> {
        self.model.inject_bitflips(p_b, rng)
    }

    /// Sets the abstention threshold: predictions whose confidence falls
    /// below it report `abstained = true`. `0.0` (the default) never
    /// abstains. Returns `self` for chaining.
    pub fn with_abstain_threshold(mut self, threshold: f32) -> Self {
        self.set_abstain_threshold(threshold);
        self
    }

    /// In-place [`Pipeline::with_abstain_threshold`].
    pub fn set_abstain_threshold(&mut self, threshold: f32) {
        self.abstain_threshold = threshold.clamp(0.0, 1.0);
    }

    /// The active abstention threshold.
    pub fn abstain_threshold(&self) -> f32 {
        self.abstain_threshold
    }

    /// Predicted class for one feature vector (ungated; see
    /// [`Pipeline::predict_with_confidence`] for the reliability-aware
    /// form).
    pub fn predict(&self, x: &[f32]) -> usize {
        self.model.predict(x)
    }

    /// Predicted classes for every row of `x`, through the model's batched
    /// path.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        self.model.predict_batch(x)
    }

    /// [`Pipeline::predict_batch`] fanned out over `threads` contiguous row
    /// chunks on the process-wide worker pool (identical results for any
    /// thread count).
    pub fn predict_batch_parallel(&self, x: &Matrix, threads: usize) -> Vec<usize> {
        predict_batch_chunked(self, x, threads)
    }

    fn prediction_from_scores(&self, scores: &[f32]) -> Prediction {
        let probabilities = normalized_probabilities(scores);
        let class = argmax(scores);
        let mut top = 0.0f32;
        let mut second = 0.0f32;
        for &p in &probabilities {
            if p > top {
                second = top;
                top = p;
            } else if p > second {
                second = p;
            }
        }
        let confidence = probabilities.get(class).copied().unwrap_or(0.0);
        Prediction {
            class,
            confidence,
            margin: (top - second).clamp(0.0, 1.0),
            probabilities,
            abstained: self.abstain_threshold > 0.0 && confidence < self.abstain_threshold,
        }
    }

    /// Confidence-aware prediction for one feature vector: normalized
    /// per-class probabilities, top-two margin, and the abstention flag
    /// (see [`Prediction`]).
    pub fn predict_with_confidence(&self, x: &[f32]) -> Prediction {
        self.prediction_from_scores(&self.model.scores(x))
    }

    /// Confidence-aware predictions for every row of `x`, through the
    /// model's batched scoring path (row-identical to the single-sample
    /// form).
    pub fn predict_batch_with_confidence(&self, x: &Matrix) -> Vec<Prediction> {
        let scores = self.model.scores_batch(x);
        (0..scores.rows())
            .map(|r| self.prediction_from_scores(scores.row(r)))
            .collect()
    }

    /// [`Pipeline::predict_batch_with_confidence`] fanned out over
    /// `threads` contiguous row chunks on the chosen execution backend —
    /// the network serving flush primitive. Scoring is row-independent, so
    /// the result is identical to the single-threaded form for any thread
    /// count and either backend.
    pub fn predict_batch_with_confidence_chunked(
        &self,
        x: &Matrix,
        threads: usize,
        backend: crate::parallel::ExecBackend,
    ) -> Vec<Prediction> {
        let rows = x.rows();
        let workers = threads.clamp(1, rows.max(1));
        if workers <= 1 {
            return self.predict_batch_with_confidence(x);
        }
        crate::parallel::parallel_map_indices_with(backend, workers, workers, |w| {
            let (start, end) = crate::parallel::chunk_bounds(rows, workers, w);
            self.predict_batch_with_confidence(&x.slice_rows(start, end))
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Serializes the pipeline into the versioned envelope (BHDP v4):
    ///
    /// ```text
    /// envelope := magic:u32 version:u8(=4) kind:u8 score_chunk:u32
    ///             threads:u32 source:u8 0:u8       (16 bytes: parts start 8-aligned)
    ///             part                             (the model record body)
    ///             encoders:u64 part[encoders]      (one per stored encoder)
    /// part     := structure_len:u64 heap_len:u64 structure 0:u8[pad to 8] heap
    /// ```
    ///
    /// The model part is exactly the fleet store's record body (payload
    /// kind, abstention threshold, spec TOML, then the model body of
    /// [`crate::persist`]), and its encoder references index the encoder
    /// parts in order; each encoder part is the store's encoder body (the
    /// transposed projection, then the phases). Every heap starts 8-aligned
    /// within the envelope. The save-time kernel-tuning record
    /// ([`TuningSource`] tag last) is diagnostic provenance only —
    /// predictions never depend on it — so loading replays nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// binary codec (the classical baselines).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let (model, encoders) = self.encode_store_parts()?;
        let tuning = linalg::autotune::tuning();
        let mut out = Vec::new();
        out.extend_from_slice(&ENVELOPE_MAGIC.to_le_bytes());
        out.push(ENVELOPE_VERSION);
        out.push(self.model.payload_kind().tag());
        out.extend_from_slice(&(tuning.score_chunk as u32).to_le_bytes());
        out.extend_from_slice(&(tuning.threads as u32).to_le_bytes());
        out.push(tuning.source.tag());
        out.push(0);
        put_part(&mut out, &model);
        out.extend_from_slice(&(encoders.len() as u64).to_le_bytes());
        for encoder in &encoders {
            put_part(&mut out, &EncoderBody::new(encoder).to_parts());
        }
        Ok(out)
    }

    /// Deserializes an envelope written by [`Pipeline::to_bytes`],
    /// restoring the spec, abstention threshold, and model. The bytes are
    /// copied once into an aligned blob the model then borrows its class
    /// memories and projections from.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated or corrupt
    /// envelopes, and [`BoostHdError::InvalidConfig`] when the embedded
    /// spec disagrees with the payload kind.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_blob(Arc::new(Blob::from_bytes(bytes)))
    }

    /// [`Pipeline::from_bytes`] over an envelope already in a blob, which
    /// the decoded model keeps alive through its zero-copy views.
    pub(crate) fn from_blob(blob: Arc<Blob>) -> Result<Self> {
        let bytes = blob.as_bytes();
        let mut r = Reader::new(bytes, Arc::clone(&blob), 0, 0, &[])?;
        if r.get_u32()? != ENVELOPE_MAGIC {
            return Err(pipeline_err("not a pipeline envelope (bad magic)"));
        }
        let version = r.get_u8()?;
        if version != ENVELOPE_VERSION {
            return Err(pipeline_err(format!(
                "unsupported envelope version {version} (this build reads version \
                 {ENVELOPE_VERSION} only)"
            )));
        }
        let kind = PayloadKind::from_tag(r.get_u8()?)?;
        let score_chunk = r.get_u32()? as usize;
        let threads = r.get_u32()? as usize;
        let source = TuningSource::from_tag(r.get_u8()?)
            .ok_or_else(|| pipeline_err("unknown tuning-source tag in envelope"))?;
        if r.get_u8()? != 0 {
            return Err(pipeline_err("nonzero envelope header padding"));
        }
        let model = get_part(&mut r)?;
        // Each encoder part is at least 16 bytes, so a corrupt count runs
        // out of input long before it could exhaust memory.
        let encoder_parts = (0..r.get_len()?)
            .map(|_| get_part(&mut r))
            .collect::<Result<Vec<_>>>()?;
        if !r.is_exhausted() {
            return Err(pipeline_err("trailing bytes after pipeline envelope"));
        }
        let encoders = encoder_parts
            .iter()
            .map(|p| {
                encoder_from_parts(
                    &bytes[p.structure.clone()],
                    Arc::clone(&blob),
                    p.heap.start,
                    p.heap.len(),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let mut pipeline = Self::decode_store_parts(
            &bytes[model.structure],
            Arc::clone(&blob),
            model.heap.start,
            model.heap.len(),
            &encoders,
        )?;
        if expected_payload_kind(&pipeline.spec) != kind {
            return Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "envelope payload kind disagrees with its spec (`{}`)",
                    pipeline.spec.kind_tag()
                ),
            });
        }
        pipeline.saved_tuning = Some(Tuning {
            score_chunk,
            threads,
            source,
        });
        Ok(pipeline)
    }

    /// Writes the envelope to a file — atomically. The bytes land in a
    /// same-directory temp file, are fsynced, and only then renamed over
    /// `path`, so a crash or kill mid-save leaves either the previous
    /// artifact or the complete new one, never a torn envelope that
    /// [`Pipeline::load`] would reject (or worse, misload).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::to_bytes`], plus I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let bytes = self.to_bytes()?;
        crate::persist::atomic_write(path.as_ref(), &bytes).map_err(|e| pipeline_err(e.to_string()))
    }

    /// Reads an envelope written by [`Pipeline::save`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_bytes`], plus I/O failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| pipeline_err(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Serializes the pipeline's model record body — the one encoding both
    /// the fleet store and the envelope persist — returning it with the
    /// stored encoders it references, as copy-on-write clones of the live
    /// encoders rather than serialized. The body's structure stream holds
    /// the payload kind, abstention threshold, spec TOML, and the model's
    /// scalar skeleton, while every bulk class-memory array (class
    /// matrices, packed words, int8 grids) lands in the 8-byte-aligned
    /// payload heap at an offset the structure stream records. Each stored encoder appears in the stream only as an index
    /// into the returned encoder list, so the store can write it once and
    /// share it. [`Pipeline::decode_store_parts`] serves the heap arrays
    /// zero-copy out of the loaded blob.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] for families without a
    /// binary codec (the classical baselines).
    pub(crate) fn encode_store_parts(&self) -> Result<(RecordParts, Vec<SinusoidEncoder>)> {
        let kind = self.model.payload_kind();
        if kind == PayloadKind::Unsupported {
            return Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "model family `{}` has no binary codec; only the HDC models persist",
                    self.spec.display_name()
                ),
            });
        }
        let spec_toml = self.spec.to_toml();
        let mut w = Writer::new();
        w.put_u8(kind.tag());
        w.put_f32(self.abstain_threshold);
        w.put_u64(spec_toml.len() as u64);
        for &b in spec_toml.as_bytes() {
            w.put_u8(b);
        }
        self.model.encode_store(&mut w)?;
        Ok(w.into_parts())
    }

    /// Rebuilds a pipeline from a model record body: `structure` is the
    /// stream [`Pipeline::encode_store_parts`] produced,
    /// `blob[heap_base..heap_base + heap_len]` its payload heap, and
    /// `encoders` the decoded encoders its references index, in order.
    /// The decoded model's bulk arrays stay zero-copy views into `blob`,
    /// and its encoders share their projections with `encoders` (both kept
    /// alive by reference counting) until something mutates them.
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::DataMismatch`] for truncated or corrupt
    /// records, and [`BoostHdError::InvalidConfig`] when the embedded
    /// spec disagrees with the payload kind.
    pub(crate) fn decode_store_parts(
        structure: &[u8],
        blob: Arc<Blob>,
        heap_base: usize,
        heap_len: usize,
        encoders: &[SinusoidEncoder],
    ) -> Result<Self> {
        let mut r = Reader::new(structure, blob, heap_base, heap_len, encoders)?;
        let kind = PayloadKind::from_tag(r.get_u8()?)?;
        let abstain_threshold = r.get_f32()?;
        let spec_len = r.get_len()?;
        let spec_bytes = r.get_bytes(spec_len, "model record spec")?;
        let spec_toml = std::str::from_utf8(spec_bytes)
            .map_err(|_| pipeline_err("model record spec is not valid UTF-8"))?;
        let spec = ModelSpec::from_toml_str(spec_toml)?;
        if expected_payload_kind(&spec) != kind {
            return Err(BoostHdError::InvalidConfig {
                reason: format!(
                    "model record payload kind disagrees with its spec (`{}`)",
                    spec.kind_tag()
                ),
            });
        }
        let model = kind.decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(pipeline_err("trailing bytes after model record structure"));
        }
        let mut pipeline = Self::from_model(spec, model);
        pipeline.set_abstain_threshold(abstain_threshold);
        Ok(pipeline)
    }
}

/// Appends one envelope part: both lengths, the structure stream padded
/// to 8 bytes, then the (8-padded) heap.
fn put_part(out: &mut Vec<u8>, part: &RecordParts) {
    out.extend_from_slice(&(part.structure.len() as u64).to_le_bytes());
    out.extend_from_slice(&(part.heap.len() as u64).to_le_bytes());
    out.extend_from_slice(&part.structure);
    out.resize(out.len().next_multiple_of(8), 0);
    out.extend_from_slice(&part.heap);
}

/// Where one envelope part's structure stream and heap sit in the
/// envelope.
struct PartRanges {
    structure: std::ops::Range<usize>,
    heap: std::ops::Range<usize>,
}

/// Reads the part [`put_part`] wrote at the reader's position.
fn get_part(r: &mut Reader<'_>) -> Result<PartRanges> {
    let structure_len = r.get_len()?;
    let heap_len = r.get_len()?;
    let start = r.position();
    r.get_bytes(structure_len, "envelope part structure")?;
    let pad = r.get_bytes(
        structure_len.next_multiple_of(8) - structure_len,
        "envelope padding",
    )?;
    if pad.iter().any(|&b| b != 0) {
        return Err(pipeline_err("nonzero envelope part padding"));
    }
    if !heap_len.is_multiple_of(8) {
        return Err(pipeline_err(format!(
            "envelope part heap of {heap_len} bytes is not 8-padded"
        )));
    }
    let heap_start = r.position();
    r.get_bytes(heap_len, "envelope part heap")?;
    Ok(PartRanges {
        structure: start..start + structure_len,
        heap: heap_start..heap_start + heap_len,
    })
}

/// The payload kind a spec's trained model serializes through.
fn expected_payload_kind(spec: &ModelSpec) -> PayloadKind {
    match spec {
        ModelSpec::OnlineHd(_) => PayloadKind::OnlineHd,
        ModelSpec::CentroidHd(_) => PayloadKind::CentroidHd,
        ModelSpec::BoostHd(_) => PayloadKind::BoostHd,
        ModelSpec::Baseline(_) => PayloadKind::Unsupported,
    }
}

impl Classifier for Pipeline {
    fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.model.scores(x)
    }

    fn scores_batch(&self, x: &Matrix) -> Matrix {
        self.model.scores_batch(x)
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        self.model.predict_batch(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineHdConfig;
    use crate::spec::default_specs;
    use crate::{BoostHdConfig, CentroidHdConfig};
    use linalg::Rng64;

    fn toy() -> (Matrix, Vec<usize>) {
        let mut rng = Rng64::seed_from(12);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 3;
            rows.push(vec![class as f32 + 0.2 * rng.normal(), 0.2 * rng.normal()]);
            labels.push(class);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn hdc_specs() -> Vec<ModelSpec> {
        vec![
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
        ]
    }

    #[test]
    fn every_hdc_spec_fits_and_round_trips_the_envelope() {
        let (x, y) = toy();
        for spec in hdc_specs() {
            let pipeline = Pipeline::fit(&spec, &x, &y)
                .unwrap_or_else(|e| panic!("{} failed to fit: {e}", spec.kind_tag()));
            let name = spec.display_name();
            let restored = Pipeline::from_bytes(&pipeline.to_bytes().unwrap())
                .unwrap_or_else(|e| panic!("{name} failed to reload: {e}"));
            assert_eq!(
                pipeline.predict_batch(&x),
                restored.predict_batch(&x),
                "{name} predictions drifted through the envelope"
            );
            assert_eq!(restored.spec(), &spec, "{name}");
        }
    }

    /// A loaded envelope serves zero-copy: every HDC family borrows its
    /// arrays out of the one blob the envelope was copied into, so the
    /// blob's refcount rises past the caller's handle until the pipeline
    /// is dropped.
    #[test]
    fn envelope_loads_zero_copy_out_of_one_blob() {
        let (x, y) = toy();
        for spec in hdc_specs() {
            let name = spec.display_name();
            let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
            let blob = Arc::new(Blob::from_bytes(&pipeline.to_bytes().unwrap()));
            let loaded = Pipeline::from_blob(Arc::clone(&blob)).unwrap();
            assert!(
                Arc::strong_count(&blob) > 1,
                "{name} copied its arrays out of the envelope"
            );
            assert_eq!(
                pipeline.predict_batch_with_confidence(&x),
                loaded.predict_batch_with_confidence(&x),
                "{name}"
            );
            drop(loaded);
            assert_eq!(Arc::strong_count(&blob), 1, "{name}");
        }
    }

    #[test]
    fn envelope_preserves_abstain_threshold() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.61);
        let restored = Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).unwrap();
        assert!((restored.abstain_threshold() - 0.61).abs() < 1e-6);
    }

    #[test]
    fn corrupt_envelopes_fail_loudly() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Pipeline::from_bytes(&bad_magic).is_err());
        assert!(Pipeline::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Pipeline::from_bytes(&trailing).is_err());
        let mut wrong_version = bytes;
        wrong_version[4] = 9;
        assert!(Pipeline::from_bytes(&wrong_version).is_err());
    }

    #[test]
    fn confidence_is_normalized_and_margin_bounded() {
        let (x, y) = toy();
        for spec in hdc_specs() {
            let pipeline = Pipeline::fit(&spec, &x, &y).unwrap();
            for p in pipeline.predict_batch_with_confidence(&x) {
                assert!(
                    (0.0..=1.0).contains(&p.confidence),
                    "{}: confidence {}",
                    spec.kind_tag(),
                    p.confidence
                );
                assert!((0.0..=1.0).contains(&p.margin));
                let sum: f32 = p.probabilities.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "probabilities sum {sum}");
                assert!(!p.abstained, "threshold 0 never abstains");
            }
        }
    }

    #[test]
    fn batched_confidence_matches_rowwise() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[2], &x, &y).unwrap();
        let batch = pipeline.predict_batch_with_confidence(&x);
        for (r, batched) in batch.iter().enumerate() {
            let single = pipeline.predict_with_confidence(x.row(r));
            assert_eq!(single.class, batched.class);
            assert!((single.confidence - batched.confidence).abs() < 1e-6);
        }
    }

    #[test]
    fn abstention_threshold_gates_monotonically() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y).unwrap();
        let mut previous = 0usize;
        for threshold in [0.0f32, 0.34, 0.6, 0.9, 1.0] {
            pipeline.set_abstain_threshold(threshold);
            let abstained = pipeline
                .predict_batch_with_confidence(&x)
                .iter()
                .filter(|p| p.abstained)
                .count();
            assert!(
                abstained >= previous,
                "raising the threshold to {threshold} reduced abstentions"
            );
            previous = abstained;
        }
        // At threshold 1.0 + ε-free softmax, every 3-class prediction with
        // confidence < 1 abstains; decision() mirrors the flag.
        pipeline.set_abstain_threshold(0.5);
        for p in pipeline.predict_batch_with_confidence(&x) {
            assert_eq!(p.decision().is_none(), p.abstained);
        }
    }

    #[test]
    fn nan_scores_yield_zero_confidence_and_abstain() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.1);
        let p = pipeline.prediction_from_scores(&[f32::NAN, f32::NAN, f32::NAN]);
        assert_eq!(p.confidence, 0.0);
        assert!(p.abstained);
        assert_eq!(p.decision(), None);
        let p = pipeline.prediction_from_scores(&[f32::NAN, 0.4, 0.1]);
        assert_eq!(p.class, 1, "NaN loses to finite scores");
        assert_eq!(p.probabilities[0], 0.0);
    }

    #[test]
    fn abstention_threshold_zero_and_one_edges() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y).unwrap();
        // Threshold 0.0 (the default) never abstains, even on a row with
        // zero confidence (no finite evidence at all).
        pipeline.set_abstain_threshold(0.0);
        let p = pipeline.prediction_from_scores(&[f32::NAN, f32::NAN, f32::NAN]);
        assert_eq!(p.confidence, 0.0);
        assert!(!p.abstained, "threshold 0 must never abstain");
        assert_eq!(p.decision(), Some(0), "documented all-NaN fallback class");
        // Threshold 1.0 abstains on everything except full certainty.
        pipeline.set_abstain_threshold(1.0);
        for p in pipeline.predict_batch_with_confidence(&x) {
            assert_eq!(p.abstained, p.confidence < 1.0);
        }
        let certain = pipeline.prediction_from_scores(&[1.0e4, -1.0e4, -1.0e4]);
        assert_eq!(certain.confidence, 1.0, "softmax saturates");
        assert!(!certain.abstained, "full certainty survives threshold 1.0");
        // Out-of-range thresholds clamp instead of misbehaving.
        pipeline.set_abstain_threshold(7.5);
        assert_eq!(pipeline.abstain_threshold(), 1.0);
        pipeline.set_abstain_threshold(-0.5);
        assert_eq!(pipeline.abstain_threshold(), 0.0);
    }

    #[test]
    fn two_way_ties_pick_the_earliest_class_with_zero_margin() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.6);
        let p = pipeline.prediction_from_scores(&[0.5, 0.5]);
        assert_eq!(p.class, 0, "ties resolve to the earliest index");
        assert_eq!(p.margin, 0.0, "a perfect tie has no separation");
        assert!((p.confidence - 0.5).abs() < 1e-6);
        assert!(p.abstained, "tied 0.5 confidence sits below 0.6");
        // Three-way tie: uniform probabilities, still index 0.
        let p = pipeline.prediction_from_scores(&[2.0, 2.0, 2.0]);
        assert_eq!(p.class, 0);
        assert!((p.confidence - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(p.margin, 0.0);
    }

    #[test]
    fn single_class_models_are_always_certain() {
        let (x, _) = toy();
        let y = vec![0usize; x.rows()];
        for spec in [hdc_specs()[0].clone(), hdc_specs()[1].clone()] {
            let pipeline = Pipeline::fit(&spec, &x, &y)
                .unwrap()
                .with_abstain_threshold(1.0);
            assert_eq!(pipeline.num_classes(), 1, "{}", spec.kind_tag());
            for p in pipeline.predict_batch_with_confidence(&x) {
                assert_eq!(p.class, 0);
                assert_eq!(p.probabilities, vec![1.0]);
                assert_eq!(p.confidence, 1.0);
                assert_eq!(p.margin, 1.0, "top-1 minus a nonexistent top-2");
                assert!(
                    !p.abstained,
                    "a one-class model is certain even at threshold 1.0"
                );
            }
        }
    }

    #[test]
    fn all_nan_and_mixed_nan_rows_pin_the_argmax_fix() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .with_abstain_threshold(0.1);
        // All-NaN row: fallback class 0, zero everything, abstains.
        let p = pipeline.prediction_from_scores(&[f32::NAN; 3]);
        assert_eq!((p.class, p.confidence, p.margin), (0, 0.0, 0.0));
        assert_eq!(p.probabilities, vec![0.0; 3]);
        assert!(p.abstained && p.decision().is_none());
        // The PR-4 argmax regression: NaN must lose to every finite score,
        // including -inf and negatives in later positions.
        let p = pipeline.prediction_from_scores(&[f32::NAN, -5.0, -7.0]);
        assert_eq!(p.class, 1);
        assert_eq!(p.probabilities[0], 0.0, "NaN carries no probability");
        let p = pipeline.prediction_from_scores(&[f32::NEG_INFINITY, f32::NAN]);
        assert_eq!(p.class, 0, "-inf is still finite evidence ordering-wise");
        // +inf saturates the softmax instead of poisoning it: the max
        // filter treats it as non-finite, so the remaining mass wins.
        let p = pipeline.prediction_from_scores(&[f32::INFINITY, 1.0, 0.0]);
        assert!(p.probabilities.iter().all(|q| q.is_finite()));
    }

    #[test]
    fn envelope_with_bumped_unknown_version_fails_with_expected_variant() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        // Byte 4 is the envelope version (after the u32 magic).
        for future_version in [5u8, 9, 250] {
            let mut bumped = bytes.clone();
            bumped[4] = future_version;
            let err = Pipeline::from_bytes(&bumped).unwrap_err();
            assert!(
                matches!(err, BoostHdError::DataMismatch { .. }),
                "version {future_version}: wrong variant {err:?}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported envelope version {future_version}")),
                "{msg}"
            );
            assert!(
                msg.contains(&format!("reads version {ENVELOPE_VERSION} only")),
                "the error must name the supported version: {msg}"
            );
        }
        // Version 0 predates the format and is equally unreadable.
        let mut ancient = bytes.clone();
        ancient[4] = 0;
        assert!(Pipeline::from_bytes(&ancient).is_err());
    }

    #[test]
    fn envelope_with_unknown_model_kind_fails_with_expected_variant() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        // Byte 5 is the payload-kind tag; 4..255 are unassigned.
        for future_kind in [4u8, 42, 255] {
            let mut unknown = bytes.clone();
            unknown[5] = future_kind;
            let err = Pipeline::from_bytes(&unknown).unwrap_err();
            assert!(
                matches!(err, BoostHdError::DataMismatch { .. }),
                "kind {future_kind}: wrong variant {err:?}"
            );
            assert!(
                err.to_string()
                    .contains(&format!("unknown payload kind {future_kind}")),
                "{err}"
            );
        }
        // A *known* kind that disagrees with the embedded spec is a
        // config-level mismatch, also loud, also not a panic.
        let mut mismatched = bytes.clone();
        mismatched[5] = PayloadKind::CentroidHd.tag();
        let err = Pipeline::from_bytes(&mismatched).unwrap_err();
        assert!(matches!(err, BoostHdError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn older_envelope_versions_are_rejected() {
        let (x, y) = toy();
        let bytes = Pipeline::fit(&hdc_specs()[0], &x, &y)
            .unwrap()
            .to_bytes()
            .unwrap();
        for old in [1u8, 2, 3] {
            let mut stale = bytes.clone();
            stale[4] = old;
            let err = Pipeline::from_bytes(&stale).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unsupported envelope version {old}")),
                "{err}"
            );
        }
    }

    #[test]
    fn precision_siblings_keep_the_threshold_and_record_their_precision() {
        let (x, y) = toy();
        for spec in [hdc_specs()[0].clone(), hdc_specs()[2].clone()] {
            let base = Pipeline::fit(&spec, &x, &y)
                .unwrap()
                .with_abstain_threshold(0.3);
            for precision in Precision::ALL {
                let tier = base.with_precision(precision).unwrap();
                assert_eq!(tier.abstain_threshold(), base.abstain_threshold());
                let refit = Pipeline::fit(tier.spec(), &x, &y).unwrap();
                assert_eq!(
                    tier.predict_batch(&x),
                    refit.predict_batch(&x),
                    "{}: the tier spec rebuilds the tier",
                    tier.spec().display_name()
                );
            }
        }
        // Quantized and centroid pipelines have no precision ladder.
        let binary = Pipeline::fit(&hdc_specs()[3], &x, &y).unwrap();
        assert!(binary.with_precision(Precision::Int8).is_err());
        let centroid = Pipeline::fit(&hdc_specs()[1], &x, &y).unwrap();
        assert!(centroid.with_precision(Precision::Int8).is_err());
    }

    #[test]
    fn envelope_records_and_restores_the_tuning_provenance() {
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y).unwrap();
        assert_eq!(
            pipeline.saved_tuning(),
            None,
            "a freshly-fit pipeline has no envelope provenance"
        );
        let restored = Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).unwrap();
        let tuning = restored
            .saved_tuning()
            .expect("envelopes always record tuning");
        assert_eq!(tuning, linalg::autotune::tuning(), "same-process save/load");
        assert!(tuning.score_chunk.is_power_of_two() && tuning.score_chunk >= 64);
        assert!(tuning.threads >= 1);
        // Provenance is diagnostic only: re-saving the restored pipeline
        // stamps the *current* machine's tuning, not the recorded one.
        let again = Pipeline::from_bytes(&restored.to_bytes().unwrap()).unwrap();
        assert_eq!(again.saved_tuning(), restored.saved_tuning());
    }

    #[test]
    fn unregistered_baseline_reports_clear_error() {
        // Nothing in this crate's test binary ever registers a baseline
        // builder (the registration lives in the `baselines` crate), so
        // the registry is guaranteed empty here.
        let ModelSpec::Baseline(_) = &default_specs(1)[7] else {
            panic!("spec order changed");
        };
        let (x, y) = toy();
        let err = Pipeline::fit(&default_specs(1)[7], &x, &y).unwrap_err();
        assert!(
            err.to_string().contains("no baseline builder registered"),
            "{err}"
        );
        assert!(
            err.to_string().contains("baselines::spec::install"),
            "error must tell the caller the fix: {err}"
        );
    }

    #[test]
    fn downcasts_reach_the_concrete_model() {
        let (x, y) = toy();
        let mut pipeline = Pipeline::fit(&hdc_specs()[0], &x, &y).unwrap();
        assert!(pipeline.downcast_ref::<OnlineHd>().is_some());
        assert!(pipeline.downcast_ref::<BoostHd>().is_none());
        let before = pipeline.predict(x.row(0));
        // The mutable downcast reaches OnlineHd's streaming update hook.
        pipeline
            .downcast_mut::<OnlineHd>()
            .unwrap()
            .update(x.row(0), y[0])
            .unwrap();
        let _ = before;
    }

    #[test]
    fn pipeline_is_a_classifier_for_the_serving_engine() {
        fn takes_classifier<C: Classifier + Sync>(_c: &C) {}
        let (x, y) = toy();
        let pipeline = Pipeline::fit(&hdc_specs()[1], &x, &y).unwrap();
        takes_classifier(&pipeline);
        assert_eq!(
            pipeline.predict_batch_parallel(&x, 3),
            pipeline.predict_batch(&x)
        );
    }
}
