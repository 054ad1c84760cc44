//! The system under test, built from the checked-in specs.
//!
//! `[model]` goes through `ModelSpec::from_toml_table`; `[dataset]` and
//! `[serve]` are read with the same keys and defaults as `hdrun`, so a
//! change to a spec or to a library default moves the benchmark. The
//! serving normalizer is prepared exactly as `hdrun serve --listen`
//! prepares it: fitted on the normalized training split.

use std::time::Duration;

use boosthd::parallel::ExecBackend;
use boosthd::toml::{TomlDoc, TomlTable};
use boosthd::{ModelSpec, Pipeline, Prediction};
use boosthd_serve::server::{Backpressure, RowPrep, ServerConfig, ServerTuning};
use boosthd_serve::EngineConfig;
use linalg::Matrix;
use wearables::preprocess::Normalizer;
use wearables::profiles::DatasetProfile;

/// The BoostHD serving spec (backfill, cohort).
pub const SERVING_SPEC: &str = "specs/wesad_boosthd.toml";
/// The per-patient fleet spec (fleet_churn).
pub const FLEET_SPEC: &str = "specs/wesad_fleet.toml";

/// One spec file, resolved.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The `[model]` table.
    pub model: ModelSpec,
    /// The `[dataset]` profile with its overrides applied.
    pub profile: DatasetProfile,
    /// The `[dataset]` seed.
    pub data_seed: u64,
    /// The `[dataset]` held-out fraction.
    pub test_fraction: f64,
    /// `[serve]` micro-batching and server tuning.
    pub server: ServerConfig,
    /// `[serve]` abstention threshold.
    pub abstain_threshold: f32,
}

fn invalid(reason: String) -> String {
    format!("spec: {reason}")
}

fn err(e: impl std::fmt::Display) -> String {
    format!("spec: {e}")
}

fn dataset(t: Option<&TomlTable>) -> Result<(DatasetProfile, u64, f64), String> {
    let name = match t {
        Some(t) if t.get("profile").is_some() => t.get_str("profile").map_err(err)?.to_string(),
        _ => "wesad_like".to_string(),
    };
    let mut profile = match name.as_str() {
        "wesad_like" => wearables::profiles::wesad_like(),
        "nurse_like" => wearables::profiles::nurse_like(),
        "stress_predict_like" => wearables::profiles::stress_predict_like(),
        other => return Err(invalid(format!("unknown dataset profile `{other}`"))),
    };
    let (mut seed, mut test_fraction) = (42u64, 0.3f64);
    if let Some(t) = t {
        let usize_key = |key: &str| t.get_usize(key).map_err(err);
        if t.get("subjects").is_some() {
            profile.subjects = usize_key("subjects")?;
        }
        if t.get("windows_per_state").is_some() {
            profile.windows_per_state = usize_key("windows_per_state")?;
        }
        if t.get("window_samples").is_some() {
            profile.window_samples = usize_key("window_samples")?;
        }
        if t.get("segments").is_some() {
            profile.segments = usize_key("segments")?;
        }
        if t.get("seed").is_some() {
            seed = t.get_u64("seed").map_err(err)?;
        }
        if t.get("test_fraction").is_some() {
            test_fraction = t.get_float("test_fraction").map_err(err)?;
        }
    }
    Ok((profile, seed, test_fraction))
}

fn serve(t: Option<&TomlTable>) -> Result<(ServerConfig, f32), String> {
    let mut engine = EngineConfig::default();
    let mut tuning = ServerTuning::default();
    let mut abstain = 0.0f32;
    let Some(t) = t else {
        return Ok((ServerConfig { engine, tuning }, abstain));
    };
    let has = |key: &str| t.get(key).is_some();
    let u = |key: &str| t.get_u64(key).map_err(err);
    let us = |key: &str| t.get_usize(key).map_err(err);
    if has("max_batch") {
        engine.max_batch = us("max_batch")?;
    }
    if has("max_wait_ms") {
        engine.max_wait = Duration::from_millis(u("max_wait_ms")?);
    }
    if has("threads") {
        engine.threads = Some(us("threads")?);
    }
    if has("exec") {
        let tag = t.get_str("exec").map_err(err)?;
        engine.exec = ExecBackend::from_tag(tag)
            .ok_or_else(|| invalid(format!("[serve] exec must be pooled|scoped, got `{tag}`")))?;
    }
    if has("abstain_threshold") {
        abstain = t.get_float("abstain_threshold").map_err(err)? as f32;
    }
    if has("queue_depth") {
        tuning.queue_depth = us("queue_depth")?.max(1);
    }
    if has("backpressure") {
        let tag = t.get_str("backpressure").map_err(err)?;
        tuning.backpressure = Backpressure::from_tag(tag).ok_or_else(|| {
            invalid(format!(
                "[serve] backpressure must be shed|block, got `{tag}`"
            ))
        })?;
    }
    if has("max_frame_bytes") {
        tuning.max_frame_bytes = us("max_frame_bytes")?.max(64);
    }
    if has("deadline_ms") {
        tuning.deadline_ms = match u("deadline_ms")? {
            0 => None,
            ms => Some(ms),
        };
    }
    if has("read_timeout_ms") {
        tuning.read_timeout_ms = u("read_timeout_ms")?;
    }
    if has("retry_after_ms") {
        tuning.retry_after_ms = u("retry_after_ms")?;
    }
    if has("drain_deadline_ms") {
        tuning.drain_deadline_ms = u("drain_deadline_ms")?;
    }
    if has("degrade") {
        tuning.degrade.enabled = t.get_bool("degrade").map_err(err)?;
    }
    if has("degrade_high_depth") {
        tuning.degrade.high_depth = us("degrade_high_depth")?.max(1);
    }
    if has("degrade_low_depth") {
        tuning.degrade.low_depth = us("degrade_low_depth")?;
    }
    if has("degrade_after") {
        tuning.degrade.degrade_after = us("degrade_after")?.max(1) as u32;
    }
    if has("recover_after") {
        tuning.degrade.recover_after = us("recover_after")?.max(1) as u32;
    }
    if has("watchdog_interval_ms") {
        tuning.watchdog_interval_ms = u("watchdog_interval_ms")?;
    }
    if has("model_check_interval_ms") {
        tuning.model_check_interval_ms = u("model_check_interval_ms")?;
    }
    if has("canary_rows") {
        tuning.canary_rows = us("canary_rows")?;
    }
    Ok((ServerConfig { engine, tuning }, abstain))
}

/// Reads and resolves one spec file (path relative to the repository
/// root, the benchmark's working directory).
///
/// # Errors
///
/// A missing file, a TOML error, or an invalid key value.
pub fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = TomlDoc::parse(&text).map_err(err)?;
    let model_table = doc
        .table("model")
        .ok_or_else(|| invalid(format!("{path} has no [model] table")))?;
    let model = ModelSpec::from_toml_table(model_table).map_err(err)?;
    let (profile, data_seed, test_fraction) = dataset(doc.table("dataset"))?;
    let (server, abstain_threshold) = serve(doc.table("serve"))?;
    Ok(Spec {
        model,
        profile,
        data_seed,
        test_fraction,
        server,
        abstain_threshold,
    })
}

/// A fitted model with the serving prep `hdrun serve --listen` applies.
#[derive(Debug, Clone)]
pub struct Trained {
    /// The fitted pipeline, abstention threshold applied.
    pub pipeline: Pipeline,
    /// The serving normalizer.
    pub normalizer: Normalizer,
    /// Feature-vector width every request carries.
    pub features: usize,
}

/// Regenerates the spec's training split and fits the model on it, as
/// `hdrun train` does, with `model_seed` replacing the model seed when
/// given (the fleet's second version).
///
/// # Errors
///
/// Dataset generation or fitting errors.
pub fn train(spec: &Spec, model_seed: Option<u64>) -> Result<Trained, String> {
    let data = wearables::generate(&spec.profile, spec.data_seed).map_err(err)?;
    let (train, test) = data
        .split_by_subject_fraction(spec.test_fraction, spec.data_seed ^ 0x5117)
        .map_err(err)?;
    let (train, _test) = wearables::dataset::normalize_pair(&train, &test).map_err(err)?;
    let model = match model_seed {
        Some(seed) => reseeded(&spec.model, seed)?,
        None => spec.model.clone(),
    };
    let pipeline = Pipeline::fit(&model, train.features(), train.labels())
        .map_err(err)?
        .with_abstain_threshold(spec.abstain_threshold);
    // As `hdrun serve`: the serving normalizer is fitted on the training
    // split the model saw.
    let normalizer = Normalizer::fit(train.features()).map_err(err)?;
    Ok(Trained {
        pipeline,
        normalizer,
        features: train.num_features(),
    })
}

fn reseeded(model: &ModelSpec, seed: u64) -> Result<ModelSpec, String> {
    let mut spec = model.clone();
    match &mut spec {
        ModelSpec::OnlineHd(c) => c.seed = seed,
        ModelSpec::BoostHd(c) => c.seed = seed,
        ModelSpec::CentroidHd(c) => c.seed = seed,
        other => {
            return Err(invalid(format!(
                "cannot reseed model family {}",
                other.display_name()
            )))
        }
    }
    Ok(spec)
}

/// The admission-time row prep of `hdrun serve --listen`.
pub fn row_prep(normalizer: Normalizer) -> Box<RowPrep> {
    Box::new(move |row: Vec<f32>| {
        let m = Matrix::from_rows(std::slice::from_ref(&row)).expect("validated feature width");
        normalizer.apply(&m).row(0).to_vec()
    })
}

/// Rows per reference call. Scoring the whole pool in one call leaves a
/// transient of 1–3 MB that varies with thread timing and would show in
/// `peak_rss_mb`, which is meant for the system under test.
const REFERENCE_CHUNK: usize = 64;

/// `pipeline.predict_batch_with_confidence` on `rows`, called on
/// `REFERENCE_CHUNK` rows at a time. The repository's batch/row contract
/// makes the result identical to one call on all rows.
pub fn reference(pipeline: &Pipeline, rows: &Matrix) -> Vec<Prediction> {
    (0..rows.rows())
        .step_by(REFERENCE_CHUNK)
        .flat_map(|start| {
            let end = (start + REFERENCE_CHUNK).min(rows.rows());
            pipeline.predict_batch_with_confidence(&rows.slice_rows(start, end))
        })
        .collect()
}

/// Held-out labelled windows: raw request rows, their labels, the rows as
/// the model sees them after the serving prep, and the in-process
/// reference prediction of every row.
#[derive(Debug, Clone)]
pub struct RequestPool {
    /// Raw feature rows, as clients send them.
    pub raw: Vec<Vec<f32>>,
    /// Synthetic ground-truth labels.
    pub labels: Vec<usize>,
    /// The rows after the serving normalizer.
    pub normalized: Matrix,
    /// `Pipeline::predict_batch_with_confidence` on `normalized` (see
    /// [`reference`]).
    pub reference: Vec<Prediction>,
}

impl RequestPool {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Normalized row `i` as an owned vector.
    pub fn normalized_row(&self, i: usize) -> Vec<f32> {
        self.normalized.row(i).to_vec()
    }
}

/// Draws `subjects` new subjects from the spec's profile with the
/// benchmark `seed` (so every row is held out from training) and scores
/// them with the reference path.
///
/// # Errors
///
/// Dataset generation errors.
pub fn request_pool(
    spec: &Spec,
    trained: &Trained,
    seed: u64,
    subjects: usize,
) -> Result<RequestPool, String> {
    let mut profile = spec.profile.clone();
    profile.subjects = subjects;
    let data = wearables::generate(&profile, seed).map_err(err)?;
    let raw: Vec<Vec<f32>> = (0..data.len())
        .map(|r| data.features().row(r).to_vec())
        .collect();
    let normalized = trained.normalizer.apply(data.features());
    let reference = reference(&trained.pipeline, &normalized);
    Ok(RequestPool {
        raw,
        labels: data.labels().to_vec(),
        normalized,
        reference,
    })
}
