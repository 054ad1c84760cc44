//! Operation accounting, the percentile rule, and result printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use boosthd_serve::wire::ErrorCode;

/// Failure causes other than the server's error taxonomy.
pub const MISSING: &str = "missing_reply";
/// A reply whose class or confidence differs from the reference.
pub const MISMATCH: &str = "mismatch";
/// A socket or framing failure on the client side.
pub const IO: &str = "io";
/// A publish (append + refresh) that returned an error.
pub const PUBLISH_ERROR: &str = "publish_error";

/// Attempted / succeeded / failed counts of one phase, with failures split
/// by cause: every `ErrorCode` tag (`shed` among them), a missing reply at
/// run end, a correctness mismatch, client I/O, and publish errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that completed with a correct result.
    pub succeeded: u64,
    /// Failures by cause.
    pub causes: BTreeMap<&'static str, u64>,
}

impl Default for Ops {
    fn default() -> Self {
        let mut causes: BTreeMap<&'static str, u64> =
            ErrorCode::ALL.iter().map(|c| (c.tag(), 0)).collect();
        for extra in [MISSING, MISMATCH, IO, PUBLISH_ERROR] {
            causes.insert(extra, 0);
        }
        Self {
            attempted: 0,
            succeeded: 0,
            causes,
        }
    }
}

impl Ops {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    /// Counts one failed operation. `cause` is an `ErrorCode` tag or one of
    /// this module's constants; an unknown server tag counts as `internal`.
    pub fn fail(&mut self, cause: &str) {
        self.attempted += 1;
        let key = self
            .causes
            .keys()
            .copied()
            .find(|k| *k == cause)
            .unwrap_or(ErrorCode::Internal.tag());
        *self.causes.entry(key).or_insert(0) += 1;
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Mismatches: replies that disagree with the in-process reference.
    pub fn mismatches(&self) -> u64 {
        self.causes.get(MISMATCH).copied().unwrap_or(0)
    }

    /// One report line for `phase`.
    pub fn line(&self, phase: &str) -> String {
        let mut s = format!(
            "ops phase={phase} attempted={} succeeded={} failed={} failed_frac={:.6}",
            self.attempted,
            self.succeeded,
            self.failed(),
            self.failed_frac()
        );
        for (k, v) in &self.causes {
            let _ = write!(s, " {k}={v}");
        }
        s
    }
}

/// A percentile reported under the benchmark's rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value (`+inf` when it lands on a failure).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0 < `q` < 100) of `samples` by nearest rank, or
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond its rank.
/// Failed operations enter as `f64::INFINITY`, so they count as missing
/// every latency limit.
pub fn tail(samples: &[f64], q: f64) -> Option<Tail> {
    let count = samples.len();
    if count == 0 {
        return None;
    }
    let rank = ((q / 100.0) * count as f64).ceil() as usize;
    let rank = rank.clamp(1, count);
    let beyond = count - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[rank - 1],
        count,
        beyond,
    })
}

/// A percentile reported as the median over consecutive windows of the
/// samples (in time order), each window large enough to satisfy the
/// [`tail`] rule on its own; at most `max_windows` windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Median of the per-window percentiles.
    pub value: f64,
    /// The per-window tails.
    pub windows: Vec<Tail>,
}

/// The `q`-th percentile of `samples` (time-ordered) as the median over
/// the most windows, up to `max_windows`, for which every window leaves
/// at least [`MIN_BEYOND`] samples beyond its percentile. `None` when even
/// one window over all samples does not.
pub fn windowed_tail(samples: &[f64], q: f64, max_windows: usize) -> Option<Windowed> {
    let beyond_share = 1.0 - q / 100.0;
    let fit = (samples.len() as f64 * beyond_share / MIN_BEYOND as f64).floor() as usize;
    let mut count = fit.clamp(1, max_windows.max(1));
    loop {
        let size = samples.len() / count;
        let windows: Option<Vec<Tail>> = (0..count)
            .map(|w| {
                let end = if w + 1 == count {
                    samples.len()
                } else {
                    (w + 1) * size
                };
                tail(&samples[w * size..end], q)
            })
            .collect();
        match windows {
            Some(windows) => {
                let values: Vec<f64> = windows.iter().map(|t| t.value).collect();
                return Some(Windowed {
                    value: median(&values),
                    windows,
                });
            }
            None if count > 1 => count -= 1,
            None => return None,
        }
    }
}

/// Median (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Free-form context printed on the human-readable line.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            note: String::new(),
        }
    }

    /// A metric carrying a note (sample counts, derivation).
    pub fn noted(name: &'static str, unit: &'static str, value: f64, note: String) -> Self {
        Self {
            name,
            unit,
            value,
            note,
        }
    }
}

/// Formats a finite float for JSON with every digit.
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

/// The result line the benchmark contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// Names the first metric whose value is not finite: such a run has no
/// result to print.
pub fn result_json(correct: bool, ops: &Ops, metrics: &[Metric]) -> Result<String, String> {
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", bad.name, bad.value));
    }
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted.max(1),
        ops.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}
