//! The environment record every result carries, peak memory, and the
//! benchmark's scratch directory.

use std::path::{Path, PathBuf};

/// Hardware threads the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result must be read against: a scalar-fallback or
/// oversubscribed run shows here and is never compared silently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvRecord {
    /// Hardware threads available.
    pub nproc: usize,
    /// `linalg::kernels::kernel_level()`.
    pub kernel_level: &'static str,
    /// `boosthd::parallel::default_threads()`.
    pub default_threads: usize,
    /// The autotuned score chunk (`linalg::autotune::score_chunk()`).
    pub score_chunk: usize,
    /// The workload seed.
    pub seed: u64,
    /// The commit measured (`PERFBENCH_COMMIT`, else `.git/HEAD`, else
    /// `unknown`).
    pub commit: String,
}

impl EnvRecord {
    /// Captures the record. Calling it runs the autotuner, so it belongs
    /// to warm-up.
    pub fn capture(seed: u64) -> Self {
        Self {
            nproc: nproc(),
            kernel_level: linalg::kernels::kernel_level().name(),
            default_threads: boosthd::parallel::default_threads(),
            score_chunk: linalg::autotune::score_chunk(),
            seed,
            commit: commit(),
        }
    }

    /// Whether the run asks for more threads than the machine has.
    pub fn oversubscribed(&self) -> bool {
        self.default_threads > self.nproc
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "env nproc={} kernel_level={} default_threads={} score_chunk={} seed={} commit={} oversubscribed={}",
            self.nproc,
            self.kernel_level,
            self.default_threads,
            self.score_chunk,
            self.seed,
            self.commit,
            self.oversubscribed()
        )
    }
}

fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".to_string()
    } else {
        resolved.to_string()
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU jiffies of the machine from
/// `/proc/stat`: steal is time the hypervisor ran something else while
/// this machine's CPUs wanted to run. `None` where the file is missing.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal as a share of all CPU time between two `cpu_steal` readings, in
/// percent. A run that was slow because the host was busy shows here.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// A scratch directory under `.perfbench-work/` in the working directory,
/// removed when dropped.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench-work/<tag>-<pid>`.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = Path::new(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
