//! Seeded load schedules: Poisson arrival instants and Zipf model ids.
//!
//! Every schedule is a pure function of the benchmark seed, so two runs
//! with one seed offer the server exactly the same traffic.

/// SplitMix64: a tiny, well-mixed generator for schedule draws. The
/// benchmark keeps its own so that its inputs do not move when the
/// program's `Rng64` changes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): the order in which a
/// workload serves its request pool, so that no row repeats before every
/// row has been served once.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Derives an independent stream seed for one generator thread or input
/// set from the benchmark seed.
pub fn substream(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Due instants, in seconds from the phase start, of a Poisson process
/// with `rate` arrivals per second over `[0, horizon)`, conditioned on
/// its expected count: `round(rate × horizon)` uniform instants, sorted.
/// Gaps stay exponential-like, and every run offers the same load.
pub fn poisson_schedule(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate * horizon).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.next_f64() * horizon).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` seeded draws.
    pub fn draws(&self, seed: u64, count: usize) -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }
}
