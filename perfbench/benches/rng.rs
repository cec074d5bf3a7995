//! Workload inputs from the workload seed.
//!
//! Inputs are drawn in *stratified blocks*: within a block every stratum
//! of each parameter range is hit exactly once, in seeded order. A run
//! then covers the same design space whatever its seed, so seed-to-seed
//! spread measures the program rather than the luck of the draw.

/// SplitMix64: a tiny, well-mixed generator, enough for input sampling.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, salted by `stream` so that workloads
    /// sharing a seed draw unrelated inputs.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }

    /// `n` draws log-uniform on `[lo, hi]`, one per equal-width stratum of
    /// the log range, in random order.
    pub fn log_strata(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let (a, b) = (lo.ln(), hi.ln());
        self.permutation(n)
            .into_iter()
            .map(|s| (a + (s as f64 + self.unit()) / n as f64 * (b - a)).exp())
            .collect()
    }
}
