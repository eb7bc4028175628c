//! Seeded randomness for workload synthesis and tie-breaking.
//!
//! Wraps a small, fast PRNG behind the distributions the workload models
//! need: uniform, Bernoulli, Gaussian (Box–Muller), log-normal (for
//! heavy-tailed task footprints like Fig. 5's), and exponential (for
//! failure inter-arrival times). Every simulation takes an explicit seed so
//! experiments are exactly reproducible.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through SplitMix64 so that small/correlated seeds still yield
//! well-mixed initial state. Keeping the PRNG in-tree (rather than pulling
//! in an external crate) guarantees the byte-for-byte reproducibility the
//! chaos harness asserts is stable across toolchain updates.

/// Core xoshiro256++ state.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

/// SplitMix64 step — used only to expand the seed into initial state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one degenerate fixed point; SplitMix64
        // cannot produce four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1): top 53 bits scaled by 2^-53.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Deterministic random source for one simulation run.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256,
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Create from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256::seeded(seed),
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator; used to give each job its own
    /// stream so adding a job does not perturb the others' draws.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seeded(seed)
    }

    /// Uniform in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.inner.next_f64()
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty integer range");
        let span = (hi - lo) as u64;
        // Multiply-shift bounded draw (Lemire) with rejection of the biased
        // low zone, so every value in [0, span) is exactly equally likely.
        let zone = span.wrapping_neg() % span;
        loop {
            let x = self.inner.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= zone {
                return lo + (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.next_f64() < p
    }

    /// Standard normal deviate via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.inner.next_f64();
        let u2: f64 = self.inner.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Log-normal deviate: `exp(N(mu, sigma))`. Heavy-tailed; used for
    /// per-task traffic volumes, which span orders of magnitude in the
    /// Scuba Tailer fleet (Fig. 5).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.gaussian()).exp()
    }

    /// Exponential deviate with the given mean (inter-arrival times of
    /// failures and spikes).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = 1.0 - self.inner.next_f64();
        -mean * u.ln()
    }

    /// Raw 64-bit draw (hash salts, shuffles).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

turbine_types::snap_struct!(Xoshiro256 { s } check |x| x.s != [0; 4] => "SimRng.state all-zero");
turbine_types::snap_struct!(SimRng { inner, gauss_spare });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::seeded(7);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn uniform_usize_covers_range_uniformly() {
        let mut rng = SimRng::seeded(23);
        let mut counts = [0u32; 5];
        for _ in 0..10_000 {
            counts[rng.uniform_usize(0, 5)] += 1;
        }
        for &c in &counts {
            assert!((1_600..2_400).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut rng = SimRng::seeded(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = SimRng::seeded(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_is_positive_and_heavy_tailed() {
        let mut rng = SimRng::seeded(13);
        let samples: Vec<f64> = (0..10_000).map(|_| rng.log_normal(0.0, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let median = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            s[s.len() / 2]
        };
        // Heavy right tail: mean well above median.
        assert!(mean > median * 1.3, "mean {mean} median {median}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seeded(17);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = SimRng::seeded(3);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seeded(19);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, (0..100).collect::<Vec<_>>());
    }
}
