//! Deterministic random numbers and Gaussian noise.
//!
//! Every stochastic element of the workspace (AWGN, backoff draws, traffic
//! jitter, hop sequences) is driven by seedable generators from this module
//! so experiments are exactly reproducible from a seed — the Rust analogue of
//! the paper's "repeatable, well-controlled wireless workloads" requirement
//! (§5).

use crate::complex::Complex32;

/// SplitMix64: a tiny, high-quality 64-bit PRNG. Also used to seed
/// [`Xoshiro256`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator (expanding the seed through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Multiply-shift; bias is negligible for our bounds (< 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Random boolean with probability `p` of being true.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Random data bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A Gaussian (normal) sample generator using the Marsaglia polar method.
#[derive(Debug, Clone)]
pub struct GaussianGen {
    rng: Xoshiro256,
    spare: Option<f64>,
}

impl GaussianGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::new(seed),
            spare: None,
        }
    }

    /// Next standard-normal sample.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            let u = 2.0 * self.rng.next_f64() - 1.0;
            let v = 2.0 * self.rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * k);
                return u * k;
            }
        }
    }

    /// Next circularly-symmetric complex Gaussian sample with total
    /// (two-sided) power `power` — i.e. `E[|z|^2] = power`.
    pub(crate) fn next_complex(&mut self, power: f32) -> Complex32 {
        let sigma = (power as f64 / 2.0).sqrt();
        Complex32::new((self.next() * sigma) as f32, (self.next() * sigma) as f32)
    }

    /// Adds complex AWGN of the given total power to `buf` in place.
    pub fn add_awgn(&mut self, buf: &mut [Complex32], power: f32) {
        if power <= 0.0 {
            return;
        }
        for z in buf.iter_mut() {
            *z += self.next_complex(power);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = Xoshiro256::new(7);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bound() {
        let mut rng = Xoshiro256::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit");
    }

    #[test]
    fn gaussian_moments() {
        let mut g = GaussianGen::new(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn awgn_power_is_calibrated() {
        let mut g = GaussianGen::new(13);
        let mut buf = vec![Complex32::ZERO; 50_000];
        g.add_awgn(&mut buf, 0.25);
        let p = mean_power(&buf);
        assert!((p - 0.25).abs() < 0.01, "power {p}");
    }

    #[test]
    fn zero_power_awgn_is_noop() {
        let mut g = GaussianGen::new(13);
        let mut buf = vec![Complex32::ONE; 16];
        g.add_awgn(&mut buf, 0.0);
        assert!(buf.iter().all(|&z| z == Complex32::ONE));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
