//! Numerically controlled oscillator and frequency translation.
//!
//! Used by the ether simulator to place each transmitter at its channel
//! offset inside the monitored band, and by receivers to translate a channel
//! of interest down to zero before low-pass channelization.

use crate::complex::Complex32;
use crate::TAU64;

/// A complex oscillator with a double-precision phase accumulator.
///
/// The accumulator is `f64`, but each output is `cis(phase as f32)`, and
/// [`next`](Self::next) wraps the phase only once it exceeds +1e9 rad, so a
/// negative-frequency oscillator (half the Bluetooth channel offsets) never
/// wraps at all. The angle handed to `cis` therefore loses precision as a
/// run grows: its `f32` ulp is `2^(⌊log2 |phase|⌋ - 23)` rad, already ~0.004
/// rad after one DH5-length block (~23 000 samples at 8 Msps) at a 3.5 MHz
/// offset. Long traces *do* accumulate phase error. Wrapping every step
/// would fix it, but it changes synthesized traces and Bluetooth records,
/// so it waits for a reviewed golden regeneration.
#[derive(Debug, Clone)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Creates an oscillator producing `e^{j 2 pi f t}` for frequency
    /// `freq_hz` at sample rate `fs`.
    pub fn new(freq_hz: f64, fs: f64) -> Self {
        assert!(fs > 0.0);
        Self {
            phase: 0.0,
            step: TAU64 * freq_hz / fs,
        }
    }

    /// Produces the next oscillator sample.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Complex32 {
        let z = Complex32::cis(self.phase as f32);
        self.phase += self.step;
        if self.phase > 1e9 {
            // Keep the accumulator small; rem_euclid preserves the angle.
            self.phase = self.phase.rem_euclid(TAU64);
        }
        z
    }

    /// Writes `input * osc` into `out` (appending).
    pub fn mix(&mut self, input: &[Complex32], out: &mut Vec<Complex32>) {
        out.reserve(input.len());
        for &x in input {
            out.push(x * self.next());
        }
    }
}

/// One-shot frequency shift of a whole buffer starting at phase zero.
pub fn frequency_shift(input: &[Complex32], freq_hz: f64, fs: f64) -> Vec<Complex32> {
    let mut nco = Nco::new(freq_hz, fs);
    let mut out = Vec::with_capacity(input.len());
    nco.mix(input, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    #[test]
    fn oscillator_tone_lands_in_expected_fft_bin() {
        let fs = 8e6;
        let n = 1024;
        let bin = 96; // 96/1024 * 8 MHz = 750 kHz
        let f = bin as f64 * fs / n as f64;
        let mut nco = Nco::new(f, fs);
        let sig: Vec<Complex32> = (0..n).map(|_| nco.next()).collect();
        let fft = Fft::new(n);
        let mut buf = sig.clone();
        fft.forward(&mut buf);
        let max_bin = buf
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .unwrap()
            .0;
        assert_eq!(max_bin, bin);
    }

    #[test]
    fn shift_then_unshift_is_identity() {
        let fs = 8e6;
        let sig: Vec<Complex32> = (0..500)
            .map(|i| Complex32::new((i as f32 * 0.21).sin(), (i as f32 * 0.13).cos()))
            .collect();
        let up = frequency_shift(&sig, 1.5e6, fs);
        let back = frequency_shift(&up, -1.5e6, fs);
        for (a, b) in back.iter().zip(sig.iter()) {
            assert!((*a - *b).abs() < 1e-4);
        }
    }

    #[test]
    fn negative_frequency_rotates_clockwise() {
        let mut nco = Nco::new(-1e6, 8e6);
        let z0 = nco.next();
        let z1 = nco.next();
        // Phase difference should be -2*pi/8 = -0.785 rad.
        let d = (z1 * z0.conj()).arg();
        assert!((d + std::f32::consts::FRAC_PI_4).abs() < 1e-4);
    }

    #[test]
    fn oscillator_keeps_unit_magnitude_over_long_runs() {
        let mut nco = Nco::new(1.234e6, 8e6);
        let mut last = Complex32::ZERO;
        for _ in 0..100_000 {
            last = nco.next();
        }
        assert!((last.abs() - 1.0).abs() < 1e-4);
    }
}
