//! FIR filtering and classic filter designs.
//!
//! The PHY layers use these for pulse shaping (Gaussian for Bluetooth GFSK)
//! and the receivers use windowed-sinc low-pass designs for
//! channelization (e.g. carving 1 MHz Bluetooth channels out of the 8 MHz
//! monitored band).

use crate::complex::Complex32;
use crate::window::{generate, Window};
use std::f64::consts::PI;

/// A real-tap FIR filter applied to complex samples, with internal history so
/// it can process a stream in arbitrary-sized slices.
///
/// The delay line is a flat, *duplicated* ring buffer: each pushed sample is
/// written twice, `n` complex slots apart, so the window of the last `n`
/// samples is always one contiguous flat slice and the inner product runs
/// through the vectorized [`crate::kernels::fir_dot`] with no wrap handling.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f32>,
    /// Taps reversed and duplicated per component: `taps2[2j] == taps2[2j+1]
    /// == taps[n-1-j]`, so `taps2` pairs with the oldest→newest window.
    taps2: Vec<f32>,
    /// `4n` floats = `2n` complex slots; slot `i` and slot `i + n` always
    /// hold the same sample.
    buf: Vec<f32>,
    /// Next complex slot (in `0..n`) to write.
    pos: usize,
}

impl Fir {
    /// Builds a filter from the given taps (first tap multiplies the newest
    /// sample).
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f32>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        let mut taps2 = vec![0.0f32; 2 * n];
        for j in 0..n {
            taps2[2 * j] = taps[n - 1 - j];
            taps2[2 * j + 1] = taps[n - 1 - j];
        }
        Self {
            taps,
            taps2,
            buf: vec![0.0; 4 * n],
            pos: 0,
        }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True if the filter has no taps (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Writes one sample into the duplicated delay line without computing an
    /// output (used by the decimating path to skip discarded outputs).
    #[inline]
    fn shift_in(&mut self, x: Complex32) {
        let n = self.taps.len();
        let a = 2 * self.pos;
        let b = 2 * (self.pos + n);
        self.buf[a] = x.re;
        self.buf[a + 1] = x.im;
        self.buf[b] = x.re;
        self.buf[b + 1] = x.im;
        self.pos = (self.pos + 1) % n;
    }

    /// The current window of the last `n` samples, oldest first, as a flat
    /// `[re, im, ...]` slice aligned with `taps2`.
    #[inline]
    fn window(&self) -> &[f32] {
        let n = self.taps.len();
        &self.buf[2 * self.pos..2 * (self.pos + n)]
    }

    /// Filters one sample.
    #[inline]
    pub fn push(&mut self, x: Complex32) -> Complex32 {
        self.shift_in(x);
        crate::kernels::fir_dot(self.window(), &self.taps2)
    }

    /// Filters a slice, appending outputs to `out` (one output per input).
    pub fn process(&mut self, input: &[Complex32], out: &mut Vec<Complex32>) {
        out.reserve(input.len());
        for &x in input {
            out.push(self.push(x));
        }
    }

    /// Filters and decimates: produces one output for every `decim` inputs.
    ///
    /// Skipped outputs never compute the dot product, so the cost per input
    /// sample is `O(taps / decim)` plus the ring write.
    ///
    /// # Panics
    /// Panics if `decim` is zero.
    pub fn process_decimate(
        &mut self,
        input: &[Complex32],
        decim: usize,
        phase: &mut usize,
        out: &mut Vec<Complex32>,
    ) {
        assert!(decim > 0);
        for &x in input {
            if *phase == 0 {
                out.push(self.push(x));
            } else {
                self.shift_in(x);
            }
            *phase = (*phase + 1) % decim;
        }
    }
}

/// Convolves real taps with a real-valued sequence (used for shaping NRZ
/// streams before frequency modulation). Output length is `input.len()`;
/// the filter is causal with zero initial state.
pub fn convolve_real(taps: &[f32], input: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; input.len()];
    for (n, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, t) in taps.iter().enumerate() {
            if n >= k {
                acc += t * input[n - k];
            }
        }
        *o = acc;
    }
    out
}

/// Designs a windowed-sinc low-pass filter.
///
/// * `cutoff_hz` — one-sided cutoff frequency.
/// * `fs` — sample rate.
/// * `ntaps` — number of taps (forced odd for a symmetric, linear-phase
///   design).
///
/// Taps are normalized for unity DC gain.
pub fn lowpass(cutoff_hz: f64, fs: f64, ntaps: usize, window: Window) -> Vec<f32> {
    assert!(
        cutoff_hz > 0.0 && cutoff_hz < fs / 2.0,
        "cutoff must be in (0, fs/2)"
    );
    let ntaps = if ntaps.is_multiple_of(2) {
        ntaps + 1
    } else {
        ntaps.max(1)
    };
    let m = (ntaps - 1) as f64 / 2.0;
    let wc = 2.0 * PI * cutoff_hz / fs;
    let win = generate(window, ntaps);
    let mut taps: Vec<f64> = (0..ntaps)
        .map(|i| {
            let x = i as f64 - m;
            let sinc = if x.abs() < 1e-12 {
                wc / PI
            } else {
                (wc * x).sin() / (PI * x)
            };
            sinc * win[i]
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps.into_iter().map(|t| t as f32).collect()
}

/// Designs a Gaussian pulse-shaping filter for GFSK/GMSK.
///
/// * `bt` — bandwidth-time product (Bluetooth BR uses 0.5).
/// * `sps` — samples per symbol.
/// * `span` — filter span in symbols (total taps = `span * sps + 1`).
///
/// Taps are normalized to unit sum so that filtering a long run of constant
/// NRZ `±1` converges to `±1` (which keeps the modulation index exact).
pub fn gaussian(bt: f64, sps: usize, span: usize) -> Vec<f32> {
    assert!(bt > 0.0 && sps > 0 && span > 0);
    let n = span * sps + 1;
    let m = (n - 1) as f64 / 2.0;
    // Standard Gaussian impulse response: h(t) = sqrt(2*pi/ln2) * B *
    // exp(-2*pi^2*B^2*t^2 / ln2), with t in symbol units and B = bt.
    let ln2 = std::f64::consts::LN_2;
    let mut taps: Vec<f64> = (0..n)
        .map(|i| {
            let t = (i as f64 - m) / sps as f64;
            let a = 2.0 * PI * PI * bt * bt / ln2;
            (-a * t * t).exp()
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps.into_iter().map(|t| t as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_passes_dc_and_blocks_high_band() {
        let taps = lowpass(1e6, 8e6, 63, Window::Hamming);
        let mut fir = Fir::new(taps.clone());
        // DC input.
        let dc: Vec<Complex32> = vec![Complex32::ONE; 512];
        let mut out = Vec::new();
        fir.process(&dc, &mut out);
        let settled = &out[128..];
        let dc_gain = settled.iter().map(|z| z.re).sum::<f32>() / settled.len() as f32;
        assert!((dc_gain - 1.0).abs() < 0.01, "dc gain {dc_gain}");

        // A 3 MHz tone should be strongly attenuated.
        let mut fir = Fir::new(taps);
        let tone: Vec<Complex32> = (0..512)
            .map(|i| Complex32::cis((crate::TAU64 * 3e6 * i as f64 / 8e6) as f32))
            .collect();
        let mut out = Vec::new();
        fir.process(&tone, &mut out);
        let p = crate::complex::mean_power(&out[128..]);
        assert!(p < 1e-3, "stopband power {p}");
    }

    #[test]
    fn fir_impulse_response_reproduces_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut fir = Fir::new(taps.clone());
        let mut imp = vec![Complex32::ZERO; 5];
        imp[0] = Complex32::ONE;
        let mut out = Vec::new();
        fir.process(&imp, &mut out);
        for (i, t) in taps.iter().enumerate() {
            assert!((out[i].re - t).abs() < 1e-6);
        }
        assert!(out[3].abs() < 1e-6 && out[4].abs() < 1e-6);
    }

    #[test]
    fn fir_streaming_matches_one_shot() {
        let taps = lowpass(1e6, 8e6, 31, Window::Hann);
        let input: Vec<Complex32> = (0..200)
            .map(|i| Complex32::new((i as f32 * 0.3).sin(), (i as f32 * 0.17).cos()))
            .collect();
        let mut a = Fir::new(taps.clone());
        let mut one = Vec::new();
        a.process(&input, &mut one);

        let mut b = Fir::new(taps);
        let mut parts = Vec::new();
        for chunk in input.chunks(7) {
            b.process(chunk, &mut parts);
        }
        assert_eq!(one.len(), parts.len());
        for (x, y) in one.iter().zip(parts.iter()) {
            assert!((*x - *y).abs() < 1e-6);
        }
    }

    #[test]
    fn decimation_keeps_every_nth() {
        let mut fir = Fir::new(vec![1.0]); // identity
        let input: Vec<Complex32> = (0..20).map(|i| Complex32::new(i as f32, 0.0)).collect();
        let mut out = Vec::new();
        let mut phase = 0;
        fir.process_decimate(&input, 4, &mut phase, &mut out);
        let vals: Vec<f32> = out.iter().map(|z| z.re).collect();
        assert_eq!(vals, vec![0.0, 4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn gaussian_taps_sum_to_one_and_peak_centered() {
        let taps = gaussian(0.5, 8, 4);
        let sum: f32 = taps.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let peak = taps.iter().cloned().fold(f32::MIN, f32::max);
        assert_eq!(taps[taps.len() / 2], peak);
        // Symmetric.
        for i in 0..taps.len() {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn convolve_real_identity() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(convolve_real(&[1.0], &x), x);
        let shifted = convolve_real(&[0.0, 1.0], &x);
        assert_eq!(shifted, vec![0.0, 1.0, 2.0, 3.0]);
    }
}
