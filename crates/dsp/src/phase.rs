//! Phase derivatives.
//!
//! §3.3 of the paper: "with one arctan operation per sample we get the phase
//! of the IF signal. The frequency offset ... will contribute a constant to
//! the first derivative ... GFSK ... can be detected by checking that the
//! second derivative of phase is always zero." These are exactly the
//! primitives implemented here, plus a quadrature FM discriminator used by
//! the Bluetooth demodulator.

use crate::complex::Complex32;
use std::f32::consts::{FRAC_PI_2, PI};
use std::ops::ControlFlow;

/// Wraps an angle difference into `(-pi, pi]`.
#[inline]
pub fn wrap_phase(mut d: f32) -> f32 {
    while d > PI {
        d -= 2.0 * PI;
    }
    while d <= -PI {
        d += 2.0 * PI;
    }
    d
}

/// Scratch block length (complex products) for the blockwise conjugate
/// multiply used by the phase-derivative helpers: big enough to amortize
/// dispatch, small enough to live on the stack.
const CONJ_BLOCK: usize = 256;

/// Runs the vectorized adjacent conjugate-multiply over `samples` in
/// stack-sized blocks, handing `sink` each block of products in stream
/// order until it breaks.
#[inline]
fn for_each_product_block<F>(samples: &[Complex32], mut sink: F) -> ControlFlow<()>
where
    F: FnMut(&[Complex32]) -> ControlFlow<()>,
{
    let m = samples.len().saturating_sub(1);
    let mut scratch = [Complex32::ZERO; CONJ_BLOCK];
    let mut i = 0;
    while i < m {
        let take = (m - i).min(CONJ_BLOCK);
        crate::kernels::conj_mul_adjacent(&samples[i..i + take + 1], &mut scratch[..take]);
        sink(&scratch[..take])?;
        i += take;
    }
    ControlFlow::Continue(())
}

/// [`for_each_product_block`], one product at a time, to the end.
#[inline]
fn for_each_adjacent_product<F: FnMut(Complex32)>(samples: &[Complex32], mut sink: F) {
    let _ = for_each_product_block(samples, |block| {
        block.iter().for_each(|&z| sink(z));
        ControlFlow::Continue(())
    });
}

/// First phase derivative via conjugate multiplication:
/// `d[n] = arg(x[n] * conj(x[n-1]))`, length `samples.len() - 1`.
///
/// This is the robust way to compute phase increments — it needs no
/// unwrapping and is exactly the "complex conjugation, multiplication and
/// arctan" pipeline the paper costs out for its GFSK detector (§4.5).
pub fn phase_diff(samples: &[Complex32]) -> Vec<f32> {
    let mut out = Vec::new();
    phase_diff_into(samples, &mut out);
    out
}

/// [`phase_diff`] into a caller-provided buffer (cleared first). The
/// conjugate products run through the vectorized kernels; only the `atan2`
/// per output stays scalar.
pub fn phase_diff_into(samples: &[Complex32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(samples.len().saturating_sub(1));
    for_each_adjacent_product(samples, |z| out.push(z.arg()));
}

/// Coefficients of [`abs_atan2`]'s odd minimax polynomial, constant term
/// first: `t * (c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 - c5 * s)))))`
/// with `s = t * t`.
pub(crate) const ATAN_POLY: [f32; 6] = [
    0.999_977_26,
    -0.332_623_47,
    0.193_543_46,
    -0.116_432_87,
    0.052_653_32,
    0.011_721_2,
];

/// `|atan2(y, x)|` in `[0, pi]` without `libm`: octant reduction to
/// `t = min(|x|,|y|) / max(|x|,|y|)` in `[0, 1]` and one fixed odd minimax
/// polynomial in `t` ([`ATAN_POLY`]), max error about 1e-5 rad.
///
/// Plain `mul`/`add` in Horner order (never `mul_add`: an FMA would make
/// the bits depend on the target CPU) and selects instead of branches, which
/// the AVX2 kernel evaluates lane for lane. `x`'s sign *bit* picks the left
/// half-plane, which keeps `atan2(±0, -0) = ±pi` as in IEEE `atan2`; a NaN
/// component yields NaN. This is the one definition of the operation; it is
/// element-wise, so its output does not depend on the `RFD_KERNEL` backend.
#[inline]
pub(crate) fn abs_atan2(y: f32, x: f32) -> f32 {
    let [c0, c1, c2, c3, c4, c5] = ATAN_POLY;
    let (ax, ay) = (x.abs(), y.abs());
    let steep = ay > ax;
    let (lo, hi) = if steep { (ax, ay) } else { (ay, ax) };
    let t = if hi > 0.0 { lo / hi } else { 0.0 };
    let s = t * t;
    let r = t * (c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 - c5 * s)))));
    let r = if steep { FRAC_PI_2 - r } else { r };
    let r = if x.is_sign_negative() { PI - r } else { r };
    // The comparisons above read false on a NaN and would let it through
    // as an ordinary angle.
    if x.is_nan() || y.is_nan() {
        f32::NAN
    } else {
        r
    }
}

/// Magnitude of the first phase derivative, in `[0, pi]`:
/// `out[n] = |arg(x[n+1] * conj(x[n]))|`, to within 1e-5 rad (see
/// [`phase_diff_abs_into_slice`]). Used by the Wi-Fi Barker detector, which
/// matches on absolute phase-change patterns.
pub fn phase_diff_abs_into(samples: &[Complex32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(samples.len().saturating_sub(1), 0.0);
    phase_diff_abs_into_slice(samples, out);
}

/// [`phase_diff_abs_into`] into a slice of exactly `samples.len() - 1`
/// values (empty for fewer than two samples).
///
/// The arctangent is a fixed polynomial (`abs_atan2`) rather than
/// `libm`'s `atan2`: the one consumer thresholds a correlation of these
/// values, and the polynomial's 1e-5 rad error is three orders of magnitude
/// below the phase noise of a 30 dB signal. It runs through the kernel
/// table (eight lanes at a time on AVX2), every backend bit-identical. Each
/// output depends only on its own pair of samples, so any sub-range of a
/// stream yields the same bits as the whole.
pub fn phase_diff_abs_into_slice(samples: &[Complex32], out: &mut [f32]) {
    assert_eq!(
        out.len(),
        samples.len().saturating_sub(1),
        "phase_diff_abs_into_slice length mismatch"
    );
    crate::kernels::phase_diff_abs(samples, out);
}

/// Fused first/second phase-derivative summary of a sample run.
///
/// Computed in one pass over the vectorized conjugate products with the
/// exact sequential accumulation the Bluetooth GFSK detector historically
/// used, so detector scores are bit-identical to the unfused formulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseDerivStats {
    /// Sum of first-derivative values `arg(x[n] * conj(x[n-1]))`.
    pub sum_d1: f64,
    /// Sum of `|wrap(d1[n] - d1[n-1])|` (second-derivative magnitudes).
    pub sum_abs_d2: f64,
    /// Number of second-derivative terms (`samples.len() - 2` when ≥ 2).
    pub count_d2: usize,
}

/// Computes [`PhaseDerivStats`] over `samples` in a single fused pass, or
/// gives up early: after each block of up to 256 products it shows
/// `give_up` the sums so far and returns `None` the first time that says
/// yes. `sum_abs_d2` never falls from block to block (its terms are
/// non-negative), so a bound it has passed stays passed unless a NaN term
/// later turns the whole sum into NaN.
pub fn phase_deriv_stats_until<F>(samples: &[Complex32], mut give_up: F) -> Option<PhaseDerivStats>
where
    F: FnMut(&PhaseDerivStats) -> bool,
{
    let mut stats = PhaseDerivStats::default();
    let mut prev: Option<f32> = None;
    let flow = for_each_product_block(samples, |block| {
        for &z in block {
            let d1 = z.arg();
            stats.sum_d1 += d1 as f64;
            if let Some(p) = prev {
                stats.sum_abs_d2 += wrap_phase(d1 - p).abs() as f64;
                stats.count_d2 += 1;
            }
            prev = Some(d1);
        }
        if give_up(&stats) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    flow.is_continue().then_some(stats)
}

/// A streaming quadrature FM discriminator.
///
/// Output is instantaneous frequency in Hz given the configured sample rate.
#[derive(Debug, Clone)]
pub struct FmDiscriminator {
    fs: f64,
    prev: Option<Complex32>,
}

impl FmDiscriminator {
    /// Creates a discriminator for a stream at `fs` samples/second.
    pub fn new(fs: f64) -> Self {
        assert!(fs > 0.0);
        Self { fs, prev: None }
    }

    /// Demodulates a slice, appending instantaneous frequency estimates (Hz)
    /// to `out`. The first call emits `input.len() - 1` values; subsequent
    /// calls emit one per input sample.
    pub fn process(&mut self, input: &[Complex32], out: &mut Vec<f32>) {
        let Some(&last) = input.last() else {
            return;
        };
        let k = (self.fs / crate::TAU64) as f32;
        // The pair straddling the previous chunk, then all in-chunk pairs
        // through the vectorized conjugate-multiply kernel.
        if let Some(p) = self.prev {
            out.push((input[0] * p.conj()).arg() * k);
        }
        out.reserve(input.len().saturating_sub(1));
        for_each_adjacent_product(input, |z| out.push(z.arg() * k));
        self.prev = Some(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    #[test]
    fn wrap_phase_range() {
        for k in -20..20 {
            let w = wrap_phase(k as f32 * 1.7);
            assert!(w > -PI - 1e-6 && w <= PI + 1e-6);
        }
        assert!((wrap_phase(3.0 * PI) - PI).abs() < 1e-5);
    }

    #[test]
    fn phase_diff_of_tone_is_constant() {
        let mut nco = Nco::new(-0.7e6, 8e6);
        let sig: Vec<Complex32> = (0..64).map(|_| nco.next()).collect();
        let d = phase_diff(&sig);
        let expect = -(crate::TAU64 as f32) * 0.7e6 / 8e6;
        for v in d {
            assert!((v - expect).abs() < 1e-4);
        }
    }

    /// The `libm` formulation [`phase_diff_abs_into`] replaced, kept as the
    /// oracle for the polynomial.
    fn phase_diff_abs_libm(samples: &[Complex32]) -> Vec<f32> {
        let mut out = Vec::new();
        for_each_adjacent_product(samples, |z| out.push(wrap_phase(z.arg()).abs()));
        out
    }

    #[test]
    fn abs_atan2_tracks_f64_atan2_within_2e_5_and_stays_in_0_pi() {
        let check = |y: f32, x: f32| {
            let got = abs_atan2(y, x);
            let want = (y as f64).atan2(x as f64).abs();
            assert!(
                (got as f64 - want).abs() <= 2e-5,
                "abs_atan2({y:e}, {x:e}) = {got}, f64 says {want}"
            );
            assert!((0.0..=PI).contains(&got), "abs_atan2({y:e}, {x:e}) = {got}");
        };
        // Dense grid over all four quadrants, both axes included (k = 0).
        for iy in -200..=200 {
            for ix in -200..=200 {
                check(iy as f32 * 0.01, ix as f32 * 0.01);
            }
        }
        // Every octant boundary and the zeros, signed: the sign bit of `x`
        // selects the half-plane exactly as IEEE atan2 does.
        for (y, x) in [
            (0.0, 0.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (0.0, -1.0),
            (-0.0, -1.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, -0.0),
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
        ] {
            check(y, x);
        }
        // Denormals, mixed magnitudes, and products of full-scale i16
        // samples (|z| up to 2 * 32768^2).
        let tiny = f32::from_bits(1);
        let small = f32::MIN_POSITIVE;
        let big = 2.0 * 32768.0 * 32768.0;
        let scales = [tiny, 3.0 * tiny, small, 1e-20, 1.0, 32767.0, big, f32::MAX];
        for &a in &scales {
            for &b in &scales {
                // A denormal quotient loses relative precision, but the
                // angle it stands for is itself below 1e-37.
                for (y, x) in [(a, b), (-a, b), (a, -b), (-a, -b)] {
                    check(y, x);
                }
            }
        }
    }

    #[test]
    fn abs_atan2_of_non_finite_input_never_looks_like_a_match() {
        // The Barker detector accepts a window when its score is >= 0.5; a
        // NaN angle must not turn into a number there. Infinite components
        // either reduce to an exact axis angle or to NaN, never garbage.
        for (y, x) in [
            (f32::NAN, 1.0),
            (1.0, f32::NAN),
            (f32::NAN, f32::NAN),
            (f32::INFINITY, f32::INFINITY),
            (f32::NEG_INFINITY, f32::INFINITY),
        ] {
            assert!(abs_atan2(y, x).is_nan(), "abs_atan2({y}, {x})");
        }
        assert_eq!(abs_atan2(1.0, f32::INFINITY), 0.0);
        assert_eq!(abs_atan2(1.0, f32::NEG_INFINITY), PI);
        assert_eq!(abs_atan2(f32::NEG_INFINITY, 1.0), FRAC_PI_2);
    }

    #[test]
    fn phase_diff_abs_matches_the_libm_oracle_and_is_position_independent() {
        let mut rng = crate::rng::Xoshiro256::new(0xAB5);
        let sig: Vec<Complex32> = (0..1000)
            .map(|_| Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5))
            .collect();
        let mut whole = Vec::new();
        phase_diff_abs_into(&sig, &mut whole);
        let oracle = phase_diff_abs_libm(&sig);
        assert_eq!(whole.len(), oracle.len());
        for (a, b) in whole.iter().zip(&oracle) {
            assert!((a - b).abs() <= 2e-5, "{a} vs libm {b}");
        }
        // Any window of the stream yields the bits the whole stream does.
        for (a, len) in [
            (0usize, 33usize),
            (7, 33),
            (500, 2),
            (966, 34),
            (3, 1),
            (0, 0),
        ] {
            let mut win = vec![0.0f32; len.saturating_sub(1)];
            phase_diff_abs_into_slice(&sig[a..a + len], &mut win);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&win), bits(&whole[a..a + win.len()]));
        }
    }

    #[test]
    fn discriminator_reads_tone_frequency() {
        let f = 1.25e6;
        let mut nco = Nco::new(f, 8e6);
        let sig: Vec<Complex32> = (0..256).map(|_| nco.next()).collect();
        let mut disc = FmDiscriminator::new(8e6);
        let mut out = Vec::new();
        disc.process(&sig, &mut out);
        assert_eq!(out.len(), 255);
        for v in out {
            assert!((v - f as f32).abs() < 1e3, "got {v}");
        }
    }

    #[test]
    fn discriminator_streams_across_chunks() {
        let mut nco = Nco::new(0.5e6, 8e6);
        let sig: Vec<Complex32> = (0..100).map(|_| nco.next()).collect();
        let mut one = Vec::new();
        FmDiscriminator::new(8e6).process(&sig, &mut one);
        let mut disc = FmDiscriminator::new(8e6);
        let mut parts = Vec::new();
        for c in sig.chunks(9) {
            disc.process(c, &mut parts);
        }
        assert_eq!(one.len(), parts.len());
        for (a, b) in one.iter().zip(parts.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}
