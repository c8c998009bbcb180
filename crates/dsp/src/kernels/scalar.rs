//! Scalar reference kernels.
//!
//! These define the numeric contract (see the module docs in
//! [`super`]): striped 8-lane accumulation with a fixed reduction tree for
//! reductions, and plain per-element IEEE arithmetic everywhere else. The
//! AVX2 backend is required to reproduce every bit of these results.

use crate::complex::{from_i16_iq, Complex32};
use std::mem::MaybeUninit;

/// Reduction tree shared by all striped-8 real kernels:
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the order an 8-lane vector
/// accumulator naturally reduces in (add 128-bit halves, then pairwise).
#[inline]
fn tree8(l: [f64; 8]) -> f64 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

pub(super) fn sum_sq_f32(xs: &[f32]) -> f64 {
    let n8 = xs.len() & !7;
    let mut l = [0.0f64; 8];
    let mut i = 0;
    while i < n8 {
        for j in 0..8 {
            let x = xs[i + j] as f64;
            l[j] += x * x;
        }
        i += 8;
    }
    let mut acc = tree8(l);
    for &x in &xs[n8..] {
        acc += (x as f64) * (x as f64);
    }
    acc
}

pub(super) fn power_into(samples: &[Complex32], out: &mut [f32]) {
    for (o, z) in out.iter_mut().zip(samples.iter()) {
        *o = z.norm_sqr();
    }
}

/// Each 4-byte little-endian `(i, q)` pair of `bytes` to
/// `from_i16_iq(i, q).scale(scale)`; writes every element of `out`.
pub(super) fn widen_i16_iq(bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        let i = i16::from_le_bytes([b[0], b[1]]);
        let q = i16::from_le_bytes([b[2], b[3]]);
        o.write(from_i16_iq(i, q).scale(scale));
    }
}

/// Slice-by-8 tables for the reflected CRC-32/IEEE polynomial. `T[0]` is the
/// classic byte-at-a-time table; `T[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so eight table reads advance eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut reg = b as u32;
        let mut bit = 0;
        while bit < 8 {
            reg = if reg & 1 == 1 {
                (reg >> 1) ^ 0xEDB8_8320
            } else {
                reg >> 1
            };
            bit += 1;
        }
        t[0][b] = reg;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Advances the reflected CRC-32/IEEE register `reg` over `data`, eight
/// bytes per step (no initial or final inversion: the caller owns those).
pub(super) fn crc32_update(mut reg: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = reg ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        reg = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        reg = (reg >> 8) ^ t[0][((reg ^ byte as u32) & 0xFF) as usize];
    }
    reg
}

pub(super) fn fir_dot(window: &[f32], taps2: &[f32]) -> Complex32 {
    let len = window.len();
    let n8 = len & !7;
    let mut l = [0.0f32; 8];
    let mut i = 0;
    while i < n8 {
        for j in 0..8 {
            l[j] += window[i + j] * taps2[i + j];
        }
        i += 8;
    }
    let mut re = (l[0] + l[4]) + (l[2] + l[6]);
    let mut im = (l[1] + l[5]) + (l[3] + l[7]);
    let mut k = n8;
    while k < len {
        re += window[k] * taps2[k];
        im += window[k + 1] * taps2[k + 1];
        k += 2;
    }
    Complex32::new(re, im)
}

/// The element formula every backend uses for `s * conj(p)`; bitwise equal
/// to `Complex32::mul(s, p.conj())` by the IEEE sign identities.
#[inline]
fn conj_mul(s: Complex32, p: Complex32) -> Complex32 {
    Complex32::new(s.re * p.re + s.im * p.im, s.im * p.re - s.re * p.im)
}

pub(super) fn conj_mul_adjacent(samples: &[Complex32], out: &mut [Complex32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = conj_mul(samples[i + 1], samples[i]);
    }
}

/// `out[i] = |arg(samples[i+1] * conj(samples[i]))|` through
/// [`crate::phase::abs_atan2`].
pub(super) fn phase_diff_abs(samples: &[Complex32], out: &mut [f32]) {
    for (o, w) in out.iter_mut().zip(samples.windows(2)) {
        let z = conj_mul(w[1], w[0]);
        *o = crate::phase::abs_atan2(z.im, z.re);
    }
}

/// Scores each of the eight `wlen`-long windows of `dphi` (see
/// [`super::barker_scores`]): the window's mean as `Iterator::sum` adds it
/// (in order, from `-0.0`), its centred energy in order, then per cyclic
/// offset one dot in window order, keeping the largest `dot / denom`.
pub(super) fn barker_scores(
    dphi: &[f32],
    tiled: &[f32],
    sps: usize,
    norm: f32,
    scores: &mut [f32; super::BARKER_WINDOWS],
) {
    let wlen = dphi.len() / super::BARKER_WINDOWS;
    for (score, win) in scores.iter_mut().zip(dphi.chunks_exact(wlen)) {
        let mean = win.iter().fold(-0.0f32, |sum, &d| sum + d) / wlen as f32;
        let mut energy = 0.0f32;
        for &d in win {
            let c = d - mean;
            energy += c * c;
        }
        let denom = (norm * energy.sqrt()).max(1e-9);
        let mut best = -1.0f32;
        for off in 0..sps {
            let mut dot = 0.0f32;
            for (&d, &p) in win.iter().zip(&tiled[off..off + wlen]) {
                dot += (d - mean) * p;
            }
            // `f32::max` with the tie and NaN cases pinned: a NaN score
            // keeps `best`, and so does an equal one.
            let v = dot / denom;
            best = if v > best { v } else { best };
        }
        *score = best;
    }
}

pub(super) fn polyphase_rows(
    src: &[f32],
    offs: &[usize],
    taps: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
) {
    polyphase_rows_from(src, offs, taps, scale, out, 0);
}

/// Outputs `from..` of [`polyphase_rows`]; the AVX2 backend finishes its
/// remainder lanes with it.
pub(super) fn polyphase_rows_from(
    src: &[f32],
    offs: &[usize],
    taps: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
    from: usize,
) {
    for (m, o) in out.iter_mut().enumerate().skip(from) {
        let mut acc = 0.0f32;
        for (&off, &w) in offs.iter().zip(taps) {
            acc += src[off + m] * w;
        }
        *o = match scale {
            Some(k) => acc * k,
            None => acc,
        };
    }
}

pub(super) fn fft_stage(buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) {
    let len = half * 2;
    for start in (0..buf.len()).step_by(len) {
        for k in 0..half {
            let mut w = tw[k];
            if inverse {
                w = w.conj();
            }
            let a = buf[start + k];
            let b = buf[start + k + half] * w;
            buf[start + k] = a + b;
            buf[start + k + half] = a - b;
        }
    }
}

/// Sums of each whole `w`-element window of `xs` into `sums`, the total of
/// all of `xs`, the smallest `bits - 1` (wrapping, so zeros read largest)
/// and the largest bit pattern, both as `u32`. The sums only mean something
/// once [`super::ExactSums`] certifies them, and then every order of
/// addition agrees; this one adds each window in index order.
pub(super) fn window_sums(xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32) {
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    for &x in xs {
        let b = x.to_bits();
        lo = lo.min(b.wrapping_sub(1));
        hi = hi.max(b);
    }
    let mut total = 0.0;
    for (s, win) in sums.iter_mut().zip(xs.chunks_exact(w)) {
        *s = win.iter().map(|&x| x as f64).sum();
        total += *s;
    }
    for &x in &xs[sums.len() * w..] {
        total += x as f64;
    }
    (total, lo, hi)
}
