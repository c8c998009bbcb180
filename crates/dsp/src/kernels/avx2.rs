//! The x86-64 AVX2 kernel backend.
//!
//! Each kernel reproduces the scalar reference in `scalar.rs` bit-for-bit:
//! striped accumulators map one-to-one onto vector lanes, reductions use
//! the same fixed tree, and all sign manipulation is via sign-bit XOR
//! (exact in IEEE-754: `a + (-b) ≡ a - b`). No FMA is used anywhere —
//! every multiply and add is a distinct rounded operation, exactly as the
//! scalar code performs them.
//!
//! # Safety
//!
//! Every `#[target_feature]` function here is reached only through the
//! dispatch table in `mod.rs`, which selects the AVX2 table only after
//! `is_x86_feature_detected!` has confirmed the feature (enforced by
//! `resolve_from_env` / `set_backend`). The `pub(super)` safe wrappers
//! additionally `debug_assert!` the feature in test builds.

use super::BARKER_WINDOWS;
use crate::complex::{Complex32, I16_UNIT};
use crate::phase::ATAN_POLY;
use core::arch::x86_64::*;
use std::mem::MaybeUninit;

macro_rules! avx2_wrapper {
    ($pub_name:ident, $impl_name:ident, ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        pub(super) fn $pub_name($($arg: $ty),*) -> $ret {
            debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
            // SAFETY: only dispatched after runtime AVX2 detection (see
            // module docs); slice/pointer invariants upheld by the callee.
            unsafe { $impl_name($($arg),*) }
        }
    };
}

avx2_wrapper!(sum_sq_f32, sum_sq_avx2, (xs: &[f32]) -> f64);
avx2_wrapper!(power_into, power_avx2, (samples: &[Complex32], out: &mut [f32]) -> ());
avx2_wrapper!(widen_i16_iq, widen_i16_iq_avx2, (bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) -> ());
avx2_wrapper!(fir_dot, fir_dot_avx2, (window: &[f32], taps2: &[f32]) -> Complex32);
avx2_wrapper!(conj_mul_adjacent, conj_mul_adjacent_avx2, (samples: &[Complex32], out: &mut [Complex32]) -> ());
avx2_wrapper!(fft_stage, fft_stage_avx2, (buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) -> ());
avx2_wrapper!(polyphase_rows, polyphase_rows_avx2, (src: &[f32], offs: &[usize], taps: &[f32], scale: Option<f32>, out: &mut [f32]) -> ());
avx2_wrapper!(window_sums, window_sums_avx2, (xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32));
avx2_wrapper!(phase_diff_abs, phase_diff_abs_avx2, (samples: &[Complex32], out: &mut [f32]) -> ());
avx2_wrapper!(barker_scores, barker_scores_avx2, (dphi: &[f32], tiled: &[f32], sps: usize, norm: f32, scores: &mut [f32; BARKER_WINDOWS]) -> ());

#[target_feature(enable = "avx2")]
unsafe fn sum_sq_avx2(xs: &[f32]) -> f64 {
    unsafe {
        let n8 = xs.len() & !7;
        let p = xs.as_ptr();
        let mut acc0 = _mm256_setzero_pd(); // lanes l0..l3
        let mut acc1 = _mm256_setzero_pd(); // lanes l4..l7
        let mut i = 0usize;
        while i < n8 {
            let v = _mm256_loadu_ps(p.add(i));
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, lo));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, hi));
            i += 8;
        }
        let mut acc = reduce8_pd_256(acc0, acc1);
        for &x in &xs[n8..] {
            acc += (x as f64) * (x as f64);
        }
        acc
    }
}

/// Reduces striped f64 lanes [l0..l3] [l4..l7] with the contract tree.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce8_pd_256(acc0: __m256d, acc1: __m256d) -> f64 {
    let s = _mm256_add_pd(acc0, acc1); // [l0+l4, l1+l5, l2+l6, l3+l7]
    let lo = _mm256_castpd256_pd128(s);
    let hi = _mm256_extractf128_pd::<1>(s);
    let t = _mm_add_pd(lo, hi); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)]
    _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
}

#[target_feature(enable = "avx2")]
unsafe fn power_avx2(samples: &[Complex32], out: &mut [f32]) {
    unsafe {
        let n = samples.len();
        let p = samples.as_ptr() as *const f32;
        let o = out.as_mut_ptr();
        let n8 = n & !7;
        let mut i = 0usize;
        while i < n8 {
            let a = _mm256_loadu_ps(p.add(2 * i)); // c0..c3
            let b = _mm256_loadu_ps(p.add(2 * i + 8)); // c4..c7
            let sa = _mm256_mul_ps(a, a);
            let sb = _mm256_mul_ps(b, b);
            // Per-128-lane gather: [p0,p1,p4,p5 | p2,p3,p6,p7] ...
            let evens = _mm256_shuffle_ps::<0x88>(sa, sb);
            let odds = _mm256_shuffle_ps::<0xDD>(sa, sb);
            let sum = _mm256_add_ps(evens, odds);
            // ... then permute 64-bit pairs back into order (pure move).
            let fixed = _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(sum)));
            _mm256_storeu_ps(o.add(i), fixed);
            i += 8;
        }
        for k in n8..n {
            out[k] = samples[k].norm_sqr();
        }
    }
}

/// Eight pairs per step: each 16-byte half sign-extends to eight i32 lanes
/// in one `cvtepi16_epi32`, then converts and takes the scalar reference's
/// two multiplies, in its order. Reads and writes stay within both slices
/// whatever their lengths.
#[target_feature(enable = "avx2")]
unsafe fn widen_i16_iq_avx2(bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) {
    unsafe {
        let n8 = out.len().min(bytes.len() / 4) & !7;
        let src = bytes.as_ptr();
        let dst = out.as_mut_ptr() as *mut f32;
        let unit = _mm256_set1_ps(I16_UNIT);
        let k = _mm256_set1_ps(scale);
        let mut i = 0usize;
        while i < n8 {
            let a = _mm_loadu_si128(src.add(4 * i) as *const __m128i); // pairs 0..3
            let b = _mm_loadu_si128(src.add(4 * i + 16) as *const __m128i); // pairs 4..7
            let a = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(a));
            let b = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(b));
            _mm256_storeu_ps(dst.add(2 * i), _mm256_mul_ps(_mm256_mul_ps(a, unit), k));
            _mm256_storeu_ps(dst.add(2 * i + 8), _mm256_mul_ps(_mm256_mul_ps(b, unit), k));
            i += 8;
        }
        super::scalar::widen_i16_iq(&bytes[4 * n8..], scale, &mut out[n8..]);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn fir_dot_avx2(window: &[f32], taps2: &[f32]) -> Complex32 {
    unsafe {
        let len = window.len();
        let n8 = len & !7;
        let pw = window.as_ptr();
        let pt = taps2.as_ptr();
        let mut acc = _mm256_setzero_ps(); // lanes l0..l7
        let mut i = 0usize;
        while i < n8 {
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(_mm256_loadu_ps(pw.add(i)), _mm256_loadu_ps(pt.add(i))),
            );
            i += 8;
        }
        let (mut re, mut im) = reduce8_ps_256(acc);
        let mut k = n8;
        while k < len {
            re += window[k] * taps2[k];
            im += window[k + 1] * taps2[k + 1];
            k += 2;
        }
        Complex32::new(re, im)
    }
}

/// Reduces 8 striped f32 lanes to `((l0+l4)+(l2+l6), (l1+l5)+(l3+l7))`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn reduce8_ps_256(acc: __m256) -> (f32, f32) {
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps::<1>(acc);
    let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
    let r = _mm_add_ps(s, _mm_movehl_ps(s, s));
    (
        _mm_cvtss_f32(r),
        _mm_cvtss_f32(_mm_shuffle_ps::<0x01>(r, r)),
    )
}

/// Per-element `s * conj(p)` on four packed complex values.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn conj_mul_256(s: __m256, p: __m256) -> __m256 {
    let p_re = _mm256_shuffle_ps::<0xA0>(p, p);
    let p_im = _mm256_shuffle_ps::<0xF5>(p, p);
    let s_swap = _mm256_shuffle_ps::<0xB1>(s, s);
    let t1 = _mm256_mul_ps(s, p_re);
    let t2 = _mm256_mul_ps(s_swap, p_im);
    let sign_odd = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
    _mm256_add_ps(t1, _mm256_xor_ps(t2, sign_odd))
}

#[target_feature(enable = "avx2")]
unsafe fn conj_mul_adjacent_avx2(samples: &[Complex32], out: &mut [Complex32]) {
    unsafe {
        let m = out.len();
        let p = samples.as_ptr() as *const f32;
        let o = out.as_mut_ptr() as *mut f32;
        let mut i = 0usize;
        // Four outputs per iteration; loads touch samples[i .. i+5).
        while i + 4 <= m {
            let s = _mm256_loadu_ps(p.add(2 * (i + 1)));
            let pv = _mm256_loadu_ps(p.add(2 * i));
            _mm256_storeu_ps(o.add(2 * i), conj_mul_256(s, pv));
            i += 4;
        }
        while i < m {
            let (s, pz) = (samples[i + 1], samples[i]);
            out[i] = Complex32::new(s.re * pz.re + s.im * pz.im, s.im * pz.re - s.re * pz.im);
            i += 1;
        }
    }
}

/// [`crate::phase::abs_atan2`] on eight lanes: each branch of the reference is
/// a select here, each `mul`/`add`/`div` the same rounded operation.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn abs_atan2_256(y: __m256, x: __m256) -> __m256 {
    let sign = _mm256_set1_ps(-0.0);
    let (ax, ay) = (_mm256_andnot_ps(sign, x), _mm256_andnot_ps(sign, y));
    let steep = _mm256_cmp_ps::<_CMP_GT_OQ>(ay, ax);
    let lo = _mm256_blendv_ps(ay, ax, steep);
    let hi = _mm256_blendv_ps(ax, ay, steep);
    // `hi > 0 ? lo / hi : 0.0`: the mask clears the quotient to +0.
    let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(hi, _mm256_setzero_ps());
    let t = _mm256_and_ps(_mm256_div_ps(lo, hi), positive);
    let s = _mm256_mul_ps(t, t);
    let c = |k: usize| _mm256_set1_ps(ATAN_POLY[k]);
    let mut r = _mm256_sub_ps(c(4), _mm256_mul_ps(c(5), s));
    for k in (0..4).rev() {
        r = _mm256_add_ps(c(k), _mm256_mul_ps(s, r));
    }
    let r = _mm256_mul_ps(t, r);
    let r = _mm256_blendv_ps(
        r,
        _mm256_sub_ps(_mm256_set1_ps(std::f32::consts::FRAC_PI_2), r),
        steep,
    );
    // blendv selects on the mask's sign bit: `x.is_sign_negative()`.
    let r = _mm256_blendv_ps(r, _mm256_sub_ps(_mm256_set1_ps(std::f32::consts::PI), r), x);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, y);
    _mm256_blendv_ps(r, _mm256_set1_ps(f32::NAN), nan)
}

/// Eight outputs per step: the samples and their successors split into
/// real and imaginary vectors (lanes in the order 0,1,4,5,2,3,6,7, which
/// the store restores), the scalar reference's conjugate product, then its
/// |atan2|. Loads touch `samples[i..i + 9]`; the scalar body takes the
/// tail.
#[target_feature(enable = "avx2")]
unsafe fn phase_diff_abs_avx2(samples: &[Complex32], out: &mut [f32]) {
    let m = out.len().min(samples.len().saturating_sub(1));
    // SAFETY: AVX2 is present (module docs). A step runs only while
    // `i + 8 <= m`, and `m` is at most `out.len()` and `samples.len() - 1`,
    // so its loads (`samples[i..i + 9]`) and store (`out[i..i + 8]`) stay
    // inside both slices.
    unsafe {
        let p = samples.as_ptr() as *const f32;
        let o = out.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= m {
            let (q0, q1) = (
                _mm256_loadu_ps(p.add(2 * i)),
                _mm256_loadu_ps(p.add(2 * i + 8)),
            );
            let (s0, s1) = (
                _mm256_loadu_ps(p.add(2 * i + 2)),
                _mm256_loadu_ps(p.add(2 * i + 10)),
            );
            let (q_re, q_im) = (
                _mm256_shuffle_ps::<0x88>(q0, q1),
                _mm256_shuffle_ps::<0xDD>(q0, q1),
            );
            let (s_re, s_im) = (
                _mm256_shuffle_ps::<0x88>(s0, s1),
                _mm256_shuffle_ps::<0xDD>(s0, s1),
            );
            let re = _mm256_add_ps(_mm256_mul_ps(s_re, q_re), _mm256_mul_ps(s_im, q_im));
            let im = _mm256_sub_ps(_mm256_mul_ps(s_im, q_re), _mm256_mul_ps(s_re, q_im));
            let r = _mm256_castps_pd(abs_atan2_256(im, re));
            _mm256_storeu_ps(o.add(i), _mm256_castpd_ps(_mm256_permute4x64_pd::<0xD8>(r)));
            i += 8;
        }
        super::scalar::phase_diff_abs(&samples[i..], &mut out[i..]);
    }
}

/// Longest window the AVX2 scorer holds transposed on the stack.
const BARKER_MAX_WLEN: usize = 64;

/// Transposes the 8×8 block of `rows` (row `k` is window `k`) into
/// columns: `out[j]` lane `k` is `rows[k]` lane `j`. Pure moves.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// One window per lane: the eight windows are transposed into columns on
/// the stack, then every sum of the scalar reference runs down the columns
/// in window order: the mean from `-0.0`, the centred energy, and per
/// group of eight offsets eight dots side by side (eight add chains in
/// flight). `max_ps(v, best)` is the reference's `v > best ? v : best`.
/// Windows or offsets not in whole groups of eight, and windows longer than
/// [`BARKER_MAX_WLEN`], take the scalar body.
#[target_feature(enable = "avx2")]
unsafe fn barker_scores_avx2(
    dphi: &[f32],
    tiled: &[f32],
    sps: usize,
    norm: f32,
    scores: &mut [f32; BARKER_WINDOWS],
) {
    let wlen = dphi.len() / BARKER_WINDOWS;
    if wlen > BARKER_MAX_WLEN || !wlen.is_multiple_of(8) || !sps.is_multiple_of(8) {
        return super::scalar::barker_scores(dphi, tiled, sps, norm, scores);
    }
    // Every read below lies inside both slices exactly when this holds.
    assert!(dphi.len() == BARKER_WINDOWS * wlen && tiled.len() + 1 >= wlen + sps);
    // SAFETY: AVX2 is present (module docs). Row loads end at
    // `7 * wlen + i + 8 <= dphi.len()`, pattern reads at index
    // `first + i + j <= (sps - 8) + (wlen - 1) + 7 < tiled.len()` by the
    // assert, and `cols` has room for `wlen <= BARKER_MAX_WLEN` columns.
    unsafe {
        let p = dphi.as_ptr();
        let mut cols = [_mm256_setzero_ps(); BARKER_MAX_WLEN];
        for i in (0..wlen).step_by(8) {
            let rows = std::array::from_fn(|k| _mm256_loadu_ps(p.add(k * wlen + i)));
            cols[i..i + 8].copy_from_slice(&transpose8(rows));
        }
        let cols = &mut cols[..wlen];
        let mut sum = _mm256_set1_ps(-0.0);
        for &c in cols.iter() {
            sum = _mm256_add_ps(sum, c);
        }
        let mean = _mm256_div_ps(sum, _mm256_set1_ps(wlen as f32));
        let mut energy = _mm256_setzero_ps();
        for c in cols.iter_mut() {
            *c = _mm256_sub_ps(*c, mean);
            energy = _mm256_add_ps(energy, _mm256_mul_ps(*c, *c));
        }
        let denom = _mm256_max_ps(
            _mm256_mul_ps(_mm256_set1_ps(norm), _mm256_sqrt_ps(energy)),
            _mm256_set1_ps(1e-9),
        );
        let t = tiled.as_ptr();
        let mut best = _mm256_set1_ps(-1.0);
        for first in (0..sps).step_by(8) {
            let mut dots = [_mm256_setzero_ps(); 8];
            for (i, &c) in cols.iter().enumerate() {
                for (j, dot) in dots.iter_mut().enumerate() {
                    let pattern = _mm256_set1_ps(*t.add(first + i + j));
                    *dot = _mm256_add_ps(*dot, _mm256_mul_ps(c, pattern));
                }
            }
            for dot in dots {
                best = _mm256_max_ps(_mm256_div_ps(dot, denom), best);
            }
        }
        _mm256_storeu_ps(scores.as_mut_ptr(), best);
    }
}

/// Per-element complex multiply `b * w` on four packed complex values.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_256(b: __m256, w: __m256) -> __m256 {
    let w_re = _mm256_shuffle_ps::<0xA0>(w, w);
    let w_im = _mm256_shuffle_ps::<0xF5>(w, w);
    let b_swap = _mm256_shuffle_ps::<0xB1>(b, b);
    let t1 = _mm256_mul_ps(b, w_re);
    let t2 = _mm256_mul_ps(b_swap, w_im);
    let sign_even = _mm256_set_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
    _mm256_add_ps(t1, _mm256_xor_ps(t2, sign_even))
}

#[target_feature(enable = "avx2")]
unsafe fn fft_stage_avx2(buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) {
    unsafe {
        let len = half * 2;
        let n = buf.len();
        let base = buf.as_mut_ptr() as *mut f32;
        let twp = tw.as_ptr() as *const f32;
        let conj_mask = _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
        let mut start = 0usize;
        while start < n {
            let mut k = 0usize;
            while k + 4 <= half {
                let mut w = _mm256_loadu_ps(twp.add(2 * k));
                if inverse {
                    w = _mm256_xor_ps(w, conj_mask);
                }
                let a = _mm256_loadu_ps(base.add(2 * (start + k)));
                let b = _mm256_loadu_ps(base.add(2 * (start + k + half)));
                let bw = mul_256(b, w);
                _mm256_storeu_ps(base.add(2 * (start + k)), _mm256_add_ps(a, bw));
                _mm256_storeu_ps(base.add(2 * (start + k + half)), _mm256_sub_ps(a, bw));
                k += 4;
            }
            while k < half {
                let mut w = tw[k];
                if inverse {
                    w = w.conj();
                }
                let a = buf[start + k];
                let b = buf[start + k + half] * w;
                buf[start + k] = a + b;
                buf[start + k + half] = a - b;
                k += 1;
            }
            start += len;
        }
    }
}

/// One output per lane: each of `out[m..m+8]` sums its taps in order,
/// starting from zero, then takes the optional scale, as the scalar loop
/// does. Tiles of 32 outputs in four accumulators keep four add chains in
/// flight; then 8 outputs at a time, then the scalar loop for the rest.
#[target_feature(enable = "avx2")]
unsafe fn polyphase_rows_avx2(
    src: &[f32],
    offs: &[usize],
    taps: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
) {
    unsafe {
        let n = out.len();
        let s = src.as_ptr();
        let o = out.as_mut_ptr();
        let mut m = 0usize;
        while m + 32 <= n {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (&off, &w) in offs.iter().zip(taps) {
                let wv = _mm256_set1_ps(w);
                let row = s.add(off + m);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(row), wv));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(row.add(8)), wv));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(row.add(16)), wv));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(row.add(24)), wv));
            }
            if let Some(k) = scale {
                let kv = _mm256_set1_ps(k);
                a0 = _mm256_mul_ps(a0, kv);
                a1 = _mm256_mul_ps(a1, kv);
                a2 = _mm256_mul_ps(a2, kv);
                a3 = _mm256_mul_ps(a3, kv);
            }
            _mm256_storeu_ps(o.add(m), a0);
            _mm256_storeu_ps(o.add(m + 8), a1);
            _mm256_storeu_ps(o.add(m + 16), a2);
            _mm256_storeu_ps(o.add(m + 24), a3);
            m += 32;
        }
        while m + 8 <= n {
            let mut a = _mm256_setzero_ps();
            for (&off, &w) in offs.iter().zip(taps) {
                a = _mm256_add_ps(
                    a,
                    _mm256_mul_ps(_mm256_loadu_ps(s.add(off + m)), _mm256_set1_ps(w)),
                );
            }
            if let Some(k) = scale {
                a = _mm256_mul_ps(a, _mm256_set1_ps(k));
            }
            _mm256_storeu_ps(o.add(m), a);
            m += 8;
        }
        super::scalar::polyphase_rows_from(src, offs, taps, scale, out, m);
    }
}

/// The unsigned minimum of `bits - 1` and maximum of `bits` over `xs`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bit_range_avx2(xs: &[f32]) -> (u32, u32) {
    unsafe {
        let one = _mm256_set1_epi32(1);
        let mut lo = _mm256_set1_epi32(-1);
        let mut hi = _mm256_setzero_si256();
        let n8 = xs.len() & !7;
        let mut i = 0usize;
        while i < n8 {
            let b = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            lo = _mm256_min_epu32(lo, _mm256_sub_epi32(b, one));
            hi = _mm256_max_epu32(hi, b);
            i += 8;
        }
        let (mut l, mut h) = ([0u32; 8], [0u32; 8]);
        _mm256_storeu_si256(l.as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(h.as_mut_ptr() as *mut __m256i, hi);
        let bits = xs[n8..].iter().map(|x| x.to_bits());
        (
            l.into_iter()
                .chain(bits.clone().map(|b| b.wrapping_sub(1)))
                .min()
                .unwrap_or(u32::MAX),
            h.into_iter().chain(bits).max().unwrap_or(0),
        )
    }
}

/// Sum of the `len` floats at `p`: four `f64` lanes (two accumulators, so
/// two add chains run at once) and a scalar for the `len % 4` remainder.
///
/// # Safety
///
/// `p..p + len` must be readable.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn span_sum_avx2(p: *const f32, len: usize) -> (__m256d, f64) {
    unsafe {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 8 <= len {
            a0 = _mm256_add_pd(a0, _mm256_cvtps_pd(_mm_loadu_ps(p.add(i))));
            a1 = _mm256_add_pd(a1, _mm256_cvtps_pd(_mm_loadu_ps(p.add(i + 4))));
            i += 8;
        }
        if i + 4 <= len {
            a0 = _mm256_add_pd(a0, _mm256_cvtps_pd(_mm_loadu_ps(p.add(i))));
            i += 4;
        }
        let mut rest = 0.0;
        while i < len {
            rest += *p.add(i) as f64;
            i += 1;
        }
        (_mm256_add_pd(a0, a1), rest)
    }
}

#[target_feature(enable = "avx2")]
unsafe fn window_sums_avx2(xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32) {
    // Every span read below lies inside `xs` exactly when this holds.
    assert!(
        sums.len().checked_mul(w).is_some_and(|n| n <= xs.len()),
        "window_sums: windows overrun xs"
    );
    unsafe {
        let (lo, hi) = bit_range_avx2(xs);
        let p = xs.as_ptr();
        let o = sums.as_mut_ptr();
        let mut total = _mm256_setzero_pd();
        let mut rest = 0.0;
        // Two windows at a time, reduced together by one horizontal add.
        let mut k = 0usize;
        while k + 2 <= sums.len() {
            let (a, ra) = span_sum_avx2(p.add(k * w), w);
            let (b, rb) = span_sum_avx2(p.add((k + 1) * w), w);
            total = _mm256_add_pd(total, _mm256_add_pd(a, b));
            rest += ra + rb;
            let h = _mm256_hadd_pd(a, b); // [a0+a1, b0+b1, a2+a3, b2+b3]
            let ab = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd::<1>(h));
            _mm_storeu_pd(o.add(k), _mm_add_pd(ab, _mm_set_pd(rb, ra)));
            k += 2;
        }
        if k < sums.len() {
            let (a, ra) = span_sum_avx2(p.add(k * w), w);
            total = _mm256_add_pd(total, a);
            rest += ra;
            sums[k] = hsum_pd_256(a) + ra;
        }
        let done = sums.len() * w;
        let (t, rt) = span_sum_avx2(p.add(done), xs.len() - done);
        (hsum_pd_256(_mm256_add_pd(total, t)) + (rest + rt), lo, hi)
    }
}

/// Sum of the four lanes, in any order (callers are certified exact).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_pd_256(v: __m256d) -> f64 {
    let t = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
    _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
}

// ---------------------------------------------------------------------------
// CRC-32 by carry-less multiplication (PCLMULQDQ)
// ---------------------------------------------------------------------------
//
// The reflected CRC-32/IEEE register is folded 128 bits at a time: a block
// `B` of the message, followed by `k` more bits, contributes
// `B · x^k mod P` to the remainder, and a carry-less multiply by the
// precomputed `x^k mod P` moves it forward without touching those bits.
// In the bit-reflected domain a 32-bit remainder `r` is stored as
// `reflect32(r) << 1`, a 33-bit value. Integer arithmetic throughout: the
// result is the slice-by-8 reference's by construction, and the
// differential tests check it.

/// `x^(4·128+32) mod P`: folds each of four lanes' low halves 512 bits on.
const FOLD_4_LO: u64 = 0x1_5444_2BD4;
/// `x^(4·128-32) mod P`: folds each of four lanes' high halves 512 bits on.
const FOLD_4_HI: u64 = 0x1_C6E4_1596;
/// `x^(128+32) mod P`: folds one lane's low half 128 bits on.
const FOLD_1_LO: u64 = 0x1_7519_97D0;
/// `x^(128-32) mod P`: folds one lane's high half 128 bits on.
const FOLD_1_HI: u64 = 0x0_CCAA_009E;
/// `x^64 mod P`: folds the last 64 bits down to 32 plus a 32-bit shift.
const FOLD_64: u64 = 0x1_63CD_6124;
/// `P` itself, reflected over its 33 bits: the Barrett reduction's modulus.
const POLY_REFLECTED: u64 = 0x1_DB71_0641;
/// `⌊x^64 / P⌋`, reflected over its 33 bits: the Barrett quotient estimate.
const BARRETT_MU: u64 = 0x1_F701_1641;

/// Inputs shorter than this stay on slice-by-8, where the fold set-up and
/// the final reduction would cost more than they save.
const CLMUL_MIN_LEN: usize = 128;

/// The AVX2 table's CRC-32 register update: whole 16-byte blocks fold by
/// carry-less multiplication when the CPU has PCLMULQDQ and the input is
/// long enough; the tail, short inputs and CPUs without it take the
/// slice-by-8 reference.
pub(super) fn clmul_crc32_update(reg: u32, data: &[u8]) -> u32 {
    if data.len() < CLMUL_MIN_LEN || !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return super::scalar::crc32_update(reg, data);
    }
    let (blocks, tail) = data.split_at(data.len() & !15);
    // SAFETY: PCLMULQDQ was detected just above and SSE2 is the x86-64
    // baseline; `blocks` is at least 64 bytes and a whole number of 16-byte
    // blocks, as the kernel requires.
    let reg = unsafe { crc32_fold_clmul(reg, blocks) };
    super::scalar::crc32_update(reg, tail)
}

/// One 128-bit fold: `x`'s low half times `k`'s low half, plus `x`'s high
/// half times `k`'s high half, plus the next block.
///
/// # Safety
///
/// The CPU must support SSE2 and PCLMULQDQ.
#[inline]
#[target_feature(enable = "sse2,pclmulqdq")]
unsafe fn fold_128(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(x, k);
    let hi = _mm_clmulepi64_si128::<0x11>(x, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// The register `reg` advanced over `data`: four fold lanes of 16 bytes
/// stride 64 through the input, fold into one, take the remaining blocks,
/// then reduce 128 → 64 → 32 bits and finish with a Barrett reduction.
///
/// # Safety
///
/// The CPU must support SSE2 and PCLMULQDQ, and `data.len()` must be a
/// multiple of 16 and at least 64.
#[target_feature(enable = "sse2,pclmulqdq")]
unsafe fn crc32_fold_clmul(reg: u32, data: &[u8]) -> u32 {
    assert!(data.len() >= 64 && data.len().is_multiple_of(16));
    // SAFETY: every load reads the 16 bytes at an offset `at` with
    // `at + 16 <= n`: the four lane loads start at 0..=48 and `n >= 64`,
    // the fold-by-four loop runs while `at + 64 <= n`, and the single-block
    // loop while `at < n`, with `n - at` a multiple of 16.
    unsafe {
        let n = data.len();
        let p = data.as_ptr();
        let load = |at: usize| _mm_loadu_si128(p.add(at) as *const __m128i);
        let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(reg as i32));
        let mut x1 = load(16);
        let mut x2 = load(32);
        let mut x3 = load(48);
        let k4 = _mm_set_epi64x(FOLD_4_HI as i64, FOLD_4_LO as i64);
        let mut at = 64;
        while at + 64 <= n {
            x0 = fold_128(x0, k4, load(at));
            x1 = fold_128(x1, k4, load(at + 16));
            x2 = fold_128(x2, k4, load(at + 32));
            x3 = fold_128(x3, k4, load(at + 48));
            at += 64;
        }
        let k1 = _mm_set_epi64x(FOLD_1_HI as i64, FOLD_1_LO as i64);
        let mut x = fold_128(x0, k1, x1);
        x = fold_128(x, k1, x2);
        x = fold_128(x, k1, x3);
        while at < n {
            x = fold_128(x, k1, load(at));
            at += 16;
        }
        // 128 → 64 bits: the low half moves on by `x^(128-32)`, which also
        // appends the 32 zero bits a CRC's remainder implies.
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k1));
        // 64 → 32 bits (plus 32 more): the low word moves on by `x^64`.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k64 = _mm_set_epi64x(0, FOLD_64 as i64);
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k64),
        );
        // Barrett: q = low32 · μ, then r = x - (q mod x^32) · P, in its
        // upper word.
        let barrett = _mm_set_epi64x(BARRETT_MU as i64, POLY_REFLECTED as i64);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), barrett);
        let r = _mm_xor_si128(x, qp);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(r)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^k mod P` for the normal-order CRC-32 polynomial.
    fn x_pow_mod_p(k: u32) -> u32 {
        const P: u64 = 0x1_04C1_1DB7;
        let mut r: u64 = 1;
        for _ in 0..k {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
        }
        r as u32
    }

    /// The low `bits` bits of `v` in reverse order.
    fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    #[test]
    fn fold_constants_are_the_powers_of_x_they_claim() {
        let folded = |k: u32| reflect(x_pow_mod_p(k) as u64, 32) << 1;
        assert_eq!(FOLD_4_LO, folded(4 * 128 + 32));
        assert_eq!(FOLD_4_HI, folded(4 * 128 - 32));
        assert_eq!(FOLD_1_LO, folded(128 + 32));
        assert_eq!(FOLD_1_HI, folded(128 - 32));
        assert_eq!(FOLD_64, folded(64));
        const P: u64 = 0x1_04C1_1DB7;
        assert_eq!(POLY_REFLECTED, reflect(P, 33));
        // ⌊x^64 / P⌋ by long division over GF(2).
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem & (1 << bit) != 0 {
                rem ^= (P as u128) << (bit - 32);
                quot |= 1 << (bit - 32);
            }
        }
        assert_eq!(BARRETT_MU, reflect(quot, 33));
    }
}
