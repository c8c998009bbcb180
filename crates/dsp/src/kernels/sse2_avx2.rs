//! x86-64 SSE2 and AVX2 kernel backends.
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
//! dispatch tables in `mod.rs`, which select the SSE2/AVX2 tables only
//! after `is_x86_feature_detected!` has confirmed the feature (enforced by
//! `resolve_from_env` / `set_backend`). The `pub(super)` safe wrappers
//! additionally `debug_assert!` the feature in test builds.

use crate::complex::{Complex32, I16_UNIT};
use core::arch::x86_64::*;
use std::mem::MaybeUninit;

// ---------------------------------------------------------------------------
// SSE2
// ---------------------------------------------------------------------------

macro_rules! sse2_wrapper {
    ($pub_name:ident, $impl_name:ident, ($($arg:ident: $ty:ty),*) -> $ret:ty) => {
        pub(super) fn $pub_name($($arg: $ty),*) -> $ret {
            debug_assert!(std::arch::is_x86_feature_detected!("sse2"));
            // SAFETY: only dispatched after runtime SSE2 detection (see
            // module docs); slice/pointer invariants upheld by the callee.
            unsafe { $impl_name($($arg),*) }
        }
    };
}

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

sse2_wrapper!(sse2_sum_sq_f32, sum_sq_sse2, (xs: &[f32]) -> f64);
sse2_wrapper!(sse2_dot_f32, dot_sse2, (a: &[f32], b: &[f32]) -> f64);
sse2_wrapper!(sse2_power_into, power_sse2, (samples: &[Complex32], out: &mut [f32]) -> ());
sse2_wrapper!(sse2_widen_i16_iq, widen_i16_iq_sse2, (bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) -> ());
sse2_wrapper!(sse2_fir_dot, fir_dot_sse2, (window: &[f32], taps2: &[f32]) -> Complex32);
sse2_wrapper!(sse2_conj_dot, conj_dot_sse2, (signal: &[Complex32], pattern: &[Complex32]) -> Complex32);
sse2_wrapper!(sse2_conj_mul_adjacent, conj_mul_adjacent_sse2, (samples: &[Complex32], out: &mut [Complex32]) -> ());
sse2_wrapper!(sse2_fft_stage, fft_stage_sse2, (buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) -> ());
sse2_wrapper!(sse2_polyphase_rows, polyphase_rows_sse2, (src: &[f32], offs: &[usize], taps: &[f32], scale: Option<f32>, out: &mut [f32]) -> ());
sse2_wrapper!(sse2_window_sums, window_sums_sse2, (xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32));

avx2_wrapper!(avx2_sum_sq_f32, sum_sq_avx2, (xs: &[f32]) -> f64);
avx2_wrapper!(avx2_dot_f32, dot_avx2, (a: &[f32], b: &[f32]) -> f64);
avx2_wrapper!(avx2_power_into, power_avx2, (samples: &[Complex32], out: &mut [f32]) -> ());
avx2_wrapper!(avx2_widen_i16_iq, widen_i16_iq_avx2, (bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) -> ());
avx2_wrapper!(avx2_fir_dot, fir_dot_avx2, (window: &[f32], taps2: &[f32]) -> Complex32);
avx2_wrapper!(avx2_conj_dot, conj_dot_avx2, (signal: &[Complex32], pattern: &[Complex32]) -> Complex32);
avx2_wrapper!(avx2_conj_mul_adjacent, conj_mul_adjacent_avx2, (samples: &[Complex32], out: &mut [Complex32]) -> ());
avx2_wrapper!(avx2_fft_stage, fft_stage_avx2, (buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) -> ());
avx2_wrapper!(avx2_polyphase_rows, polyphase_rows_avx2, (src: &[f32], offs: &[usize], taps: &[f32], scale: Option<f32>, out: &mut [f32]) -> ());
avx2_wrapper!(avx2_window_sums, window_sums_avx2, (xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32));

/// Sign mask flipping the odd (imaginary) lanes of a 128-bit vector.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sign_odd128() -> __m128 {
    _mm_set_ps(-0.0, 0.0, -0.0, 0.0)
}

/// Sign mask flipping the even (real) lanes of a 128-bit vector.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn sign_even128() -> __m128 {
    _mm_set_ps(0.0, -0.0, 0.0, -0.0)
}

#[target_feature(enable = "sse2")]
unsafe fn sum_sq_sse2(xs: &[f32]) -> f64 {
    unsafe {
        let n8 = xs.len() & !7;
        let p = xs.as_ptr();
        // Striped lanes: acc0=[l0,l1] acc1=[l2,l3] acc2=[l4,l5] acc3=[l6,l7].
        let mut acc0 = _mm_setzero_pd();
        let mut acc1 = _mm_setzero_pd();
        let mut acc2 = _mm_setzero_pd();
        let mut acc3 = _mm_setzero_pd();
        let mut i = 0usize;
        while i < n8 {
            let a = _mm_loadu_ps(p.add(i));
            let b = _mm_loadu_ps(p.add(i + 4));
            let a_lo = _mm_cvtps_pd(a);
            let a_hi = _mm_cvtps_pd(_mm_movehl_ps(a, a));
            let b_lo = _mm_cvtps_pd(b);
            let b_hi = _mm_cvtps_pd(_mm_movehl_ps(b, b));
            acc0 = _mm_add_pd(acc0, _mm_mul_pd(a_lo, a_lo));
            acc1 = _mm_add_pd(acc1, _mm_mul_pd(a_hi, a_hi));
            acc2 = _mm_add_pd(acc2, _mm_mul_pd(b_lo, b_lo));
            acc3 = _mm_add_pd(acc3, _mm_mul_pd(b_hi, b_hi));
            i += 8;
        }
        let mut acc = reduce8_pd(acc0, acc1, acc2, acc3);
        for &x in &xs[n8..] {
            acc += (x as f64) * (x as f64);
        }
        acc
    }
}

#[target_feature(enable = "sse2")]
unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f64 {
    unsafe {
        let n8 = a.len() & !7;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm_setzero_pd();
        let mut acc1 = _mm_setzero_pd();
        let mut acc2 = _mm_setzero_pd();
        let mut acc3 = _mm_setzero_pd();
        let mut i = 0usize;
        while i < n8 {
            let xa = _mm_loadu_ps(pa.add(i));
            let xb = _mm_loadu_ps(pb.add(i));
            let ya = _mm_loadu_ps(pa.add(i + 4));
            let yb = _mm_loadu_ps(pb.add(i + 4));
            acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_cvtps_pd(xa), _mm_cvtps_pd(xb)));
            acc1 = _mm_add_pd(
                acc1,
                _mm_mul_pd(
                    _mm_cvtps_pd(_mm_movehl_ps(xa, xa)),
                    _mm_cvtps_pd(_mm_movehl_ps(xb, xb)),
                ),
            );
            acc2 = _mm_add_pd(acc2, _mm_mul_pd(_mm_cvtps_pd(ya), _mm_cvtps_pd(yb)));
            acc3 = _mm_add_pd(
                acc3,
                _mm_mul_pd(
                    _mm_cvtps_pd(_mm_movehl_ps(ya, ya)),
                    _mm_cvtps_pd(_mm_movehl_ps(yb, yb)),
                ),
            );
            i += 8;
        }
        let mut acc = reduce8_pd(acc0, acc1, acc2, acc3);
        for k in n8..a.len() {
            acc += (a[k] as f64) * (b[k] as f64);
        }
        acc
    }
}

/// Reduces striped f64 lanes [l0,l1] [l2,l3] [l4,l5] [l6,l7] with the
/// contract tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn reduce8_pd(acc0: __m128d, acc1: __m128d, acc2: __m128d, acc3: __m128d) -> f64 {
    let s02 = _mm_add_pd(acc0, acc2); // [l0+l4, l1+l5]
    let s13 = _mm_add_pd(acc1, acc3); // [l2+l6, l3+l7]
    let t = _mm_add_pd(s02, s13); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)]
    _mm_cvtsd_f64(t) + _mm_cvtsd_f64(_mm_unpackhi_pd(t, t))
}

#[target_feature(enable = "sse2")]
unsafe fn power_sse2(samples: &[Complex32], out: &mut [f32]) {
    unsafe {
        let n = samples.len();
        let p = samples.as_ptr() as *const f32;
        let o = out.as_mut_ptr();
        let n4 = n & !3;
        let mut i = 0usize;
        while i < n4 {
            let a = _mm_loadu_ps(p.add(2 * i)); // re0 im0 re1 im1
            let b = _mm_loadu_ps(p.add(2 * i + 4)); // re2 im2 re3 im3
            let sa = _mm_mul_ps(a, a);
            let sb = _mm_mul_ps(b, b);
            let evens = _mm_shuffle_ps::<0x88>(sa, sb); // re² in order
            let odds = _mm_shuffle_ps::<0xDD>(sa, sb); // im² in order
            _mm_storeu_ps(o.add(i), _mm_add_ps(evens, odds));
            i += 4;
        }
        for k in n4..n {
            out[k] = samples[k].norm_sqr();
        }
    }
}

/// Four pairs per step. SSE2 has no `cvtepi16_epi32`, so each i16 is
/// sign-extended by hand: an arithmetic shift by 15 gives its sign word,
/// and unpacking the value with that word makes the i32. (Unpacking the
/// value into the high half and shifting it down loses to LLVM, which
/// leaves the low half to a stale register and chains every step to the
/// last.) Then the exact int→f32 conversion and the scalar reference's two
/// multiplies, in its order. Reads and writes stay within both slices
/// whatever their lengths.
#[target_feature(enable = "sse2")]
unsafe fn widen_i16_iq_sse2(bytes: &[u8], scale: f32, out: &mut [MaybeUninit<Complex32>]) {
    unsafe {
        let n4 = out.len().min(bytes.len() / 4) & !3;
        let src = bytes.as_ptr();
        let dst = out.as_mut_ptr() as *mut f32;
        let unit = _mm_set1_ps(I16_UNIT);
        let k = _mm_set1_ps(scale);
        let mut i = 0usize;
        while i < n4 {
            let v = _mm_loadu_si128(src.add(4 * i) as *const __m128i); // i0 q0 .. i3 q3
            let sign = _mm_srai_epi16::<15>(v);
            let lo = _mm_unpacklo_epi16(v, sign); // i0 q0 i1 q1
            let hi = _mm_unpackhi_epi16(v, sign); // i2 q2 i3 q3
            let lo = _mm_mul_ps(_mm_mul_ps(_mm_cvtepi32_ps(lo), unit), k);
            let hi = _mm_mul_ps(_mm_mul_ps(_mm_cvtepi32_ps(hi), unit), k);
            _mm_storeu_ps(dst.add(2 * i), lo);
            _mm_storeu_ps(dst.add(2 * i + 4), hi);
            i += 4;
        }
        super::scalar::widen_i16_iq(&bytes[4 * n4..], scale, &mut out[n4..]);
    }
}

#[target_feature(enable = "sse2")]
unsafe fn fir_dot_sse2(window: &[f32], taps2: &[f32]) -> Complex32 {
    unsafe {
        let len = window.len();
        let n8 = len & !7;
        let pw = window.as_ptr();
        let pt = taps2.as_ptr();
        let mut acc0 = _mm_setzero_ps(); // lanes l0..l3
        let mut acc1 = _mm_setzero_ps(); // lanes l4..l7
        let mut i = 0usize;
        while i < n8 {
            acc0 = _mm_add_ps(
                acc0,
                _mm_mul_ps(_mm_loadu_ps(pw.add(i)), _mm_loadu_ps(pt.add(i))),
            );
            acc1 = _mm_add_ps(
                acc1,
                _mm_mul_ps(_mm_loadu_ps(pw.add(i + 4)), _mm_loadu_ps(pt.add(i + 4))),
            );
            i += 8;
        }
        let (mut re, mut im) = reduce8_ps(acc0, acc1);
        let mut k = n8;
        while k < len {
            re += window[k] * taps2[k];
            im += window[k + 1] * taps2[k + 1];
            k += 2;
        }
        Complex32::new(re, im)
    }
}

/// Reduces striped f32 lanes [l0..l3] [l4..l7] to
/// `((l0+l4)+(l2+l6), (l1+l5)+(l3+l7))`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn reduce8_ps(acc0: __m128, acc1: __m128) -> (f32, f32) {
    let s = _mm_add_ps(acc0, acc1); // [l0+l4, l1+l5, l2+l6, l3+l7]
    let r = _mm_add_ps(s, _mm_movehl_ps(s, s)); // pairwise tree
    (
        _mm_cvtss_f32(r),
        _mm_cvtss_f32(_mm_shuffle_ps::<0x01>(r, r)),
    )
}

/// Per-element `s * conj(p)` on two packed complex values:
/// `re = s.re*p.re + s.im*p.im`, `im = s.im*p.re - s.re*p.im`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn conj_mul_128(s: __m128, p: __m128) -> __m128 {
    unsafe {
        let p_re = _mm_shuffle_ps::<0xA0>(p, p); // [p0.re, p0.re, p1.re, p1.re]
        let p_im = _mm_shuffle_ps::<0xF5>(p, p); // [p0.im, p0.im, p1.im, p1.im]
        let s_swap = _mm_shuffle_ps::<0xB1>(s, s); // [s0.im, s0.re, s1.im, s1.re]
        let t1 = _mm_mul_ps(s, p_re); // [s.re*p.re, s.im*p.re, ...]
        let t2 = _mm_mul_ps(s_swap, p_im); // [s.im*p.im, s.re*p.im, ...]
                                           // even: t1 + t2 ; odd: t1 - t2 (as t1 + (-t2), exact).
        _mm_add_ps(t1, _mm_xor_ps(t2, sign_odd128()))
    }
}

#[target_feature(enable = "sse2")]
unsafe fn conj_dot_sse2(signal: &[Complex32], pattern: &[Complex32]) -> Complex32 {
    unsafe {
        let n = signal.len();
        let n4 = n & !3;
        let ps = signal.as_ptr() as *const f32;
        let pp = pattern.as_ptr() as *const f32;
        let mut acc_a = _mm_setzero_ps(); // complex lanes c0, c1
        let mut acc_b = _mm_setzero_ps(); // complex lanes c2, c3
        let mut i = 0usize;
        while i < n4 {
            let sa = _mm_loadu_ps(ps.add(2 * i));
            let pa = _mm_loadu_ps(pp.add(2 * i));
            let sb = _mm_loadu_ps(ps.add(2 * i + 4));
            let pb = _mm_loadu_ps(pp.add(2 * i + 4));
            acc_a = _mm_add_ps(acc_a, conj_mul_128(sa, pa));
            acc_b = _mm_add_ps(acc_b, conj_mul_128(sb, pb));
            i += 4;
        }
        // (c0+c2) + (c1+c3), matching the scalar contract tree.
        let s = _mm_add_ps(acc_a, acc_b);
        let r = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let mut z = Complex32::new(
            _mm_cvtss_f32(r),
            _mm_cvtss_f32(_mm_shuffle_ps::<0x01>(r, r)),
        );
        for k in n4..n {
            let (s, p) = (signal[k], pattern[k]);
            z.re += s.re * p.re + s.im * p.im;
            z.im += s.im * p.re - s.re * p.im;
        }
        z
    }
}

#[target_feature(enable = "sse2")]
unsafe fn conj_mul_adjacent_sse2(samples: &[Complex32], out: &mut [Complex32]) {
    unsafe {
        let m = out.len();
        let p = samples.as_ptr() as *const f32;
        let o = out.as_mut_ptr() as *mut f32;
        let mut i = 0usize;
        // Two outputs per iteration; loads touch samples[i .. i+3).
        while i + 2 <= m {
            let s = _mm_loadu_ps(p.add(2 * (i + 1)));
            let pv = _mm_loadu_ps(p.add(2 * i));
            _mm_storeu_ps(o.add(2 * i), conj_mul_128(s, pv));
            i += 2;
        }
        while i < m {
            let (s, pz) = (samples[i + 1], samples[i]);
            out[i] = Complex32::new(s.re * pz.re + s.im * pz.im, s.im * pz.re - s.re * pz.im);
            i += 1;
        }
    }
}

/// Per-element complex multiply `b * w` (the butterfly twiddle product):
/// `re = b.re*w.re - b.im*w.im`, `im = b.re*w.im + b.im*w.re`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn mul_128(b: __m128, w: __m128) -> __m128 {
    unsafe {
        let w_re = _mm_shuffle_ps::<0xA0>(w, w);
        let w_im = _mm_shuffle_ps::<0xF5>(w, w);
        let b_swap = _mm_shuffle_ps::<0xB1>(b, b);
        let t1 = _mm_mul_ps(b, w_re); // [b.re*w.re, b.im*w.re, ...]
        let t2 = _mm_mul_ps(b_swap, w_im); // [b.im*w.im, b.re*w.im, ...]
                                           // even: t1 - t2 (as t1 + (-t2)) ; odd: t1 + t2.
        _mm_add_ps(t1, _mm_xor_ps(t2, sign_even128()))
    }
}

#[target_feature(enable = "sse2")]
unsafe fn fft_stage_sse2(buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) {
    unsafe {
        let len = half * 2;
        let n = buf.len();
        let base = buf.as_mut_ptr() as *mut f32;
        let twp = tw.as_ptr() as *const f32;
        let conj_mask = sign_odd128();
        let mut start = 0usize;
        while start < n {
            let mut k = 0usize;
            while k + 2 <= half {
                let mut w = _mm_loadu_ps(twp.add(2 * k));
                if inverse {
                    w = _mm_xor_ps(w, conj_mask); // negate im lanes == conj
                }
                let a = _mm_loadu_ps(base.add(2 * (start + k)));
                let b = _mm_loadu_ps(base.add(2 * (start + k + half)));
                let bw = mul_128(b, w);
                _mm_storeu_ps(base.add(2 * (start + k)), _mm_add_ps(a, bw));
                _mm_storeu_ps(base.add(2 * (start + k + half)), _mm_sub_ps(a, bw));
                k += 2;
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

/// One output per lane: `out[m..m+4]` each sum their taps in order, starting
/// from zero, then take the optional scale — the scalar loop, four outputs
/// at a time. Four accumulators keep four add chains in flight.
#[target_feature(enable = "sse2")]
unsafe fn polyphase_rows_sse2(
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
        while m + 16 <= n {
            let mut a0 = _mm_setzero_ps();
            let mut a1 = _mm_setzero_ps();
            let mut a2 = _mm_setzero_ps();
            let mut a3 = _mm_setzero_ps();
            for (&off, &w) in offs.iter().zip(taps) {
                let wv = _mm_set1_ps(w);
                let row = s.add(off + m);
                a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(row), wv));
                a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(row.add(4)), wv));
                a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(row.add(8)), wv));
                a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(row.add(12)), wv));
            }
            if let Some(k) = scale {
                let kv = _mm_set1_ps(k);
                a0 = _mm_mul_ps(a0, kv);
                a1 = _mm_mul_ps(a1, kv);
                a2 = _mm_mul_ps(a2, kv);
                a3 = _mm_mul_ps(a3, kv);
            }
            _mm_storeu_ps(o.add(m), a0);
            _mm_storeu_ps(o.add(m + 4), a1);
            _mm_storeu_ps(o.add(m + 8), a2);
            _mm_storeu_ps(o.add(m + 12), a3);
            m += 16;
        }
        while m + 4 <= n {
            let mut a = _mm_setzero_ps();
            for (&off, &w) in offs.iter().zip(taps) {
                a = _mm_add_ps(a, _mm_mul_ps(_mm_loadu_ps(s.add(off + m)), _mm_set1_ps(w)));
            }
            if let Some(k) = scale {
                a = _mm_mul_ps(a, _mm_set1_ps(k));
            }
            _mm_storeu_ps(o.add(m), a);
            m += 4;
        }
        super::scalar::polyphase_rows_from(src, offs, taps, scale, out, m);
    }
}

/// Lane-wise signed 32-bit `a < b` select: `(min, max)`; SSE2 has neither.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn min_max_epi32_sse2(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lt = _mm_cmplt_epi32(a, b);
    (
        _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b)),
        _mm_or_si128(_mm_andnot_si128(lt, a), _mm_and_si128(lt, b)),
    )
}

/// Folds the bit patterns `b` into the running unsigned `lo` (of `b - 1`)
/// and `hi` (of `b`), both kept with the sign bit flipped so that signed
/// comparison orders them as unsigned.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn fold_bits_sse2(b: __m128i, lo: &mut __m128i, hi: &mut __m128i) {
    let flip = _mm_set1_epi32(i32::MIN);
    let key = _mm_xor_si128(_mm_sub_epi32(b, _mm_set1_epi32(1)), flip);
    *lo = min_max_epi32_sse2(*lo, key).0;
    *hi = min_max_epi32_sse2(*hi, _mm_xor_si128(b, flip)).1;
}

/// Sum of the `len` floats at `p` in two 2-lane `f64` accumulators, folding
/// their bit patterns into `lo`/`hi` (see [`fold_bits_sse2`]).
///
/// # Safety
///
/// `p..p + len` must be readable.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn span_sum_sse2(p: *const f32, len: usize, lo: &mut __m128i, hi: &mut __m128i) -> f64 {
    unsafe {
        let mut a0 = _mm_setzero_pd();
        let mut a1 = _mm_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= len {
            let v = _mm_loadu_ps(p.add(i));
            fold_bits_sse2(_mm_castps_si128(v), lo, hi);
            a0 = _mm_add_pd(a0, _mm_cvtps_pd(v));
            a1 = _mm_add_pd(a1, _mm_cvtps_pd(_mm_movehl_ps(v, v)));
            i += 4;
        }
        let s = _mm_add_pd(a0, a1);
        let mut acc = _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
        while i < len {
            let x = *p.add(i);
            fold_bits_sse2(_mm_set1_epi32(x.to_bits() as i32), lo, hi);
            acc += x as f64;
            i += 1;
        }
        acc
    }
}

#[target_feature(enable = "sse2")]
unsafe fn window_sums_sse2(xs: &[f32], w: usize, sums: &mut [f64]) -> (f64, u32, u32) {
    // Every span read below lies inside `xs` exactly when this holds.
    assert!(
        sums.len().checked_mul(w).is_some_and(|n| n <= xs.len()),
        "window_sums: windows overrun xs"
    );
    unsafe {
        let p = xs.as_ptr();
        // u32::MAX and 0 with the sign bit flipped.
        let mut lo = _mm_set1_epi32(i32::MAX);
        let mut hi = _mm_set1_epi32(i32::MIN);
        let mut total = 0.0;
        for (k, s) in sums.iter_mut().enumerate() {
            *s = span_sum_sse2(p.add(k * w), w, &mut lo, &mut hi);
            total += *s;
        }
        let done = sums.len() * w;
        total += span_sum_sse2(p.add(done), xs.len() - done, &mut lo, &mut hi);
        let (mut l, mut h) = ([0u32; 4], [0u32; 4]);
        _mm_storeu_si128(l.as_mut_ptr() as *mut __m128i, lo);
        _mm_storeu_si128(h.as_mut_ptr() as *mut __m128i, hi);
        let unflip = |v: u32| v ^ 0x8000_0000;
        (
            total,
            l.into_iter().map(unflip).min().unwrap_or(u32::MAX),
            h.into_iter().map(unflip).max().unwrap_or(0),
        )
    }
}

// ---------------------------------------------------------------------------
// AVX2
// ---------------------------------------------------------------------------

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

#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f64 {
    unsafe {
        let n8 = a.len() & !7;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i < n8 {
            let va = _mm256_loadu_ps(pa.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            let a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
            let b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
            let a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(va));
            let b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(vb));
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(a_lo, b_lo));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(a_hi, b_hi));
            i += 8;
        }
        let mut acc = reduce8_pd_256(acc0, acc1);
        for k in n8..a.len() {
            acc += (a[k] as f64) * (b[k] as f64);
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
unsafe fn conj_dot_avx2(signal: &[Complex32], pattern: &[Complex32]) -> Complex32 {
    unsafe {
        let n = signal.len();
        let n4 = n & !3;
        let ps = signal.as_ptr() as *const f32;
        let pp = pattern.as_ptr() as *const f32;
        let mut acc = _mm256_setzero_ps(); // complex lanes c0..c3
        let mut i = 0usize;
        while i < n4 {
            let s = _mm256_loadu_ps(ps.add(2 * i));
            let p = _mm256_loadu_ps(pp.add(2 * i));
            acc = _mm256_add_ps(acc, conj_mul_256(s, p));
            i += 4;
        }
        // (c0+c2) + (c1+c3): add 128-bit halves, then the two complex lanes.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let s = _mm_add_ps(lo, hi); // [c0+c2, c1+c3]
        let r = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let mut z = Complex32::new(
            _mm_cvtss_f32(r),
            _mm_cvtss_f32(_mm_shuffle_ps::<0x01>(r, r)),
        );
        for k in n4..n {
            let (s, p) = (signal[k], pattern[k]);
            z.re += s.re * p.re + s.im * p.im;
            z.im += s.im * p.re - s.re * p.im;
        }
        z
    }
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

/// The SSE2 kernel's lane-per-output schedule at eight lanes: 32 outputs
/// per tile in four accumulators, then 8 at a time, then the scalar loop.
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
// CRC-32 by carry-less multiplication (SSE2 + PCLMULQDQ, both tables)
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

/// The vector tables' CRC-32 register update: whole 16-byte blocks fold by
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
