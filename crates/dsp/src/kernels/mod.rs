//! Runtime-dispatched SIMD kernels for the DSP hot paths.
//!
//! Every inner loop the detection front end spends real time in — widening
//! the i16 I/Q trace payload to complex samples, per-sample power,
//! windowed-power reductions, FIR and correlation dot products,
//! adjacent conjugate-multiply chains (the paper's "complex conjugation,
//! multiplication and arctan" pipeline, §4.5), and FFT butterfly stages —
//! and the CRC-32 every RFDN frame payload and 802.11 FCS is checked with
//! is routed through the [`KernelTable`] selected here. Three backends ship:
//!
//! * **scalar** — the reference implementation. It *defines* the numeric
//!   contract; the vectorized backends must reproduce it bit-for-bit.
//! * **sse2** — 128-bit `std::arch` intrinsics (baseline on x86-64).
//! * **avx2** — 256-bit intrinsics, used when the CPU reports AVX2.
//!
//! # The bit-exactness contract
//!
//! SIMD changes results only when it changes *evaluation order*. We instead
//! fix the evaluation order in the scalar reference so the natural vector
//! schedule reproduces it exactly:
//!
//! * Element-wise kernels (per-sample power, i16 I/Q widening, conjugate
//!   products, butterfly arithmetic) perform the same IEEE operations per
//!   element in the same order, so every backend is trivially bit-identical.
//!   Widening ([`widen_i16_iq`]) is an exact int→f32 conversion followed by
//!   `from_i16_iq`'s two multiplies, each rounded on its own. Sign manipulation
//!   uses the identities `a + (-b) ≡ a - b` and `x * (-y) ≡ -(x * y)`,
//!   which are exact in IEEE-754.
//! * Reductions use **striped 8-lane accumulation**: lane `j` accumulates
//!   elements with index ≡ `j` (mod 8) over the flat `f32` view, lanes are
//!   combined with the fixed tree `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`,
//!   and tail elements (`len % 8`) are added sequentially afterwards. That
//!   tree is exactly what one 8-lane AVX2 accumulator (add the 128-bit
//!   halves, then reduce pairwise) and two/four SSE2 accumulators produce.
//! * Complex reductions stripe 4 complex lanes with the tree
//!   `(c0+c2) + (c1+c3)`.
//! * **Certified sums** ([`exact_window_sums`]) are the one reduction with
//!   no fixed order, because they are only used when order cannot matter.
//!   Every `f32` in a slice of zeros and positive normal values is a whole
//!   multiple of the ulp `u` of its smallest positive value, so when its
//!   total is below `2^52·u`, every partial sum in *any* order is an
//!   exactly representable `f64`: each backend, and a sequential `f64`
//!   chain, returns the same bits. A slice that fails the test (a negative,
//!   subnormal or non-finite value, nothing but zeros, or too wide a
//!   dynamic range) returns `None`, and the caller runs its sequential
//!   reference instead.
//! * The polyphase resampler's rows ([`polyphase_rows`]) are many short
//!   dot products computed side by side: a lane is one *output*, never a
//!   slice of one output's taps, so each output adds its products in tap
//!   order exactly as the scalar loop does — a `mul` then an `add`, never
//!   a fused multiply-add, whose single rounding would change the bits.
//! * The CRC-32 ([`crate::coding::crc32`]) is an integer kernel: slice-by-8
//!   tables on the scalar backend, carry-less-multiply folding (PCLMULQDQ,
//!   when the CPU has it) on the SSE2 and AVX2 ones. Polynomial arithmetic
//!   over GF(2) has one answer, so every backend returns the same `u32` by
//!   construction; `tests/kernel_differential.rs` checks it anyway.
//! * Transcendentals (`atan2`, `sin_cos`) run in scalar `libm` code,
//!   identical across backends; the vector backends only accelerate the
//!   complex multiplies feeding them. The one exception is the |Δφ| of the
//!   802.11 Barker detector, whose output is only ever thresholded: it is a
//!   fixed polynomial defined once, in plain Rust, in
//!   [`crate::phase::phase_diff_abs_into_slice`]. It is element-wise and
//!   goes through no table entry, so it too is backend-independent.
//!
//! Rust never reassociates floating point, so the scalar reference is
//! bit-stable regardless of optimization level, and
//! `tests/kernel_differential.rs` plus the golden-trace matrix prove the
//! contract on every input class.
//!
//! # Backend selection
//!
//! The active backend resolves once from the `RFD_KERNEL` environment
//! variable (`scalar`, `sse2`, `avx2`, or `auto`; default `auto` = best
//! available) and can be overridden in-process with [`set_backend`] — the
//! test suites use that to run the same pipeline under every backend within
//! one process. Requesting an unavailable backend falls back to scalar with
//! a warning on stderr.

use crate::complex::Complex32;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

mod scalar;
#[cfg(target_arch = "x86_64")]
mod sse2_avx2;

/// A kernel backend identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar reference implementation (always available).
    Scalar = 1,
    /// 128-bit SSE2 intrinsics (x86-64 baseline).
    Sse2 = 2,
    /// 256-bit AVX2 intrinsics.
    Avx2 = 3,
}

impl Backend {
    /// Stable lower-case name used in `RFD_KERNEL`, stats and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses an `RFD_KERNEL` value. `"auto"` maps to `None`.
    pub fn parse(s: &str) -> Option<Option<Backend>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Some(Backend::Scalar)),
            "sse2" => Some(Some(Backend::Sse2)),
            "avx2" => Some(Some(Backend::Avx2)),
            "auto" | "" => Some(None),
            _ => None,
        }
    }

    fn from_id(id: u8) -> Option<Backend> {
        match id {
            1 => Some(Backend::Scalar),
            2 => Some(Backend::Sse2),
            3 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The dispatch table: one function pointer per kernel. All backends share
/// the numeric contract documented at module level, so swapping tables can
/// never change observable output — only speed.
struct KernelTable {
    /// Striped sum of squares over a flat `f32` view, accumulated in `f64`.
    sum_sq_f32: fn(&[f32]) -> f64,
    /// Per-sample `|z|²` (`re*re + im*im`, element-wise).
    power_into: fn(&[Complex32], &mut [f32]),
    /// LE i16 I/Q bytes to `from_i16_iq(i, q).scale(s)` (element-wise);
    /// writes every element of the spare capacity it is handed.
    widen_i16_iq: fn(&[u8], f32, &mut [MaybeUninit<Complex32>]),
    /// Striped dot product of two real sequences, accumulated in `f64`.
    dot_f32: fn(&[f32], &[f32]) -> f64,
    /// Complex-window × duplicated-real-taps dot, striped 8-lane `f32`.
    fir_dot: fn(&[f32], &[f32]) -> Complex32,
    /// `Σ signal[k] * conj(pattern[k])`, striped 4 complex lanes.
    conj_dot: fn(&[Complex32], &[Complex32]) -> Complex32,
    /// `out[i] = samples[i+1] * conj(samples[i])` (element-wise).
    conj_mul_adjacent: fn(&[Complex32], &mut [Complex32]),
    /// One radix-2 butterfly stage across all blocks (element-wise per k).
    fft_stage: fn(&mut [Complex32], usize, &[Complex32], bool),
    /// Polyphase rows: one independent tap-ordered sum per lane (per output).
    polyphase_rows: PolyphaseRowsFn,
    /// Window sums, total and bit-pattern range (certified by the caller).
    window_sums: WindowSumsFn,
    /// Advances a reflected CRC-32/IEEE register over bytes (integer).
    crc32_update: fn(u32, &[u8]) -> u32,
}

/// `(src, offs, taps, scale, out)` of [`polyphase_rows`].
type PolyphaseRowsFn = fn(&[f32], &[usize], &[f32], Option<f32>, &mut [f32]);

/// `(xs, window, sums) -> (total, min of bits - 1, max of bits)` of
/// [`exact_window_sums`].
type WindowSumsFn = fn(&[f32], usize, &mut [f64]) -> (f64, u32, u32);

static SCALAR_TABLE: KernelTable = KernelTable {
    sum_sq_f32: scalar::sum_sq_f32,
    power_into: scalar::power_into,
    widen_i16_iq: scalar::widen_i16_iq,
    dot_f32: scalar::dot_f32,
    fir_dot: scalar::fir_dot,
    conj_dot: scalar::conj_dot,
    conj_mul_adjacent: scalar::conj_mul_adjacent,
    fft_stage: scalar::fft_stage,
    polyphase_rows: scalar::polyphase_rows,
    window_sums: scalar::window_sums,
    crc32_update: scalar::crc32_update,
};

#[cfg(target_arch = "x86_64")]
static SSE2_TABLE: KernelTable = KernelTable {
    sum_sq_f32: sse2_avx2::sse2_sum_sq_f32,
    power_into: sse2_avx2::sse2_power_into,
    widen_i16_iq: sse2_avx2::sse2_widen_i16_iq,
    dot_f32: sse2_avx2::sse2_dot_f32,
    fir_dot: sse2_avx2::sse2_fir_dot,
    conj_dot: sse2_avx2::sse2_conj_dot,
    conj_mul_adjacent: sse2_avx2::sse2_conj_mul_adjacent,
    fft_stage: sse2_avx2::sse2_fft_stage,
    polyphase_rows: sse2_avx2::sse2_polyphase_rows,
    window_sums: sse2_avx2::sse2_window_sums,
    crc32_update: sse2_avx2::clmul_crc32_update,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    sum_sq_f32: sse2_avx2::avx2_sum_sq_f32,
    power_into: sse2_avx2::avx2_power_into,
    widen_i16_iq: sse2_avx2::avx2_widen_i16_iq,
    dot_f32: sse2_avx2::avx2_dot_f32,
    fir_dot: sse2_avx2::avx2_fir_dot,
    conj_dot: sse2_avx2::avx2_conj_dot,
    conj_mul_adjacent: sse2_avx2::avx2_conj_mul_adjacent,
    fft_stage: sse2_avx2::avx2_fft_stage,
    polyphase_rows: sse2_avx2::avx2_polyphase_rows,
    window_sums: sse2_avx2::avx2_window_sums,
    crc32_update: sse2_avx2::clmul_crc32_update,
};

fn table_for(b: Backend) -> &'static KernelTable {
    #[cfg(target_arch = "x86_64")]
    match b {
        Backend::Scalar => &SCALAR_TABLE,
        Backend::Sse2 => &SSE2_TABLE,
        Backend::Avx2 => &AVX2_TABLE,
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = b;
        &SCALAR_TABLE
    }
}

/// Active backend id; 0 = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(0);
static WARNED: AtomicBool = AtomicBool::new(false);

/// The raw `RFD_KERNEL` request captured at first resolution ("auto" when
/// unset), reported by `--stats-json`.
pub fn requested() -> &'static str {
    static REQUESTED: OnceLock<String> = OnceLock::new();
    REQUESTED.get_or_init(|| match std::env::var("RFD_KERNEL") {
        Ok(v) if !v.trim().is_empty() => v.trim().to_ascii_lowercase(),
        _ => "auto".to_string(),
    })
}

/// Backends usable on this machine, in ascending preference order.
pub fn available() -> &'static [Backend] {
    static AVAILABLE: OnceLock<Vec<Backend>> = OnceLock::new();
    AVAILABLE.get_or_init(|| {
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                v.push(Backend::Sse2);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Backend::Avx2);
            }
        }
        v
    })
}

/// True if `b` can run on this machine.
pub fn is_available(b: Backend) -> bool {
    available().contains(&b)
}

fn resolve_from_env() -> Backend {
    let req = requested();
    let best = *available().last().unwrap_or(&Backend::Scalar);
    match Backend::parse(req) {
        Some(None) => best,
        Some(Some(b)) if is_available(b) => b,
        Some(Some(b)) => {
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "rfd-dsp: RFD_KERNEL={} requested but {} is not available \
                     on this CPU; falling back to scalar",
                    req,
                    b.name()
                );
            }
            Backend::Scalar
        }
        None => {
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "rfd-dsp: unrecognized RFD_KERNEL={req} (expected \
                     scalar|sse2|avx2|auto); using auto"
                );
            }
            best
        }
    }
}

/// The currently active backend, resolving `RFD_KERNEL` on first use.
pub fn active() -> Backend {
    match Backend::from_id(ACTIVE.load(Ordering::Relaxed)) {
        Some(b) => b,
        None => {
            let b = resolve_from_env();
            // Racing first calls resolve identically; last store wins.
            ACTIVE.store(b as u8, Ordering::Relaxed);
            b
        }
    }
}

/// Forces the active backend for this process, overriding `RFD_KERNEL`.
///
/// Used by the differential test suites to run the same pipeline under
/// every backend in one process. Fails if the backend is not available on
/// this CPU.
pub fn set_backend(b: Backend) -> Result<(), String> {
    if !is_available(b) {
        return Err(format!("kernel backend {} not available on this CPU", b));
    }
    ACTIVE.store(b as u8, Ordering::Relaxed);
    Ok(())
}

#[inline]
fn table() -> &'static KernelTable {
    table_for(active())
}

/// Reinterprets interleaved complex samples as a flat `[re, im, ...]` view.
///
/// Sound because [`Complex32`] is `#[repr(C)]` with exactly two `f32`
/// fields, so layout, size and alignment match `[f32; 2]`.
pub fn as_flat(samples: &[Complex32]) -> &[f32] {
    // SAFETY: Complex32 is #[repr(C)] { re: f32, im: f32 } — same layout
    // and alignment as two consecutive f32s; total length cannot overflow
    // because the source slice already fits in memory.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts(samples.as_ptr() as *const f32, samples.len() * 2)
    }
}

/// Mutable counterpart of [`as_flat`].
pub(crate) fn as_flat_mut(samples: &mut [Complex32]) -> &mut [f32] {
    // SAFETY: as for `as_flat`; the exclusive borrow of `samples` is moved
    // into the returned slice, so no alias to the samples survives.
    #[allow(unsafe_code)]
    unsafe {
        std::slice::from_raw_parts_mut(samples.as_mut_ptr() as *mut f32, samples.len() * 2)
    }
}

// ---------------------------------------------------------------------------
// Public kernel entry points (dispatch through the active table).
// ---------------------------------------------------------------------------

/// Striped sum of squares of a flat `f32` sequence, accumulated in `f64`.
pub fn sum_sq_f32(xs: &[f32]) -> f64 {
    (table().sum_sq_f32)(xs)
}

/// Average power (mean squared magnitude) of complex samples.
pub fn mean_power(samples: &[Complex32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    (sum_sq_f32(as_flat(samples)) / samples.len() as f64) as f32
}

/// Per-sample instantaneous power `|z|²` into `out` (resized to match).
pub fn power_into(samples: &[Complex32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(samples.len(), 0.0);
    (table().power_into)(samples, out.as_mut_slice());
}

/// Widens little-endian interleaved i16 I/Q bytes, the `.rfdt` payload,
/// into `out` (cleared first): one sample per 4-byte `(i, q)` pair, each
/// bit-identical to `from_i16_iq(i, q).scale(scale)`. Every backend converts
/// exactly to `f32`, then multiplies by `1 / i16::MAX` and by `scale` as two
/// separately rounded steps, never one folded constant and never an FMA.
///
/// # Panics
/// Panics if `bytes` ends in a partial pair.
pub fn widen_i16_iq(bytes: &[u8], scale: f32, out: &mut Vec<Complex32>) {
    assert!(
        bytes.len().is_multiple_of(4),
        "widen_i16_iq: partial I/Q pair"
    );
    let n = bytes.len() / 4;
    out.clear();
    out.reserve(n);
    (table().widen_i16_iq)(bytes, scale, &mut out.spare_capacity_mut()[..n]);
    // SAFETY: `bytes` holds exactly `n` pairs for the `n` spare slots, and
    // every backend writes one slot per pair (the vector loop, then the
    // scalar tail), so all `n` are initialized.
    #[allow(unsafe_code)]
    unsafe {
        out.set_len(n)
    }
}

/// CRC-32/IEEE of `data` (see [`crate::coding::crc32`], its public name):
/// slice-by-8 on the scalar backend, carry-less-multiply folding on the
/// vector backends when the CPU has PCLMULQDQ.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !(table().crc32_update)(u32::MAX, data)
}

/// Striped dot product of two equal-length real sequences in `f64`.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f32 length mismatch");
    (table().dot_f32)(a, b)
}

/// Dot of a flat complex window against per-component duplicated real taps.
///
/// `window` is `[re0, im0, re1, im1, ...]` and `taps2[2j] == taps2[2j+1]`
/// is the tap for complex position `j`; both slices have the same even
/// length. Accumulates in striped 8-lane `f32` (see module docs).
pub fn fir_dot(window: &[f32], taps2: &[f32]) -> Complex32 {
    assert_eq!(window.len(), taps2.len(), "fir_dot length mismatch");
    debug_assert!(window.len().is_multiple_of(2));
    (table().fir_dot)(window, taps2)
}

/// `Σ_k signal[k] * conj(pattern[k])` over equal-length slices.
pub fn conj_dot(signal: &[Complex32], pattern: &[Complex32]) -> Complex32 {
    assert_eq!(signal.len(), pattern.len(), "conj_dot length mismatch");
    (table().conj_dot)(signal, pattern)
}

/// Adjacent conjugate products: `out[i] = samples[i+1] * conj(samples[i])`.
///
/// `out.len()` must be `samples.len() - 1` (no-op for < 2 samples).
pub fn conj_mul_adjacent(samples: &[Complex32], out: &mut [Complex32]) {
    if samples.len() < 2 {
        assert!(out.is_empty(), "conj_mul_adjacent length mismatch");
        return;
    }
    assert_eq!(
        out.len(),
        samples.len() - 1,
        "conj_mul_adjacent length mismatch"
    );
    (table().conj_mul_adjacent)(samples, out);
}

/// One radix-2 Cooley-Tukey stage over all blocks of `buf`.
///
/// `half` is the butterfly half-length; `tw` holds the `half` contiguous
/// stage twiddles; `inverse` conjugates them. `buf.len()` must be a
/// multiple of `2 * half`.
pub fn fft_stage(buf: &mut [Complex32], half: usize, tw: &[Complex32], inverse: bool) {
    assert!(half > 0 && tw.len() == half, "fft_stage bad twiddles");
    assert!(
        buf.len().is_multiple_of(2 * half),
        "fft_stage buffer/stage mismatch"
    );
    (table().fft_stage)(buf, half, tw, inverse);
}

/// Polyphase rows: `out[m] = (Σ_i src[offs[i] + m] * taps[i]) * scale`.
///
/// Each output is one accumulator starting at `0.0` that adds the products
/// in tap order; `scale` (when `Some`) multiplies the finished sum. The
/// vector backends put one *output* per lane, so every output keeps that
/// summation order and all backends agree bit for bit.
pub fn polyphase_rows(
    src: &[f32],
    offs: &[usize],
    taps: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
) {
    assert_eq!(offs.len(), taps.len(), "polyphase_rows length mismatch");
    // The vector backends read unchecked: every row must fit, without wrap.
    let reach = offs
        .iter()
        .max()
        .map_or(Some(0), |&o| o.checked_add(out.len()));
    assert!(
        reach.is_some_and(|r| r <= src.len()),
        "polyphase_rows row out of bounds"
    );
    (table().polyphase_rows)(src, offs, taps, scale, out);
}

/// `2^52`: a certified total stays below this many units, so even a carry
/// of the same size added to it keeps every partial sum exact.
const EXACT_LIMIT: f64 = (1u64 << 52) as f64;

/// Sums certified exact by [`exact_window_sums`]: every value summed is a
/// whole multiple of `unit` and `total < 2^52·unit`, so any subset summed
/// in any order gives the same `f64` as the sequential chain. Only
/// [`exact_window_sums`] makes one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactSums {
    /// Sum of every value.
    total: f64,
    /// The ulp of the smallest positive value.
    unit: f64,
}

impl ExactSums {
    /// Sum of every certified value, exactly as the sequential chain has it.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Certifies a slice's `total` from `lo`, the smallest `bits - 1` over
    /// its values (wrapping, so zeros read largest), and `hi`, the largest
    /// bit pattern: every value non-negative and finite (`hi` below
    /// infinity's pattern; a set sign bit reads above it), at least one
    /// positive and none subnormal (`lo + 1` is the smallest positive value,
    /// normal), and the total below `2^52` units.
    fn certify(total: f64, lo: u32, hi: u32) -> Option<ExactSums> {
        const MIN_NORMAL: u32 = 0x0080_0000;
        const INFINITY: u32 = 0x7F80_0000;
        if hi >= INFINITY || lo.wrapping_add(1) < MIN_NORMAL {
            return None;
        }
        // ulp of 1.m·2^(e-127) is 2^(e-150), a normal f64 for e in 1..=254.
        let unit = f64::from_bits((((lo + 1) >> 23) as u64 + 1023 - 150) << 52);
        (total < EXACT_LIMIT * unit).then_some(ExactSums { total, unit })
    }

    /// Whether `carry` plus or minus any subset of the certified values is
    /// exact in every order: `carry` must be a multiple of a granule `g`
    /// that divides `unit` too, with `|carry| + total < 2^52·g`. This is how
    /// a running sum carried across slices joins the certificate.
    pub fn admits(&self, carry: f64) -> bool {
        let g = self.unit.min(granule(carry));
        carry.abs() + self.total < EXACT_LIMIT * g
    }
}

/// The largest power of two `x` is a whole multiple of: infinite for zero,
/// zero (admitting nothing) for a subnormal or non-finite `x`.
fn granule(x: f64) -> f64 {
    if x == 0.0 {
        return f64::INFINITY;
    }
    if !x.is_normal() {
        return 0.0;
    }
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i64;
    let mant = (bits & ((1u64 << 52) - 1)) | (1u64 << 52);
    // x = mant·2^(exp-1075); its lowest set bit is worth 2^k.
    let k = exp - 1075 + mant.trailing_zeros() as i64;
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (k + 1074))
    }
}

/// Certified sums of non-negative `xs` in one pass: `sums[k]` becomes the
/// sum of `xs[k·window..(k+1)·window]` for each of the `xs.len() / window`
/// whole windows (the length `sums` must have), and the result carries the
/// total. Returns `None` — `sums` then unspecified — unless the slice
/// passes the certificate of the module docs, in which case every backend
/// and the sequential `f64` chain agree bit for bit.
pub fn exact_window_sums(xs: &[f32], window: usize, sums: &mut [f64]) -> Option<ExactSums> {
    assert!(window > 0, "exact_window_sums: empty window");
    assert_eq!(
        sums.len(),
        xs.len() / window,
        "exact_window_sums: one sum per whole window"
    );
    if xs.is_empty() {
        return None;
    }
    let (total, lo, hi) = (table().window_sums)(xs, window, sums);
    ExactSums::certify(total, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn iq(rng: &mut Xoshiro256, n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|_| Complex32::new((rng.next_f32() - 0.5) * 4.0, (rng.next_f32() - 0.5) * 4.0))
            .collect()
    }

    /// Runs `f` under every available backend and asserts all results are
    /// bit-identical to scalar.
    fn differential<T, F>(label: &str, f: F)
    where
        T: PartialEq + std::fmt::Debug,
        F: Fn() -> T,
    {
        let prev = active();
        set_backend(Backend::Scalar).unwrap();
        let reference = f();
        for &b in available() {
            set_backend(b).unwrap();
            let got = f();
            assert_eq!(got, reference, "{label}: {b} != scalar");
        }
        set_backend(prev).unwrap();
    }

    #[test]
    fn parse_and_names_round_trip() {
        for b in [Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            assert_eq!(Backend::parse(b.name()), Some(Some(b)));
        }
        assert_eq!(Backend::parse("auto"), Some(None));
        assert_eq!(Backend::parse("AVX2"), Some(Some(Backend::Avx2)));
        assert_eq!(Backend::parse("neon"), None);
    }

    #[test]
    fn scalar_always_available_and_settable() {
        assert!(is_available(Backend::Scalar));
        let prev = active();
        set_backend(Backend::Scalar).unwrap();
        assert_eq!(active(), Backend::Scalar);
        set_backend(prev).unwrap();
    }

    #[test]
    fn reductions_bit_identical_across_backends() {
        let mut rng = Xoshiro256::new(0xD1FF);
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 100, 1031] {
            let xs: Vec<f32> = (0..n).map(|_| (rng.next_f32() - 0.5) * 8.0).collect();
            let ys: Vec<f32> = (0..n).map(|_| (rng.next_f32() - 0.5) * 8.0).collect();
            differential(&format!("sum_sq n={n}"), || sum_sq_f32(&xs).to_bits());
            differential(&format!("dot n={n}"), || dot_f32(&xs, &ys).to_bits());
        }
    }

    #[test]
    fn complex_kernels_bit_identical_across_backends() {
        let mut rng = Xoshiro256::new(0xC0);
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 257] {
            let s = iq(&mut rng, n + 16);
            let p = iq(&mut rng, n);
            differential(&format!("power n={n}"), || {
                let mut out = Vec::new();
                power_into(&s[..n], &mut out);
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            });
            differential(&format!("conj_dot n={n}"), || {
                let z = conj_dot(&s[..n], &p);
                (z.re.to_bits(), z.im.to_bits())
            });
            differential(&format!("conj_mul n={n}"), || {
                let m = n.saturating_sub(1);
                let mut out = vec![Complex32::ZERO; m];
                conj_mul_adjacent(&s[..n], &mut out);
                out.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            });
        }
    }

    #[test]
    fn fir_dot_bit_identical_across_backends() {
        let mut rng = Xoshiro256::new(0xF1);
        for taps in [1usize, 2, 3, 4, 5, 8, 9, 41, 64] {
            let w: Vec<f32> = (0..2 * taps).map(|_| rng.next_f32() - 0.5).collect();
            let t: Vec<f32> = (0..2 * taps).map(|_| rng.next_f32() - 0.5).collect();
            differential(&format!("fir_dot taps={taps}"), || {
                let z = fir_dot(&w, &t);
                (z.re.to_bits(), z.im.to_bits())
            });
        }
    }

    #[test]
    fn fft_stage_bit_identical_across_backends() {
        let mut rng = Xoshiro256::new(0xFF7);
        for n in [2usize, 4, 8, 16, 64, 256] {
            let buf0 = iq(&mut rng, n);
            let tw: Vec<Complex32> = (0..n / 2)
                .map(|k| Complex32::cis(-(crate::TAU32) * k as f32 / n as f32))
                .collect();
            for inverse in [false, true] {
                differential(&format!("fft_stage n={n} inv={inverse}"), || {
                    let mut buf = buf0.clone();
                    fft_stage(&mut buf, n / 2, &tw, inverse);
                    buf.iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect::<Vec<_>>()
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "polyphase_rows row out of bounds")]
    fn polyphase_rows_rejects_a_wrapping_offset() {
        let mut out = [0.0f32; 8];
        polyphase_rows(&[0.0; 16], &[usize::MAX - 2], &[1.0], None, &mut out);
    }

    #[test]
    fn mean_power_matches_naive_semantics() {
        let mut rng = Xoshiro256::new(7);
        let s = iq(&mut rng, 333);
        let naive: f64 = s
            .iter()
            .flat_map(|z| [z.re, z.im])
            .map(|x| (x as f64) * (x as f64))
            .sum();
        let got = mean_power(&s);
        assert!(((naive / 333.0) as f32 - got).abs() < 1e-5);
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn exact_sums_certificate_boundary_is_2_pow_52_units() {
        let mut sums = [0.0; 3];
        // The smallest value 1.0 has ulp 2^-23, so the limit is 2^29; the
        // same holds after scaling every value by 2^-40.
        for scale in [1.0f32, 2f32.powi(-40)] {
            let limit = 2f64.powi(29) * scale as f64;
            let below = [1.0, 2f32.powi(29) - 32.0].map(|x| x * scale);
            let got = exact_window_sums(&below, 1, &mut sums[..2]).expect("below the limit");
            assert!(got.total < limit);
            assert_eq!(got.unit, 2f64.powi(-23) * scale as f64);
            let at = [1.0, 2f32.powi(29) - 32.0, 31.0].map(|x| x * scale);
            assert_eq!(exact_window_sums(&at, 1, &mut sums), None, "total == limit");
            let above = [1.0, 2f32.powi(29)].map(|x| x * scale);
            assert_eq!(exact_window_sums(&above, 1, &mut sums[..2]), None);
        }
    }

    #[test]
    fn exact_sums_reject_what_they_cannot_certify() {
        let mut sums = [0.0; 10];
        let tiny = f32::MIN_POSITIVE / 4.0;
        for bad in [-0.0, tiny, -1.0, f32::INFINITY, f32::NAN, -f32::NAN] {
            let xs = [1.0, 2.0, bad, 3.0];
            assert_eq!(exact_window_sums(&xs, 2, &mut sums[..2]), None, "{bad:e}");
        }
        assert_eq!(exact_window_sums(&[], 2, &mut []), None);
        assert_eq!(exact_window_sums(&[0.0; 4], 2, &mut sums[..2]), None);
        // Zeros beside positive values are whole multiples of any unit.
        let got = exact_window_sums(&[0.0, 2.0, 0.0, 3.0], 2, &mut sums[..2]);
        assert_eq!(got.map(|e| (e.total, e.unit)), Some((5.0, 2f64.powi(-22))));
        assert_eq!(&sums[..2], &[2.0, 3.0]);
        // 2^-40 of unit power widens the range past 2^52 units.
        let mut xs = vec![1.0f32; 200];
        xs[77] = 2f32.powi(-40);
        assert_eq!(exact_window_sums(&xs, 20, &mut sums), None);
    }

    #[test]
    fn certified_sums_equal_the_sequential_chain_on_every_backend() {
        let mut rng = Xoshiro256::new(0xE8AC7);
        let mut certified = 0;
        for case in 0..200 {
            let n = 1 + (rng.next_f32() * 300.0) as usize;
            let w = 1 + (rng.next_f32() * 40.0) as usize;
            // Noise-like powers over a few decades around a random level.
            let level = 2f32.powi((rng.next_f32() * 60.0) as i32 - 30);
            // Some exact zeros too, as i16-quantized traces have.
            let xs: Vec<f32> = (0..n)
                .map(|_| {
                    let x = level * (1e-3 + rng.next_f32()) * (1e-2 + rng.next_f32());
                    if rng.next_f32() < 0.05 {
                        0.0
                    } else {
                        x
                    }
                })
                .collect();
            let mut sums = vec![0.0; n / w];
            let Some(got) = exact_window_sums(&xs, w, &mut sums) else {
                continue;
            };
            certified += 1;
            let seq = |v: &[f32]| v.iter().fold(0.0f64, |a, &x| a + x as f64);
            assert_eq!(got.total.to_bits(), seq(&xs).to_bits(), "case {case}");
            assert_eq!(sums.len(), n / w);
            for (k, s) in sums.iter().enumerate() {
                assert_eq!(s.to_bits(), seq(&xs[k * w..(k + 1) * w]).to_bits());
            }
            differential(&format!("exact_window_sums case {case}"), || {
                let mut sums = vec![0.0; n / w];
                let r = exact_window_sums(&xs, w, &mut sums).map(|e| e.total.to_bits());
                (r, sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>())
            });
        }
        assert!(certified > 150, "only {certified} of 200 slices certified");
    }

    #[test]
    fn a_carry_joins_the_certificate_by_its_own_granule() {
        let mut sums = [0.0];
        let e = exact_window_sums(&[1.0, 2.0, 3.0], 3, &mut sums).unwrap();
        assert!(e.admits(0.0));
        assert!(e.admits(-5.0));
        assert!(e.admits(2f64.powi(20)));
        // A carry with a low bit has a fine granule: fine while the sum
        // stays within 2^52 of it, refused once it does not.
        assert!(e.admits(1.0 + 2f64.powi(-40)));
        assert!(!e.admits(1.0 + 2f64.powi(-51)));
        assert!(!e.admits(f64::NAN));
        assert!(!e.admits(f64::INFINITY));
        assert_eq!(granule(12.0), 4.0);
        assert_eq!(granule(-0.375), 0.125);
        assert_eq!(granule(2f64.powi(-1000)), 2f64.powi(-1000));
        let low_bit = f64::MIN_POSITIVE * (1.0 + f64::EPSILON);
        assert_eq!(granule(low_bit), f64::from_bits(1));
        assert_eq!(granule(f64::MIN_POSITIVE / 2.0), 0.0, "subnormal");
    }
}
