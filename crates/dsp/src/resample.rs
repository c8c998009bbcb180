//! Fractional-ratio resampling.
//!
//! The paper's front-end (USRP 1) delivers 8 Msps while 802.11b transmits at
//! 11 Mchips/s; that 11:8 mismatch is why the paper's Wi-Fi phase detector
//! resorts to a precomputed Barker phase-change pattern (§4.5). We reproduce
//! the mismatch faithfully: the 802.11b modulator renders at the native chip
//! rate and the ether simulator resamples to the monitor rate with this
//! module's [`resample_windowed_sinc`], a one-shot polyphase windowed-sinc
//! resampler used when rendering transmitter waveforms, where quality
//! matters more than speed.

use crate::complex::Complex32;
use crate::window::{generate, Window};
use std::cell::RefCell;
use std::f64::consts::PI;

/// One-shot high-quality resampling with a polyphase windowed-sinc kernel.
///
/// * `input` — source samples at `fs_in`.
/// * `fs_in`, `fs_out` — sample rates.
/// * `half_taps` — one-sided kernel length in input samples (e.g. 8).
///
/// When downsampling, the kernel cutoff is scaled to the output Nyquist to
/// act as an anti-aliasing filter.
pub fn resample_windowed_sinc(
    input: &[Complex32],
    fs_in: f64,
    fs_out: f64,
    half_taps: usize,
) -> Vec<Complex32> {
    assert!(fs_in > 0.0 && fs_out > 0.0 && half_taps > 0);
    if input.is_empty() {
        return Vec::new();
    }
    let ratio = fs_in / fs_out;
    let out_len = ((input.len() as f64) / ratio).floor() as usize;

    // Rational ratios with a small denominator (e.g. the paper's 11:8) let
    // us precompute a polyphase tap table: output k reads input around
    // position k·p/q, whose fractional part cycles through q values.
    if let Some((p, q)) = small_rational(ratio, 128) {
        return resample_polyphase(input, out_len, p, q, half_taps);
    }

    // Fallback: direct evaluation for irrational-ish ratios.
    let cutoff = 0.5 * (fs_out / fs_in).min(1.0);
    let span = 2 * half_taps + 1;
    let win = generate(Window::Blackman, span);
    let mut out = Vec::with_capacity(out_len);
    for k in 0..out_len {
        let center = k as f64 * ratio;
        let base = center.floor() as isize;
        let mut acc = Complex32::ZERO;
        let mut wsum = 0.0f64;
        for t in -(half_taps as isize)..=(half_taps as isize) {
            let idx = base + t;
            if idx < 0 || idx as usize >= input.len() {
                continue;
            }
            let x = center - idx as f64;
            let sinc = if x.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * x).sin() / (PI * x)
            };
            let w = sinc * win[(t + half_taps as isize) as usize];
            acc += input[idx as usize] * (w as f32);
            wsum += w;
        }
        // Normalize by the kernel sum for unity passband gain, including at
        // buffer edges where part of the kernel falls outside the input.
        if wsum.abs() > 1e-9 {
            acc = acc.scale((1.0 / wsum) as f32);
        }
        out.push(acc);
    }
    out
}

/// Finds a small rational `p/q ≈ ratio` with `q <= max_den`, requiring an
/// essentially exact match (sample-rate ratios in this workspace are exact
/// rationals like 11/8 or 1/1).
fn small_rational(ratio: f64, max_den: usize) -> Option<(usize, usize)> {
    for q in 1..=max_den {
        let p = ratio * q as f64;
        if (p - p.round()).abs() < 1e-9 && p.round() >= 1.0 {
            return Some((p.round() as usize, q));
        }
    }
    None
}

/// Values of m per block of the vectorized path: each block de-interleaves
/// the input it needs into a small per-thread buffer, never the whole input.
const BLOCK: usize = 64;

/// Largest phase count q, and input stride p, of the vectorized path.
const MAX_PHASES: usize = 16;

/// Largest kernel span `2·half_taps + 1` of the vectorized path.
const MAX_SPAN: usize = 33;

/// Complex samples one block's de-interleaved streams may hold.
const STREAM_CAP: usize = MAX_PHASES * (BLOCK + 4);

/// Polyphase resampling: precomputed taps per fractional phase.
///
/// Outputs whose kernel lies wholly inside the input run phase-major (see
/// [`resample_blocks`]); the rest, and every output of a ratio or span past
/// that path's bounds, take the per-output loop ([`output_at`]). Both sum
/// each output's taps in the same order, so the result does not depend on
/// which path computed an output.
///
/// The tap table is rebuilt on every call on purpose. Keeping it for the
/// process removes the call's small allocations, and without their churn
/// glibc splits the holes that the demodulator's large chip buffers reuse:
/// `rfdump -r`'s peak RSS on the `mix_wifi_bt` benchmark trace rose by 7–9 %
/// (and agreed again with `GLIBC_TUNABLES=glibc.malloc.tcache_count=0`).
fn resample_polyphase(
    input: &[Complex32],
    out_len: usize,
    p: usize,
    q: usize,
    half_taps: usize,
) -> Vec<Complex32> {
    let span = 2 * half_taps + 1;
    let win = generate(Window::Blackman, span);
    let cutoff = 0.5 * (q as f64 / p as f64).min(1.0);
    // Phase r = (k*p) mod q; fractional offset = r/q. Taps for offset f at
    // window position t (t in -H..=H relative to floor(center)):
    // sinc(2*cutoff*(f - t)) style kernel evaluated at x = center - idx.
    let mut tables: Vec<Vec<f32>> = Vec::with_capacity(q);
    let mut sums: Vec<f32> = Vec::with_capacity(q);
    for r in 0..q {
        let frac = r as f64 / q as f64;
        let mut taps = Vec::with_capacity(span);
        let mut sum = 0.0f64;
        for t in -(half_taps as isize)..=(half_taps as isize) {
            let x = frac - t as f64;
            let sinc = if x.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * x).sin() / (PI * x)
            };
            let w = sinc * win[(t + half_taps as isize) as usize];
            taps.push(w as f32);
            sum += w;
        }
        tables.push(taps);
        sums.push(sum as f32);
    }

    let blocks = block_range(input.len(), out_len, p, q, half_taps);
    let mut out = Vec::with_capacity(out_len);
    let per_output = |k: usize| {
        let r = k * p % q;
        output_at(input, k, p, q, &tables[r], sums[r])
    };
    out.extend((0..(q * blocks.start).min(out_len)).map(per_output));
    if !blocks.is_empty() {
        resample_blocks(input, p, q, &tables, &sums, blocks, &mut out);
    }
    out.extend((out.len()..out_len).map(per_output));
    out
}

/// Output `k` of the per-output loop, whose phase has `taps` summing to
/// `sum`: a full kernel normalized by `sum` in the interior, a partial
/// kernel normalized by its own running sum where it crosses either end.
fn output_at(
    input: &[Complex32],
    k: usize,
    p: usize,
    q: usize,
    taps: &[f32],
    sum: f32,
) -> Complex32 {
    let half_taps = taps.len() / 2;
    let base = (k * p / q) as isize;
    let n = input.len() as isize;
    let lo = base - half_taps as isize;
    let hi = base + half_taps as isize;
    if lo >= 0 && hi < n {
        // Interior fast path: full kernel, precomputed normalization.
        let mut acc = Complex32::ZERO;
        let base_idx = lo as usize;
        // taps[i] was built for window position t = i - half_taps, which
        // reads input index base + t = lo + i.
        for (i, &w) in taps.iter().enumerate() {
            acc += input[base_idx + i] * w;
        }
        if sum.abs() > 1e-9 {
            acc = acc.scale(1.0 / sum);
        }
        acc
    } else {
        // Edge: partial kernel with on-the-fly normalization.
        let mut acc = Complex32::ZERO;
        let mut wsum = 0.0f32;
        for (i, &w) in taps.iter().enumerate() {
            let idx = lo + i as isize;
            if idx < 0 || idx >= n {
                continue;
            }
            acc += input[idx as usize] * w;
            wsum += w;
        }
        if wsum.abs() > 1e-9 {
            acc = acc.scale(1.0 / wsum);
        }
        acc
    }
}

/// Input positions, relative to `p·m`, that output `q·m + k0` reads first
/// and last: `⌊p·k0/q⌋ − H` for k0 = 0 and `⌊p·(q−1)/q⌋ + H` for k0 = q − 1.
/// As stream positions (input `p·m + d` is position `m + ⌊d/p⌋` of stream
/// `d mod p`) they are `a_min = ⌊−H/p⌋` and `a_max`.
fn stream_reach(p: usize, q: usize, half_taps: usize) -> (isize, isize) {
    let (pi, h) = (p as isize, half_taps as isize);
    let a_max = (((q - 1) * p / q) as isize + h).div_euclid(pi);
    ((-h).div_euclid(pi), a_max)
}

/// The values of m whose q outputs all exist and are all interior; empty
/// past the vectorized path's bounds.
fn block_range(
    n: usize,
    out_len: usize,
    p: usize,
    q: usize,
    half_taps: usize,
) -> std::ops::Range<usize> {
    let reach = (q - 1) * p / q + half_taps;
    let (a_min, a_max) = stream_reach(p, q, half_taps);
    let stream_len = BLOCK + (a_max - a_min) as usize;
    if q > MAX_PHASES || 2 * half_taps + 1 > MAX_SPAN || p * stream_len > STREAM_CAP || n <= reach {
        return 0..0;
    }
    // m·p − H ≥ 0 for k0 = 0, m·p + reach < n for k0 = q − 1.
    let lo = half_taps.div_ceil(p);
    let hi = ((n - 1 - reach) / p + 1).min(out_len / q);
    lo..hi.max(lo)
}

/// Appends outputs `q·m + k0` for every m in `blocks` (see [`block_range`])
/// and every phase k0, a block of m at a time.
///
/// For a fixed k0, consecutive m read the input at stride p, so a block is
/// first de-interleaved into p complex streams; each tap is then one
/// contiguous row, and [`crate::kernels::polyphase_rows`] computes one
/// output per vector lane. Every output still starts at zero and adds its
/// products in tap order, then takes the `1.0 / sum` scale, exactly as
/// [`output_at`] does in the interior.
fn resample_blocks(
    input: &[Complex32],
    p: usize,
    q: usize,
    tables: &[Vec<f32>],
    sums: &[f32],
    blocks: std::ops::Range<usize>,
    out: &mut Vec<Complex32>,
) {
    thread_local! {
        /// One block's de-interleaved streams and output rows; fixed arrays,
        /// so they live with the thread rather than on the heap.
        static SCRATCH: RefCell<([Complex32; STREAM_CAP], [Complex32; MAX_PHASES * BLOCK])> =
            const { RefCell::new(([Complex32::ZERO; STREAM_CAP], [Complex32::ZERO; MAX_PHASES * BLOCK])) };
    }
    let span = tables[0].len();
    let half_taps = span / 2;
    let (a_min, a_max) = stream_reach(p, q, half_taps);
    let len = BLOCK + (a_max - a_min) as usize;
    // `f32` offset of tap i of phase k0 into the streams: output `q·m + k0`
    // reads input `p·m + d`, d = ⌊p·k0/q⌋ − H + i, at stream position
    // `m − m0 + ⌊d/p⌋ − a_min` of stream `d mod p`.
    let mut offs = [[0usize; MAX_SPAN]; MAX_PHASES];
    for (k0, row) in offs.iter_mut().enumerate().take(q) {
        for (i, off) in row[..span].iter_mut().enumerate() {
            let d = (k0 * p / q + i) as isize - half_taps as isize;
            let (j, a) = (d.rem_euclid(p as isize), d.div_euclid(p as isize));
            *off = 2 * (j as usize * len + (a - a_min) as usize);
        }
    }
    SCRATCH.with(|scratch| {
        let (streams, rows) = &mut *scratch.borrow_mut();
        let (streams, rows) = (&mut streams[..p * len], &mut rows[..q * BLOCK]);
        let mut m0 = blocks.start;
        while m0 < blocks.end {
            let b = BLOCK.min(blocks.end - m0);
            // Stream j, position t holds input p·(m0 + a_min + t) + j.
            let first = p * (m0 as isize + a_min) as usize;
            for (j, stream) in streams.chunks_exact_mut(len).enumerate() {
                let column = input[first + j..].iter().step_by(p);
                for (dst, z) in stream[..b + len - BLOCK].iter_mut().zip(column) {
                    *dst = *z;
                }
            }
            let src = crate::kernels::as_flat(streams);
            for (k0, row) in rows.chunks_exact_mut(BLOCK).enumerate() {
                let r = k0 * p % q;
                let scale = (sums[r].abs() > 1e-9).then(|| 1.0 / sums[r]);
                crate::kernels::polyphase_rows(
                    src,
                    &offs[k0][..span],
                    &tables[r],
                    scale,
                    crate::kernels::as_flat_mut(&mut row[..b]),
                );
            }
            // Row k0 holds outputs q·m + k0 for m = m0 .. m0 + b.
            let at = out.len();
            out.resize(at + q * b, Complex32::ZERO);
            for (k0, row) in rows.chunks_exact(BLOCK).enumerate() {
                for (dst, z) in out[at + k0..].iter_mut().step_by(q).zip(&row[..b]) {
                    *dst = *z;
                }
            }
            m0 += b;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    fn tone(f: f64, fs: f64, n: usize) -> Vec<Complex32> {
        let mut nco = Nco::new(f, fs);
        (0..n).map(|_| nco.next()).collect()
    }

    #[test]
    fn sinc_resampler_preserves_amplitude_and_frequency() {
        let fs_in = 11e6;
        let fs_out = 8e6;
        let f = 1e6;
        let sig = tone(f, fs_in, 4400);
        let out = resample_windowed_sinc(&sig, fs_in, fs_out, 8);
        assert_eq!(out.len(), 3200);
        let mid = &out[200..3000];
        let p = crate::complex::mean_power(mid);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
        let mut sum = 0.0f64;
        for w in mid.windows(2) {
            sum += (w[1] * w[0].conj()).arg() as f64;
        }
        let measured = sum / (mid.len() - 1) as f64 * fs_out / crate::TAU64;
        assert!((measured - f).abs() < 1e3, "measured {measured}");
    }

    #[test]
    fn sinc_downsampling_rejects_out_of_band_aliases() {
        // 5 MHz tone at 11 Msps is beyond 8 Msps Nyquist (4 MHz) and must be
        // attenuated, not aliased at full strength.
        let sig = tone(5.2e6, 11e6, 4400);
        let out = resample_windowed_sinc(&sig, 11e6, 8e6, 12);
        let p = crate::complex::mean_power(&out[200..3000]);
        assert!(p < 0.1, "alias power {p}");
    }

    /// The per-output polyphase loop as it stood before the phase-major
    /// rewrite, verbatim: the reference every output must match bitwise.
    fn resample_polyphase_reference(
        input: &[Complex32],
        out_len: usize,
        p: usize,
        q: usize,
        half_taps: usize,
    ) -> Vec<Complex32> {
        let span = 2 * half_taps + 1;
        let win = generate(Window::Blackman, span);
        let cutoff = 0.5 * (q as f64 / p as f64).min(1.0);
        let mut tables: Vec<Vec<f32>> = Vec::with_capacity(q);
        let mut sums: Vec<f32> = Vec::with_capacity(q);
        for r in 0..q {
            let frac = r as f64 / q as f64;
            let mut taps = Vec::with_capacity(span);
            let mut sum = 0.0f64;
            for t in -(half_taps as isize)..=(half_taps as isize) {
                let x = frac - t as f64;
                let sinc = if x.abs() < 1e-12 {
                    2.0 * cutoff
                } else {
                    (2.0 * PI * cutoff * x).sin() / (PI * x)
                };
                let w = sinc * win[(t + half_taps as isize) as usize];
                taps.push(w as f32);
                sum += w;
            }
            tables.push(taps);
            sums.push(sum as f32);
        }

        let mut out = Vec::with_capacity(out_len);
        let n = input.len() as isize;
        for k in 0..out_len {
            let num = k * p;
            let base = (num / q) as isize;
            let r = num % q;
            let taps = &tables[r];
            let lo = base - half_taps as isize;
            let hi = base + half_taps as isize;
            if lo >= 0 && hi < n {
                let mut acc = Complex32::ZERO;
                let base_idx = lo as usize;
                for (i, &w) in taps.iter().enumerate() {
                    acc += input[base_idx + i] * w;
                }
                let s = sums[r];
                if s.abs() > 1e-9 {
                    acc = acc.scale(1.0 / s);
                }
                out.push(acc);
            } else {
                let mut acc = Complex32::ZERO;
                let mut wsum = 0.0f32;
                for (i, &w) in taps.iter().enumerate() {
                    let idx = lo + i as isize;
                    if idx < 0 || idx >= n {
                        continue;
                    }
                    acc += input[idx as usize] * w;
                    wsum += w;
                }
                if wsum.abs() > 1e-9 {
                    acc = acc.scale(1.0 / wsum);
                }
                out.push(acc);
            }
        }
        out
    }

    /// Mixed-class input: mostly O(1), some exact zeros, denormals and
    /// large magnitudes.
    fn mixed_input(rng: &mut crate::rng::Xoshiro256, n: usize) -> Vec<Complex32> {
        let mut x = || {
            let v = rng.next_f32() * 2.0 - 1.0;
            match rng.next_range(8) {
                0 => 0.0,
                1 => v * 1e-41,
                2 => v * 1e30,
                _ => v,
            }
        };
        (0..n).map(|_| Complex32::new(x(), x())).collect()
    }

    fn bits(v: &[Complex32]) -> Vec<(u32, u32)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn polyphase_is_bitwise_the_per_output_loop_under_every_backend() {
        use crate::kernels::{active, available, set_backend};
        let prev = active();
        let mut rng = crate::rng::Xoshiro256::new(0x11_08);
        let mut lengths: Vec<usize> = (0..=64).chain([2_722, 8_200, 35_618]).collect();
        lengths.extend((0..6).map(|_| 65 + rng.next_range(20_000) as usize));
        for (fs_in, fs_out) in [(8e6, 11e6), (11e6, 8e6), (4e6, 11e6), (8e6, 8e6)] {
            let ratio = fs_in / fs_out;
            let (p, q) = small_rational(ratio, 128).unwrap();
            for half_taps in [4, 8, 12] {
                for &n in &lengths {
                    let input = mixed_input(&mut rng, n);
                    let out_len = ((n as f64) / ratio).floor() as usize;
                    let want = bits(&resample_polyphase_reference(
                        &input, out_len, p, q, half_taps,
                    ));
                    for &b in available() {
                        set_backend(b).unwrap();
                        let got = resample_windowed_sinc(&input, fs_in, fs_out, half_taps);
                        assert!(
                            bits(&got) == want,
                            "{fs_in}->{fs_out} H={half_taps} n={n} backend {b}"
                        );
                    }
                }
            }
        }
        set_backend(prev).unwrap();
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(resample_windowed_sinc(&[], 11e6, 8e6, 8).is_empty());
    }
}
