//! Differential tests for the vectorized DSP kernel layer.
//!
//! The scalar kernels in `rfd_dsp::kernels` are the reference semantics: the
//! SSE2 and AVX2 backends must reproduce them **bit-for-bit**, not merely to
//! within a tolerance. These tests force each backend this CPU supports via
//! [`rfd_dsp::kernels::set_backend`] and compare every kernel's output to the
//! scalar result with `to_bits()` equality, across:
//!
//! - sizes straddling every lane-width boundary (1, lane-1, lane, lane+1,
//!   odd primes, and large non-round sizes) so remainder loops are hit;
//! - denormal inputs (~1e-41) that exercise flush-to-zero differences, which
//!   Rust/LLVM must not introduce on either path;
//! - NaN/inf-free random IQ with mixed magnitudes and signs.
//!
//! Backend selection is process-global, so every test serializes on a lock
//! while it flips backends; the comparisons are only meaningful when the
//! intended backend is actually the one that ran.

use rfd_dsp::kernels::{self, Backend};
use rfd_dsp::rng::Xoshiro256;
use rfd_dsp::Complex32;
use rfd_integration::seeded_cases;
use std::sync::Mutex;

/// Serializes backend flips across the (multi-threaded) test harness.
static LOCK: Mutex<()> = Mutex::new(());

/// Sizes that straddle the 4-lane (SSE2) and 8-lane (AVX2) boundaries plus
/// the striping width (8 for real reductions, 4 complex for conj_dot).
const SIZES: &[usize] = &[
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1031,
];

/// A finite random f32 with mixed magnitudes: mostly O(1), some exact zeros,
/// some denormals, some large-but-safe values. Never NaN or inf.
fn rand_f32(rng: &mut Xoshiro256) -> f32 {
    let v = rng.next_f32() * 2.0 - 1.0;
    match rng.next_range(8) {
        0 => 0.0,
        1 => v * 1e-41, // denormal territory
        2 => v * 1e3,
        _ => v,
    }
}

fn rand_vec_f32(rng: &mut Xoshiro256, n: usize) -> Vec<f32> {
    (0..n).map(|_| rand_f32(rng)).collect()
}

fn rand_vec_c32(rng: &mut Xoshiro256, n: usize) -> Vec<Complex32> {
    (0..n)
        .map(|_| Complex32::new(rand_f32(rng), rand_f32(rng)))
        .collect()
}

fn c_bits(z: Complex32) -> (u32, u32) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Runs `compute` once under the scalar backend and once under every backend
/// this CPU supports, asserting each result is bit-identical to scalar.
/// `T` carries results already reduced to raw bit patterns.
fn differential<T: PartialEq + std::fmt::Debug>(label: &str, mut compute: impl FnMut() -> T) {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    kernels::set_backend(Backend::Scalar).expect("scalar is always available");
    let reference = compute();
    for &b in kernels::available() {
        kernels::set_backend(b).unwrap();
        let got = compute();
        assert_eq!(
            got, reference,
            "{label}: backend {b} diverges from scalar reference"
        );
    }
}

#[test]
fn scalar_is_always_available_and_settable() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(kernels::is_available(Backend::Scalar));
    assert!(kernels::available().contains(&Backend::Scalar));
    kernels::set_backend(Backend::Scalar).unwrap();
    assert_eq!(kernels::active(), Backend::Scalar);
    for &b in kernels::available() {
        kernels::set_backend(b).unwrap();
        assert_eq!(kernels::active(), b);
    }
}

#[test]
fn sum_sq_and_mean_power_match_scalar_bitwise() {
    seeded_cases(0xD1F0_0001, 40, |rng| {
        for &n in SIZES {
            let xs = rand_vec_f32(rng, n);
            let zs = rand_vec_c32(rng, n);
            differential(&format!("sum_sq_f32 n={n}"), || {
                kernels::sum_sq_f32(&xs).to_bits()
            });
            differential(&format!("mean_power n={n}"), || {
                kernels::mean_power(&zs).to_bits()
            });
        }
    });
}

#[test]
fn dot_f32_matches_scalar_bitwise() {
    seeded_cases(0xD1F0_0002, 40, |rng| {
        for &n in SIZES {
            let a = rand_vec_f32(rng, n);
            let b = rand_vec_f32(rng, n);
            differential(&format!("dot_f32 n={n}"), || {
                kernels::dot_f32(&a, &b).to_bits()
            });
        }
    });
}

#[test]
fn power_into_matches_scalar_bitwise() {
    seeded_cases(0xD1F0_0003, 40, |rng| {
        for &n in SIZES {
            let zs = rand_vec_c32(rng, n);
            differential(&format!("power_into n={n}"), || {
                let mut out = Vec::new();
                kernels::power_into(&zs, &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
        }
    });
}

#[test]
fn widen_i16_iq_matches_scalar_bitwise() {
    // Lengths around both vector steps, around a page of samples, and one
    // replay chunk; slices start 0–3 bytes into their buffer, so no load
    // is aligned; a subnormal scale probes flush-to-zero.
    let lens = (0..=17usize).chain([4095, 4096, 4097, 12_800]);
    seeded_cases(0xD1F0_000C, 4, |rng| {
        for n in lens.clone() {
            let mut buf = vec![0u8; 4 * n + 3];
            rng.fill_bytes(&mut buf);
            for off in 0..=3usize {
                let bytes = &buf[off..off + 4 * n];
                for scale in [1.0f32, 0.37, 3.1e4, 1e-40] {
                    let label = format!("widen_i16_iq n={n} off={off} scale={scale:e}");
                    let widen = || {
                        let mut out = vec![Complex32::ONE; 5];
                        kernels::widen_i16_iq(bytes, scale, &mut out);
                        out.into_iter().map(c_bits).collect::<Vec<_>>()
                    };
                    differential(&label, widen);
                    let want: Vec<(u32, u32)> = bytes
                        .chunks_exact(4)
                        .map(|b| {
                            let i = i16::from_le_bytes([b[0], b[1]]);
                            let q = i16::from_le_bytes([b[2], b[3]]);
                            c_bits(rfd_dsp::complex::from_i16_iq(i, q).scale(scale))
                        })
                        .collect();
                    assert_eq!(widen(), want, "{label}: not from_i16_iq(i, q).scale(s)");
                }
            }
        }
    });
}

#[test]
fn crc32_matches_scalar_and_the_bit_serial_engine() {
    // Every length up to past the carry-less-multiply cut-over (128 bytes)
    // and its 64-byte fold stride, around a page, and the payloads of a
    // 4096- and a 16 384-sample RFDN chunk; slices start 0–15 bytes into
    // their buffer, so 16-byte loads see every misalignment.
    let oracle = rfd_dsp::coding::Crc::crc32_ieee();
    let lens = (0..=300usize).chain([4095, 4096, 4097, 16_396, 65_548]);
    seeded_cases(0xD1F0_00CC, 2, |rng| {
        for n in lens.clone() {
            let mut buf = vec![0u8; n + 15];
            rng.fill_bytes(&mut buf);
            for off in 0..=15usize {
                let bytes = &buf[off..off + n];
                let label = format!("crc32 n={n} off={off}");
                differential(&label, || rfd_dsp::coding::crc32(bytes));
                let want = oracle.compute(bytes) as u32;
                assert_eq!(rfd_dsp::coding::crc32(bytes), want, "{label}: not CRC-32");
            }
        }
    });
}

#[test]
fn fir_dot_matches_scalar_bitwise() {
    // Tap counts around the 4-complex (8-float) vector step, plus real
    // filter sizes used by the decimators.
    for taps in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 16, 41, 63, 64] {
        seeded_cases(0xD1F0_0004 ^ taps as u64, 10, |rng| {
            let window = rand_vec_f32(rng, 2 * taps);
            let taps2 = rand_vec_f32(rng, 2 * taps);
            differential(&format!("fir_dot taps={taps}"), || {
                c_bits(kernels::fir_dot(&window, &taps2))
            });
        });
    }
}

#[test]
fn conj_dot_matches_scalar_bitwise() {
    seeded_cases(0xD1F0_0005, 40, |rng| {
        for &n in SIZES {
            let sig = rand_vec_c32(rng, n);
            let pat = rand_vec_c32(rng, n);
            differential(&format!("conj_dot n={n}"), || {
                c_bits(kernels::conj_dot(&sig, &pat))
            });
        }
    });
}

#[test]
fn conj_mul_adjacent_matches_scalar_bitwise() {
    seeded_cases(0xD1F0_0006, 40, |rng| {
        for &n in SIZES {
            let zs = rand_vec_c32(rng, n);
            differential(&format!("conj_mul_adjacent n={n}"), || {
                let mut out = vec![Complex32::ZERO; zs.len().saturating_sub(1)];
                kernels::conj_mul_adjacent(&zs, &mut out);
                out.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
            });
        }
    });
}

#[test]
fn fft_stage_and_full_fft_match_scalar_bitwise() {
    seeded_cases(0xD1F0_0007, 12, |rng| {
        // Raw butterfly stages at every half width the planner produces.
        for half in [1usize, 2, 3, 4, 5, 8, 16] {
            let blocks = 1 + rng.next_range(4) as usize;
            let mut buf = rand_vec_c32(rng, blocks * 2 * half);
            let tw = rand_vec_c32(rng, half);
            for inverse in [false, true] {
                let orig = buf.clone();
                differential(&format!("fft_stage half={half} inv={inverse}"), || {
                    buf.copy_from_slice(&orig);
                    kernels::fft_stage(&mut buf, half, &tw, inverse);
                    buf.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
                });
            }
        }
        // Whole planned transforms, forward and inverse.
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let fft = rfd_dsp::fft::Fft::new(n);
            let sig = rand_vec_c32(rng, n);
            differential(&format!("fft forward n={n}"), || {
                let mut buf = sig.clone();
                fft.forward(&mut buf);
                buf.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
            });
            differential(&format!("fft inverse n={n}"), || {
                let mut buf = sig.clone();
                fft.inverse(&mut buf);
                buf.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
            });
        }
    });
}

#[test]
fn fir_filter_and_decimator_match_scalar_bitwise() {
    use rfd_dsp::fir::Fir;
    seeded_cases(0xD1F0_0008, 10, |rng| {
        for taps_n in [1usize, 3, 7, 8, 9, 33] {
            let taps = rand_vec_f32(rng, taps_n);
            let input_len = 200 + rng.next_range(100) as usize;
            let input = rand_vec_c32(rng, input_len);
            differential(&format!("Fir::process taps={taps_n}"), || {
                let mut fir = Fir::new(taps.clone());
                let mut out = Vec::new();
                fir.process(&input, &mut out);
                out.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
            });
            differential(&format!("Fir::process_decimate taps={taps_n}"), || {
                let mut fir = Fir::new(taps.clone());
                let mut out = Vec::new();
                let mut phase = 0;
                fir.process_decimate(&input, 3, &mut phase, &mut out);
                out.iter().map(|&z| c_bits(z)).collect::<Vec<_>>()
            });
        }
    });
}

#[test]
fn phase_pipeline_matches_scalar_bitwise() {
    use rfd_dsp::phase::{phase_deriv_stats, phase_diff_abs_into, phase_diff_into};
    seeded_cases(0xD1F0_0009, 10, |rng| {
        // Sizes around the 256-sample conjugate-product block boundary.
        for &n in &[0usize, 1, 2, 3, 255, 256, 257, 511, 513, 1000] {
            let zs = rand_vec_c32(rng, n);
            differential(&format!("phase_diff n={n}"), || {
                let mut out = Vec::new();
                phase_diff_into(&zs, &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
            differential(&format!("phase_diff_abs n={n}"), || {
                let mut out = Vec::new();
                phase_diff_abs_into(&zs, &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
            differential(&format!("phase_deriv_stats n={n}"), || {
                let s = phase_deriv_stats(&zs);
                (s.sum_d1.to_bits(), s.sum_abs_d2.to_bits(), s.count_d2)
            });
            differential(&format!("fm_discriminator n={n}"), || {
                let mut disc = rfd_dsp::phase::FmDiscriminator::new(1.0);
                let mut out = Vec::new();
                // Feed in two chunks to exercise the cross-chunk seam.
                let mid = n / 2;
                disc.process(&zs[..mid], &mut out);
                disc.process(&zs[mid..], &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
        }
    });
}

#[test]
fn xcorr_matches_scalar_bitwise() {
    use rfd_dsp::corr::{normalized_xcorr_real, xcorr_complex};
    seeded_cases(0xD1F0_000A, 10, |rng| {
        for (sig_n, pat_n) in [(40usize, 7usize), (64, 8), (65, 9), (200, 33)] {
            let sig_c = rand_vec_c32(rng, sig_n);
            let pat_c = rand_vec_c32(rng, pat_n);
            differential(&format!("xcorr_complex {sig_n}/{pat_n}"), || {
                xcorr_complex(&sig_c, &pat_c)
                    .iter()
                    .map(|&z| c_bits(z))
                    .collect::<Vec<_>>()
            });
            let sig_r = rand_vec_f32(rng, sig_n);
            let pat_r = rand_vec_f32(rng, pat_n);
            differential(&format!("normalized_xcorr_real {sig_n}/{pat_n}"), || {
                normalized_xcorr_real(&sig_r, &pat_r)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<u32>>()
            });
        }
    });
}

#[test]
fn polyphase_rows_match_scalar_bitwise() {
    // Output counts around both tile widths (16 SSE2 lanes, 32 AVX2 lanes)
    // and their single-vector steps; tap counts of half_taps 4, 8 and 12.
    seeded_cases(0xD1F0_000C, 10, |rng| {
        for taps_n in [1usize, 9, 17, 25] {
            for &n in SIZES {
                let src = rand_vec_f32(rng, 3 * n + 40);
                let offs: Vec<usize> = (0..taps_n)
                    .map(|_| rng.next_range(2 * n as u64 + 41) as usize)
                    .collect();
                let taps = rand_vec_f32(rng, taps_n);
                for scale in [None, Some(rand_f32(rng))] {
                    differential(&format!("polyphase_rows taps={taps_n} n={n}"), || {
                        let mut out = vec![0.0f32; n];
                        kernels::polyphase_rows(&src, &offs, &taps, scale, &mut out);
                        out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
                    });
                }
            }
        }
    });
}

#[test]
fn windowed_sinc_resampler_matches_scalar_bitwise() {
    use rfd_dsp::resample::resample_windowed_sinc;
    seeded_cases(0xD1F0_000D, 4, |rng| {
        for (fs_in, fs_out) in [(8e6, 11e6), (11e6, 8e6), (4e6, 11e6), (8e6, 8e6)] {
            for n in [0usize, 17, 64, 301, 2_722] {
                let input = rand_vec_c32(rng, n);
                differential(&format!("resample {fs_in}->{fs_out} n={n}"), || {
                    resample_windowed_sinc(&input, fs_in, fs_out, 8)
                        .iter()
                        .map(|&z| c_bits(z))
                        .collect::<Vec<_>>()
                });
            }
        }
    });
}

#[test]
fn pure_denormal_slices_are_bit_exact() {
    // A slice that is *entirely* denormal is the harshest flush-to-zero
    // probe: any backend that flushes loses every bit of the result.
    seeded_cases(0xD1F0_000B, 20, |rng| {
        for &n in &[1usize, 7, 8, 9, 31, 33, 257] {
            let xs: Vec<f32> = (0..n)
                .map(|_| (rng.next_f32() * 2.0 - 1.0) * 1e-41)
                .collect();
            let zs: Vec<Complex32> = (0..n)
                .map(|_| {
                    Complex32::new(
                        (rng.next_f32() * 2.0 - 1.0) * 1e-41,
                        (rng.next_f32() * 2.0 - 1.0) * 1e-41,
                    )
                })
                .collect();
            differential(&format!("denormal sum_sq n={n}"), || {
                kernels::sum_sq_f32(&xs).to_bits()
            });
            differential(&format!("denormal conj_dot n={n}"), || {
                c_bits(kernels::conj_dot(&zs, &zs))
            });
            differential(&format!("denormal power n={n}"), || {
                let mut out = Vec::new();
                kernels::power_into(&zs, &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
            });
        }
    });
}
