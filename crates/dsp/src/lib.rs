//! # rfd-dsp — DSP substrate for the RFDump workspace
//!
//! This crate provides every signal-processing primitive the rest of the
//! workspace builds on, implemented from scratch with no external numeric
//! dependencies:
//!
//! * [`Complex32`] — a small, `Copy`, cache-friendly complex sample type.
//! * [`fft`] — iterative radix-2 FFT/IFFT and power-spectrum helpers.
//! * [`fir`] — FIR filtering plus classic designs (windowed-sinc low-pass,
//!   Gaussian pulse shapers for GFSK).
//! * [`window`] — analysis window functions.
//! * [`resample`] — fractional-ratio resampling. The RFDump paper's USRP
//!   front-end samples at 8 Msps while 802.11b chips at 11 Mcps; the awkward
//!   11:8 ratio is central to the paper's Wi-Fi phase detector, so the
//!   resampler is a first-class citizen here.
//! * [`nco`] — numerically controlled oscillator / frequency translation.
//! * [`phase`] — first and second phase derivatives (by conjugate
//!   multiplication, so no unwrapping) and a quadrature FM discriminator.
//!   RFDump's phase detectors (§3.3 of the paper) are built directly on
//!   these.
//! * [`energy`] — dB conversions and the running power average used by the
//!   peak detector (§4.3).
//! * [`kernels`] — the vectorized kernel layer underneath all of the above:
//!   runtime-dispatched scalar/AVX2 implementations of the hot inner
//!   loops (power, reductions, FIR dots, conjugate-multiply
//!   chains, FFT butterfly stages), selectable via `RFD_KERNEL`.
//! * [`coding`] — generic bit/byte utilities, a table-driven CRC engine,
//!   self-synchronizing LFSR scramblers and additive whitening registers.
//! * [`rng`] — deterministic SplitMix64/xoshiro random numbers and Gaussian
//!   (AWGN) sample generation so every experiment in the workspace is
//!   reproducible from a seed.
//!
//! Everything is synchronous and allocation-conscious: hot paths take slices
//! and write into caller-provided buffers where that matters.

#![warn(missing_docs)]
// `unsafe` is denied crate-wide; the only exception is the SIMD intrinsic
// code in `kernels`, which carries its own `#[allow(unsafe_code)]` plus
// per-function safety contracts.
#![deny(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod coding;
pub mod complex;
pub mod energy;
pub mod fft;
pub mod fir;
#[allow(unsafe_code)]
pub mod kernels;
pub mod nco;
pub mod phase;
pub mod resample;
pub mod rng;
pub mod window;

pub use complex::Complex32;

/// Two pi as `f64`.
pub const TAU64: f64 = std::f64::consts::TAU;
