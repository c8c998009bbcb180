//! GFSK modulation for Bluetooth BR.
//!
//! Bits → NRZ ±1 → Gaussian pulse shaping (BT = 0.5) → phase integration
//! with modulation index h = 0.32 (±160 kHz deviation at 1 Msym/s) →
//! constant-envelope complex baseband. The continuous phase is exactly the
//! property RFDump's Bluetooth phase detector keys on ("if the second
//! derivative of the phase is equal to zero, the packet is classified as
//! Bluetooth", §4.5).

use super::packet::BtPacket;
use crate::Waveform;
use rfd_dsp::fir::{convolve_real, gaussian};
use rfd_dsp::Complex32;
use std::f64::consts::PI;

/// Transmit configuration for the GFSK modulator.
#[derive(Debug, Clone, Copy)]
pub struct BtTxConfig {
    /// Output sample rate (must be an integer multiple of 1 Msym/s).
    pub sample_rate: f64,
}

impl Default for BtTxConfig {
    fn default() -> Self {
        Self { sample_rate: 8e6 }
    }
}

/// Modulates a bit stream with GFSK at the configured samples/symbol.
pub fn modulate_bits(bits: &[bool], cfg: BtTxConfig) -> Waveform {
    let sps_f = cfg.sample_rate / super::SYMBOL_RATE;
    let sps = sps_f.round() as usize;
    assert!(
        (sps_f - sps as f64).abs() < 1e-9 && sps >= 2,
        "sample rate must be an integer multiple (>=2) of 1 Msym/s, got {}",
        cfg.sample_rate
    );

    let span = 3usize; // Gaussian filter span in symbols
    let taps = gaussian(super::GFSK_BT, sps, span);
    let delay = (taps.len() - 1) / 2;

    // NRZ at sample rate, padded with half a span of the edge bits on both
    // sides so the filter is fully flushed at the packet boundaries.
    let pad = span.div_ceil(2);
    let mut nrz = Vec::with_capacity((bits.len() + 2 * pad) * sps);
    let edge = |b: bool| if b { 1.0f32 } else { -1.0 };
    for _ in 0..pad * sps {
        nrz.push(edge(*bits.first().unwrap_or(&false)));
    }
    for &b in bits {
        for _ in 0..sps {
            nrz.push(edge(b));
        }
    }
    for _ in 0..(pad * sps + delay) {
        nrz.push(edge(*bits.last().unwrap_or(&false)));
    }

    let shaped = convolve_real(&taps, &nrz);

    // Integrate phase: per-sample increment = pi * h * x / sps.
    let k = (PI * super::GFSK_H / sps as f64) as f32;
    let mut phase = 0.0f32;
    let start = delay + pad * sps;
    let mut samples = Vec::with_capacity(bits.len() * sps);
    for (i, &x) in shaped.iter().enumerate() {
        phase += k * x;
        if phase > 1e4 {
            phase = phase.rem_euclid(std::f32::consts::TAU);
        }
        if i >= start && samples.len() < bits.len() * sps {
            samples.push(Complex32::cis(phase));
        }
    }

    Waveform {
        samples,
        sample_rate: cfg.sample_rate,
    }
}

/// Modulates a complete baseband packet (access code + header + payload).
pub fn modulate(packet: &BtPacket, cfg: BtTxConfig) -> Waveform {
    modulate_bits(&packet.to_air_bits(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::nco::Nco;
    use rfd_dsp::phase::{phase_diff, wrap_phase};

    /// Second phase derivative: differences of [`phase_diff`], wrapped;
    /// length `samples.len() - 2`.
    fn phase_diff2(samples: &[Complex32]) -> Vec<f32> {
        let d1 = phase_diff(samples);
        d1.windows(2).map(|w| wrap_phase(w[1] - w[0])).collect()
    }

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 0).collect()
    }

    #[test]
    fn output_length_is_bits_times_sps() {
        let bits = alternating(100);
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        assert_eq!(w.samples.len(), 800);
        assert!((w.duration() * 1e6 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn envelope_is_constant() {
        let bits = alternating(64);
        let w = modulate_bits(&bits, BtTxConfig::default());
        for z in &w.samples {
            assert!((z.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn long_runs_reach_nominal_deviation() {
        // A long run of ones must settle at +160 kHz.
        let mut bits = vec![true; 40];
        bits.extend(vec![false; 40]);
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        let d = phase_diff(&w.samples);
        // Mid-run of ones: samples ~100..250.
        let k = (PI * super::super::GFSK_H / 8.0) as f32;
        for &v in &d[100..250] {
            assert!((v - k).abs() < 0.01 * k.abs().max(1e-3), "dev {v} vs {k}");
        }
        // Mid-run of zeros: samples ~420..580.
        for &v in &d[420..580] {
            assert!((v + k).abs() < 0.01 * k.abs(), "dev {v} vs {}", -k);
        }
    }

    #[test]
    fn phase_diff2_of_tone_is_zero() {
        let mut nco = Nco::new(2.1e6, 8e6);
        let sig: Vec<Complex32> = (0..64).map(|_| nco.next()).collect();
        for v in phase_diff2(&sig) {
            assert!(v.abs() < 1e-4);
        }
    }

    #[test]
    fn second_phase_derivative_is_small() {
        // The RFDump GFSK detector's premise: |phi''| stays tiny compared to
        // an abrupt-phase modulation.
        let bits = alternating(128);
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        let d2 = phase_diff2(&w.samples);
        let max = d2.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        // Max possible step if phase jumped pi in one sample would be ~3.14;
        // GFSK at 8 sps keeps second differences well under 0.1 rad.
        assert!(max < 0.1, "max |phi''| = {max}");
    }

    #[test]
    fn per_symbol_phase_advance_is_pi_h() {
        let bits = vec![true; 30];
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        // Total phase across 10 mid-run symbols.
        let d = phase_diff(&w.samples);
        let total: f32 = d[80..160].iter().sum();
        let expect = (PI * super::super::GFSK_H) as f32 * 10.0;
        assert!((total - expect).abs() < 0.05, "{total} vs {expect}");
    }

    #[test]
    fn works_at_other_sample_rates() {
        let bits = alternating(50);
        for fs in [2e6, 4e6, 16e6] {
            let w = modulate_bits(&bits, BtTxConfig { sample_rate: fs });
            assert_eq!(w.samples.len(), 50 * (fs / 1e6) as usize);
        }
    }

    #[test]
    #[should_panic]
    fn non_integer_sps_rejected() {
        let _ = modulate_bits(&[true], BtTxConfig { sample_rate: 2.5e6 });
    }
}
