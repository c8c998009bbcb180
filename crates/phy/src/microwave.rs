//! Residential microwave-oven interference model.
//!
//! A magnetron emits a constant-envelope, slowly frequency-wandering carrier
//! while the AC half-cycle powers it — i.e. bursts of ~8 ms every 16.67 ms
//! (60 Hz mains; Table 2 of the paper lists the 16667/20000 µs AC cycle and
//! 10-75 MHz of drift). RFDump's microwave timing detector keys on exactly
//! two features this model reproduces: peaks recurring at the AC period and
//! a constant amplitude across peaks.

use crate::Waveform;
use rfd_dsp::{Complex32, TAU64};

/// Microwave-oven emission parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicrowaveConfig {
    /// Mains frequency (Hz): 60 for the US (16.67 ms period), 50 for EU.
    pub mains_hz: f64,
    /// Fraction of each AC period the magnetron conducts (~0.5).
    pub duty: f64,
    /// Frequency sweep amplitude within the monitored band (Hz). Real ovens
    /// wander tens of MHz; within an 8 MHz window the visible part is a
    /// sweep across the band.
    pub sweep_hz: f64,
    /// Sweep rate (Hz): how fast the carrier wanders back and forth.
    pub sweep_rate_hz: f64,
}

impl Default for MicrowaveConfig {
    fn default() -> Self {
        Self {
            mains_hz: 60.0,
            duty: 0.5,
            sweep_hz: 2.5e6,
            sweep_rate_hz: 300.0,
        }
    }
}

/// Renders `duration_s` of microwave emission at `sample_rate`, starting at
/// AC phase `start_s` seconds into the mains cycle. Emission is centered at
/// baseband and wanders ±`sweep_hz` sinusoidally.
pub fn render(cfg: &MicrowaveConfig, sample_rate: f64, start_s: f64, duration_s: f64) -> Waveform {
    let n = (duration_s * sample_rate).round() as usize;
    let period = 1.0 / cfg.mains_hz;
    let mut samples = Vec::with_capacity(n);
    let mut phase = 0.0f64;
    for i in 0..n {
        let t = start_s + i as f64 / sample_rate;
        let ac_pos = (t / period).fract();
        let on = ac_pos < cfg.duty;
        // Instantaneous frequency wanders sinusoidally.
        let f = cfg.sweep_hz * (TAU64 * cfg.sweep_rate_hz * t).sin();
        phase += TAU64 * f / sample_rate;
        if phase > 1e9 {
            phase = phase.rem_euclid(TAU64);
        }
        samples.push(if on {
            Complex32::cis(phase as f32)
        } else {
            Complex32::ZERO
        });
    }
    Waveform {
        samples,
        sample_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_timing_matches_mains() {
        // 50 ms at 1 Msps. Count on/off transitions: 3 periods -> 3 rising edges.
        let w = render(&MicrowaveConfig::default(), 1e6, 0.0, 0.05);
        let mut rising = Vec::new();
        for i in 1..w.samples.len() {
            let was_on = w.samples[i - 1].abs() > 0.5;
            let is_on = w.samples[i].abs() > 0.5;
            if is_on && !was_on {
                rising.push(i);
            }
        }
        assert_eq!(rising.len(), 2, "edges at {rising:?}");
        let gap = (rising[1] - rising[0]) as f64; // in us at 1 Msps
        assert!((gap - 16_666.7).abs() < 2.0, "period {gap}");
    }

    #[test]
    fn envelope_is_constant_while_on() {
        let w = render(&MicrowaveConfig::default(), 8e6, 0.0, 0.002);
        for z in &w.samples {
            let a = z.abs();
            assert!(a < 1e-6 || (a - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn duty_cycle_is_respected() {
        let cfg = MicrowaveConfig {
            duty: 0.5,
            ..Default::default()
        };
        let w = render(&cfg, 1e6, 0.0, 1.0 / 60.0);
        let on = w.samples.iter().filter(|z| z.abs() > 0.5).count();
        let frac = on as f64 / w.samples.len() as f64;
        assert!((frac - 0.5).abs() < 0.01, "duty {frac}");
    }

    #[test]
    fn fifty_hz_period() {
        let cfg = MicrowaveConfig {
            mains_hz: 50.0,
            ..Default::default()
        };
        let w = render(&cfg, 1e6, 0.0, 0.06); // 60 ms at 1 Msps
        let on: Vec<bool> = w.samples.iter().map(|z| z.abs() > 0.5).collect();
        let rising: Vec<usize> = (1..on.len()).filter(|&i| on[i] && !on[i - 1]).collect();
        assert_eq!(rising.len(), 2, "edges at {rising:?}");
        let gap = (rising[1] - rising[0]) as f64; // in us at 1 Msps
        assert!((gap - 20_000.0).abs() < 2.0, "period {gap}");
    }

    #[test]
    fn frequency_wanders() {
        // The instantaneous frequency must not be constant.
        let w = render(&MicrowaveConfig::default(), 8e6, 0.0, 0.004);
        let on: Vec<_> = w
            .samples
            .iter()
            .filter(|z| z.abs() > 0.5)
            .cloned()
            .collect();
        let diffs: Vec<f32> = on.windows(2).map(|p| (p[1] * p[0].conj()).arg()).collect();
        let first = diffs[10];
        assert!(diffs.iter().any(|d| (d - first).abs() > 0.01));
    }
}
