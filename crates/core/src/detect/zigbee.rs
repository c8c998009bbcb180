//! ZigBee (802.15.4) detectors — the paper's extensibility showcase.
//!
//! §3.2: "a ZigBee timing block would look for spacings that are a multiple
//! of backoff periods (slot time), LIFS, SIFS or tACK"; §3.3 notes the
//! protocol-agnostic phase machinery is reused — O-QPSK with half-sine
//! shaping is MSK at 2 Mchips/s, i.e. phase ramps of ±π/2 per chip, which
//! gives a first-derivative magnitude signature distinct from both
//! Bluetooth's gentler GFSK slopes and 802.11's abrupt chip flips.

use super::{hist_entry, Classification, FastDetector, PeakHistory};
use crate::chunk::PeakBlock;
use rfd_dsp::phase::wrap_phase;
use rfd_phy::zigbee::{BACKOFF_US, TACK_US};
use rfd_phy::Protocol;

/// Timing tolerance, µs.
pub(crate) const TIMING_TOLERANCE_US: f64 = 6.0;
/// Longest 802.15.4 frame: (12 + 127·2) symbols × 16 µs ≈ 4.3 ms.
pub(crate) const MAX_FRAME_US: f64 = 4_300.0;

/// ZigBee timing detector: recognizes the tACK turnaround (192 µs) and
/// backoff-period-aligned spacings.
pub(crate) struct ZigbeeTimingDetector {
    history: PeakHistory,
}

impl ZigbeeTimingDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self {
            history: PeakHistory::new(64),
        }
    }
}

impl Default for ZigbeeTimingDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for ZigbeeTimingDetector {
    fn name(&self) -> &str {
        "detect:zigbee-timing"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Zigbee
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let start = pb.start_us();
        let dur = pb.end_us() - start;
        let mut out = Vec::new();
        if dur <= MAX_FRAME_US {
            if let Some(prev) = self.history.iter_recent().next() {
                let gap = start - prev.end_us;
                // tACK turnaround: data followed by the Imm-ACK.
                if (gap - TACK_US).abs() <= TIMING_TOLERANCE_US {
                    out.push(Classification {
                        peak_id: prev.id,
                        protocol: Protocol::Zigbee,
                        confidence: 0.8,
                        channel: None,
                        range: None,
                    });
                    out.push(Classification {
                        peak_id: pb.peak.id,
                        protocol: Protocol::Zigbee,
                        confidence: 0.8,
                        channel: None,
                        range: None,
                    });
                }
                // Backoff-aligned spacing after the LIFS (weaker evidence).
                else if gap > 0.0 {
                    let m = (gap / BACKOFF_US).round();
                    if (1.0..=16.0).contains(&m)
                        && (gap - m * BACKOFF_US).abs() <= TIMING_TOLERANCE_US
                    {
                        out.push(Classification {
                            peak_id: pb.peak.id,
                            protocol: Protocol::Zigbee,
                            confidence: 0.55,
                            channel: None,
                            range: None,
                        });
                    }
                }
            }
        }
        self.history.push(hist_entry(pb));
        out
    }
}

/// ZigBee phase detector: MSK slope signature at 2 Mchips/s.
pub(crate) struct ZigbeePhaseDetector {
    /// Samples inspected per peak.
    pub max_samples: usize,
    /// Minimum samples required.
    pub min_samples: usize,
    /// Scratch: first phase derivative of the inspected samples.
    d1: Vec<f32>,
}

impl ZigbeePhaseDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self {
            max_samples: 4096,
            min_samples: 256,
            d1: Vec::new(),
        }
    }
}

impl Default for ZigbeePhaseDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for ZigbeePhaseDetector {
    fn name(&self) -> &str {
        "detect:zigbee-phase"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Zigbee
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let samples = pb.peak_samples();
        if samples.len() < self.min_samples {
            return Vec::new();
        }
        if pb.end_us() - pb.start_us() > MAX_FRAME_US {
            return Vec::new();
        }
        let n = samples.len().min(self.max_samples);
        // First-derivative stats: MSK at 2 Mcps sampled at fs gives |φ'|
        // around (π/2) · 2e6 / fs (π/8 ≈ 0.39 rad at 8 Msps) away from chip
        // transitions.
        let fs = pb.sample_rate;
        let expect = (std::f32::consts::FRAC_PI_2 as f64 * 2e6 / fs) as f32;
        let d1 = &mut self.d1;
        d1.clear();
        d1.extend(samples[..n].windows(2).map(|w| (w[1] * w[0].conj()).arg()));
        let mean = d1.iter().sum::<f32>() / d1.len() as f32;
        // Remove carrier offset, then test |φ'| clustering near ±expect.
        let mut near = 0usize;
        let mut sum_abs = 0.0f64;
        for &v in d1.iter() {
            let c = wrap_phase(v - mean);
            sum_abs += c.abs() as f64;
            if (c.abs() - expect).abs() < 0.4 * expect {
                near += 1;
            }
        }
        let mean_abs = (sum_abs / d1.len() as f64) as f32;
        let near_frac = near as f32 / d1.len() as f32;
        // GFSK: mean_abs ≈ 0.1 (too small); wifi: chaotic, near_frac low.
        if near_frac >= 0.5 && (mean_abs - expect).abs() < 0.5 * expect {
            vec![Classification {
                peak_id: pb.peak.id,
                protocol: Protocol::Zigbee,
                confidence: 0.5 + 0.4 * near_frac.min(1.0),
                channel: None,
                range: None,
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Peak, PeakBlock};
    use rfd_dsp::rng::GaussianGen;
    use rfd_dsp::Complex32;
    use std::sync::Arc;

    fn meta_pb(id: u64, start_us: f64, len_us: f64) -> PeakBlock {
        let start = (start_us * 8.0) as u64;
        let end = start + (len_us * 8.0) as u64;
        PeakBlock {
            peak: Peak {
                id,
                start,
                end,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(vec![]),
            sample_start: start,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    fn zb_block(snr_db: f32, seed: u64) -> PeakBlock {
        let frame = rfd_phy::zigbee::ZigbeeFrame::new((0..30).map(|i| i as u8).collect());
        let w = rfd_phy::zigbee::modulate(&frame, 4);
        let mut sig = w.samples;
        GaussianGen::new(seed).add_awgn(&mut sig, rfd_dsp::energy::db_to_power(-snr_db));
        let n = sig.len() as u64;
        PeakBlock {
            peak: Peak {
                id: 0,
                start: 0,
                end: n,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(sig),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    #[test]
    fn tack_pair_is_detected() {
        let mut d = ZigbeeTimingDetector::new();
        assert!(d.on_peak(&meta_pb(0, 0.0, 1000.0)).is_empty());
        let v = d.on_peak(&meta_pb(1, 1192.0, 180.0)); // gap = tACK
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn backoff_multiple_gets_weak_vote() {
        let mut d = ZigbeeTimingDetector::new();
        d.on_peak(&meta_pb(0, 0.0, 1000.0));
        let v = d.on_peak(&meta_pb(1, 1000.0 + 2.0 * BACKOFF_US, 500.0));
        assert_eq!(v.len(), 1);
        assert!(v[0].confidence < 0.7);
    }

    #[test]
    fn wifi_sifs_gap_is_not_zigbee() {
        let mut d = ZigbeeTimingDetector::new();
        d.on_peak(&meta_pb(0, 0.0, 500.0));
        assert!(d.on_peak(&meta_pb(1, 510.0, 100.0)).is_empty());
    }

    #[test]
    fn phase_detector_accepts_oqpsk() {
        let mut d = ZigbeePhaseDetector::new();
        let v = d.on_peak(&zb_block(25.0, 1));
        assert_eq!(v.len(), 1, "clean O-QPSK must classify");
        assert_eq!(v[0].protocol, Protocol::Zigbee);
    }

    #[test]
    fn phase_detector_rejects_gfsk() {
        use rfd_phy::bluetooth::gfsk::{modulate_bits, BtTxConfig};
        let bits: Vec<bool> = (0..1500).map(|i| i % 3 == 0).collect();
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        let n = w.samples.len() as u64;
        let pb = PeakBlock {
            peak: Peak {
                id: 0,
                start: 0,
                end: n,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(w.samples),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        };
        let mut d = ZigbeePhaseDetector::new();
        assert!(d.on_peak(&pb).is_empty(), "GFSK must not look like O-QPSK");
    }

    #[test]
    fn phase_detector_rejects_noise() {
        let mut sig = vec![Complex32::ZERO; 4000];
        GaussianGen::new(2).add_awgn(&mut sig, 1.0);
        let pb = PeakBlock {
            peak: Peak {
                id: 0,
                start: 0,
                end: 4000,
                mean_power: 1.0,
                noise_floor: 1.0,
            },
            samples: Arc::new(sig),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        };
        let mut d = ZigbeePhaseDetector::new();
        assert!(d.on_peak(&pb).is_empty());
    }
}
