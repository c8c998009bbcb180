//! Microwave-oven timing detector (§3.2).
//!
//! "A microwave timing block might look for peaks occurring at the rate of
//! AC frequency (60 Hz, i.e. once every 16.67 ms). ... since the emitted
//! signal from a residential microwave has constant power, we can use signal
//! strength information to verify whether the amplitude of the signal is
//! constant across peaks."

use super::{hist_entry, Classification, FastDetector, HistEntry, PeakHistory};
use crate::chunk::PeakBlock;
use rfd_phy::Protocol;

/// Accepted AC periods, µs (60 Hz and 50 Hz mains).
pub(crate) const AC_PERIODS_US: [f64; 2] = [16_666.7, 20_000.0];
/// Tolerance on the period, µs.
pub(crate) const PERIOD_TOLERANCE_US: f64 = 300.0;
/// Microwave bursts last a large fraction of a half cycle; accept this
/// duration range (µs).
pub(crate) const MIN_BURST_US: f64 = 3_000.0;
/// Upper burst bound, µs.
pub(crate) const MAX_BURST_US: f64 = 14_000.0;
/// Maximum mean-power ratio between consecutive bursts (linear; ~1.8 dB).
pub(crate) const MAX_POWER_RATIO: f32 = 1.5;

/// The microwave detector.
pub struct MicrowaveTimingDetector {
    history: PeakHistory,
}

impl MicrowaveTimingDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self {
            history: PeakHistory::new(16),
        }
    }

    fn burst_like(start_us: f64, end_us: f64) -> bool {
        let d = end_us - start_us;
        (MIN_BURST_US..=MAX_BURST_US).contains(&d)
    }

    /// Returns the matched AC period, if any.
    fn period_match(prev: &HistEntry, start_us: f64) -> Option<f64> {
        let gap = start_us - prev.start_us;
        AC_PERIODS_US.iter().copied().find(|p| {
            let m = (gap / p).round();
            (1.0..=3.0).contains(&m) && (gap - m * p).abs() <= PERIOD_TOLERANCE_US * m
        })
    }

    /// A magnetron conducts for roughly half the AC cycle; a burst whose
    /// duty against the matched period is far from that cannot be an oven
    /// (this is what keeps multi-millisecond 802.11 frames out).
    fn duty_plausible(start_us: f64, end_us: f64, period: f64) -> bool {
        let duty = (end_us - start_us) / period;
        (0.3..=0.7).contains(&duty)
    }
}

impl Default for MicrowaveTimingDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for MicrowaveTimingDetector {
    fn name(&self) -> &str {
        "detect:microwave-timing"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Microwave
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let start = pb.start_us();
        let end = pb.end_us();
        let mut out = Vec::new();
        if Self::burst_like(start, end) {
            for prev in self.history.iter_recent() {
                if !Self::burst_like(prev.start_us, prev.end_us) {
                    continue;
                }
                if let Some(period) = Self::period_match(prev, start) {
                    if !Self::duty_plausible(start, end, period)
                        || !Self::duty_plausible(prev.start_us, prev.end_us, period)
                    {
                        continue;
                    }
                    // Constant-envelope check across bursts.
                    let ratio = pb.peak.mean_power / prev.mean_power.max(1e-12);
                    let ratio = if ratio < 1.0 { 1.0 / ratio } else { ratio };
                    if ratio <= MAX_POWER_RATIO {
                        out.push(Classification {
                            peak_id: prev.id,
                            protocol: Protocol::Microwave,
                            confidence: 0.7,
                            channel: None,
                            range: None,
                        });
                        out.push(Classification {
                            peak_id: pb.peak.id,
                            protocol: Protocol::Microwave,
                            confidence: 0.8,
                            channel: None,
                            range: None,
                        });
                        break;
                    }
                }
            }
        }
        self.history.push(hist_entry(pb));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Peak, PeakBlock};
    use std::sync::Arc;

    fn pb(id: u64, start_us: f64, len_us: f64, power: f32) -> PeakBlock {
        let start = (start_us * 8.0) as u64;
        let end = start + (len_us * 8.0) as u64;
        PeakBlock {
            peak: Peak {
                id,
                start,
                end,
                mean_power: power,
                noise_floor: 1e-4,
            },
            samples: Arc::new(vec![]),
            sample_start: start,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    #[test]
    fn sixty_hz_bursts_detected_from_second_burst() {
        let mut d = MicrowaveTimingDetector::new();
        assert!(d.on_peak(&pb(0, 0.0, 8300.0, 1.0)).is_empty());
        let v = d.on_peak(&pb(1, 16_666.7, 8300.0, 1.0));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|c| c.protocol == Protocol::Microwave));
    }

    #[test]
    fn fifty_hz_bursts_detected() {
        let mut d = MicrowaveTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 9800.0, 1.0));
        let v = d.on_peak(&pb(1, 20_000.0, 9800.0, 1.0));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn wifi_sized_peaks_never_match() {
        let mut d = MicrowaveTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 500.0, 1.0));
        assert!(d.on_peak(&pb(1, 16_666.7, 500.0, 1.0)).is_empty());
    }

    #[test]
    fn varying_amplitude_is_rejected() {
        let mut d = MicrowaveTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 8300.0, 1.0));
        let v = d.on_peak(&pb(1, 16_666.7, 8300.0, 3.0)); // +4.8 dB
        assert!(v.is_empty());
    }

    #[test]
    fn missed_burst_still_matches_at_two_periods() {
        let mut d = MicrowaveTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 8300.0, 1.0));
        let v = d.on_peak(&pb(1, 2.0 * 16_666.7, 8300.0, 1.1));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn wrong_period_rejected() {
        let mut d = MicrowaveTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 8300.0, 1.0));
        assert!(d.on_peak(&pb(1, 12_000.0, 8300.0, 1.0)).is_empty());
    }
}
