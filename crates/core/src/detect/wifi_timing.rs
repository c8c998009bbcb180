//! 802.11 timing detectors (§3.2, §4.4).
//!
//! * [`WifiSifsDetector`] — a peak starting SIFS (10 µs) ± δ after the
//!   previous peak ends marks *both* peaks as 802.11 (data + MAC ACK). This
//!   catches every successful unicast exchange.
//! * [`WifiDifsDetector`] — a peak starting DIFS + k·slot ± δ(k) after the
//!   previous peak ends, k ∈ [0, CW], marks the new peak as 802.11. This
//!   catches contending stations (e.g. broadcast floods) with no ACKs.

use super::{hist_entry, Classification, FastDetector, PeakHistory};
use crate::chunk::PeakBlock;
use rfd_phy::wifi::{DIFS_US, SIFS_US, SLOT_US};
use rfd_phy::Protocol;

/// Tolerance (µs) on the SIFS gap. The peak detector's averaging window is
/// 2.5 µs, so edges carry a couple of µs of slop.
pub(crate) const SIFS_TOLERANCE_US: f64 = 3.0;
/// Base tolerance (µs) on DIFS + k·slot gaps.
pub(crate) const DIFS_TOLERANCE_US: f64 = 4.0;

/// SIFS-based 802.11 detector.
pub struct WifiSifsDetector {
    history: PeakHistory,
}

impl WifiSifsDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self {
            history: PeakHistory::new(64),
        }
    }
}

impl Default for WifiSifsDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for WifiSifsDetector {
    fn name(&self) -> &str {
        "detect:wifi-sifs-timing"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Wifi
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let mut out = Vec::new();
        if let Some(prev) = self.history.iter_recent().next() {
            let gap = pb.start_us() - prev.end_us;
            if (gap - SIFS_US).abs() <= SIFS_TOLERANCE_US {
                // Data + ACK: classify both.
                out.push(Classification {
                    peak_id: prev.id,
                    protocol: Protocol::Wifi,
                    confidence: 0.9,
                    channel: None,
                    range: None,
                });
                out.push(Classification {
                    peak_id: pb.peak.id,
                    protocol: Protocol::Wifi,
                    confidence: 0.9,
                    channel: None,
                    range: None,
                });
            }
        }
        self.history.push(hist_entry(pb));
        out
    }
}

/// DIFS + k·slot 802.11 detector.
pub struct WifiDifsDetector {
    history: PeakHistory,
    /// Largest k considered (the paper uses 64 "to bound our latency").
    pub max_k: u32,
}

impl WifiDifsDetector {
    /// Creates the detector with the paper's k ∈ [0, 64].
    pub fn new() -> Self {
        Self {
            history: PeakHistory::new(64),
            max_k: 64,
        }
    }
}

impl Default for WifiDifsDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for WifiDifsDetector {
    fn name(&self) -> &str {
        "detect:wifi-difs-timing"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Wifi
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let mut out = Vec::new();
        if let Some(prev) = self.history.iter_recent().next() {
            let gap = pb.start_us() - prev.end_us;
            if gap >= DIFS_US - DIFS_TOLERANCE_US {
                let k = ((gap - DIFS_US) / SLOT_US).round();
                if k >= 0.0 && k <= self.max_k as f64 {
                    let resid = (gap - DIFS_US - k * SLOT_US).abs();
                    if resid <= DIFS_TOLERANCE_US {
                        // Confidence decays a little with k (longer gaps
                        // match more things by chance).
                        let confidence = (0.85 - 0.003 * k) as f32;
                        out.push(Classification {
                            peak_id: pb.peak.id,
                            protocol: Protocol::Wifi,
                            confidence: confidence.max(0.5),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Peak, PeakBlock};
    use std::sync::Arc;

    fn pb(id: u64, start_us: f64, len_us: f64) -> PeakBlock {
        let fs = 8e6;
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
            sample_rate: fs,
            ingest: None,
        }
    }

    #[test]
    fn sifs_pair_classifies_both_peaks() {
        let mut d = WifiSifsDetector::new();
        assert!(d.on_peak(&pb(0, 0.0, 500.0)).is_empty());
        let votes = d.on_peak(&pb(1, 510.0, 200.0)); // gap 10 us
        assert_eq!(votes.len(), 2);
        assert_eq!(votes[0].peak_id, 0);
        assert_eq!(votes[1].peak_id, 1);
        assert!(votes.iter().all(|v| v.protocol == Protocol::Wifi));
    }

    #[test]
    fn sifs_rejects_wrong_gap() {
        let mut d = WifiSifsDetector::new();
        d.on_peak(&pb(0, 0.0, 500.0));
        assert!(d.on_peak(&pb(1, 530.0, 200.0)).is_empty()); // gap 30 us
        assert!(d.on_peak(&pb(2, 732.0, 200.0)).is_empty()); // gap 2 us
    }

    #[test]
    fn difs_accepts_slot_multiples() {
        let mut d = WifiDifsDetector::new();
        d.on_peak(&pb(0, 0.0, 1000.0));
        // gap = 50 + 3*20 = 110 us.
        let votes = d.on_peak(&pb(1, 1110.0, 1000.0));
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].peak_id, 1);
    }

    #[test]
    fn difs_rejects_off_grid_and_big_k() {
        let mut d = WifiDifsDetector::new();
        d.on_peak(&pb(0, 0.0, 1000.0));
        // 50 + 3*20 + 9 off-grid.
        assert!(d.on_peak(&pb(1, 1119.0, 100.0)).is_empty());
        let mut d2 = WifiDifsDetector::new();
        d2.on_peak(&pb(0, 0.0, 1000.0));
        // k = 100 > 64.
        assert!(d2
            .on_peak(&pb(1, 1000.0 + 50.0 + 100.0 * 20.0, 100.0))
            .is_empty());
    }

    #[test]
    fn difs_zero_k_is_difs_exactly() {
        let mut d = WifiDifsDetector::new();
        d.on_peak(&pb(0, 0.0, 300.0));
        let votes = d.on_peak(&pb(1, 350.0, 300.0));
        assert_eq!(votes.len(), 1);
        assert!(votes[0].confidence >= 0.8);
    }

    #[test]
    fn sifs_tolerance_covers_edge_slop() {
        let mut d = WifiSifsDetector::new();
        d.on_peak(&pb(0, 0.0, 100.0));
        let votes = d.on_peak(&pb(1, 112.0, 100.0)); // 12 us (within +-3)
        assert_eq!(votes.len(), 2);
    }
}
