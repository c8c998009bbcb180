//! Bluetooth slot-timing detector (§3.2, §4.4).
//!
//! Bluetooth packets start on 625 µs TDD slot boundaries, so a peak whose
//! start sits `m × 625 µs` after the start of an earlier peak (small `m`) is
//! tentatively Bluetooth. Per the paper: "we maintain a cache of latest
//! observed Bluetooth activity and check against the cache before searching
//! through the history window. We also maintain a counter for the elements
//! of the cache ... our cache eviction policy and confidence value are based
//! on this counter." The first packet of a session is structurally missed —
//! there is nothing to match it against — which is exactly the small
//! constant miss floor in the paper's Fig. 8.

use super::{hist_entry, Classification, FastDetector, PeakHistory};
use crate::chunk::PeakBlock;
use rfd_phy::bluetooth::SLOT_US;
use rfd_phy::Protocol;

/// Tolerance on slot alignment, µs.
pub(crate) const SLOT_TOLERANCE_US: f64 = 4.0;
/// Maximum slot multiple considered a continuation of a session. With only
/// ~1 in 10 hops landing in the monitored 8 MHz, consecutive *visible*
/// packets of a busy piconet are routinely dozens of slots apart; 256 slots
/// (160 ms) keeps such sessions alive without opening the tolerance window
/// far enough to matter for false positives.
pub(crate) const MAX_SLOTS: u32 = 256;
/// Maximum Bluetooth packet duration (5 slots), µs — peaks longer than this
/// cannot be Bluetooth.
pub(crate) const MAX_BT_DURATION_US: f64 = 5.0 * SLOT_US;

/// A cached session: the most recent transmission believed to belong to one
/// Bluetooth exchange.
#[derive(Debug, Clone, Copy)]
struct Session {
    last_start_us: f64,
    /// Packets matched into this session (drives confidence + eviction).
    count: u32,
}

/// The slot-timing detector.
pub struct BtTimingDetector {
    history: PeakHistory,
    cache: Vec<Session>,
    cache_cap: usize,
}

impl BtTimingDetector {
    /// Creates the detector.
    pub fn new() -> Self {
        Self {
            history: PeakHistory::new(128),
            cache: Vec::new(),
            cache_cap: 4,
        }
    }

    /// Checks slot alignment between two start times.
    fn slot_match(a_start: f64, b_start: f64) -> Option<u32> {
        let gap = b_start - a_start;
        if gap <= 0.0 {
            return None;
        }
        let m = (gap / SLOT_US).round();
        if m < 1.0 || m > MAX_SLOTS as f64 {
            return None;
        }
        ((gap - m * SLOT_US).abs() <= SLOT_TOLERANCE_US).then_some(m as u32)
    }
}

impl Default for BtTimingDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl FastDetector for BtTimingDetector {
    fn name(&self) -> &str {
        "detect:bt-slot-timing"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Bluetooth
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let start = pb.start_us();
        let dur = pb.end_us() - start;
        let mut out = Vec::new();
        if dur <= MAX_BT_DURATION_US {
            // 1. Cache first (cheap path).
            let mut matched = false;
            for s in self.cache.iter_mut() {
                if Self::slot_match(s.last_start_us, start).is_some() {
                    s.last_start_us = start;
                    s.count += 1;
                    let confidence = (0.6 + 0.05 * s.count as f32).min(0.95);
                    out.push(Classification {
                        peak_id: pb.peak.id,
                        protocol: Protocol::Bluetooth,
                        confidence,
                        channel: None,
                        range: None,
                    });
                    matched = true;
                    break;
                }
            }
            // 2. Fall back to the history window.
            if !matched {
                for prev in self.history.iter_recent() {
                    let prev_dur = prev.end_us - prev.start_us;
                    if prev_dur > MAX_BT_DURATION_US {
                        continue;
                    }
                    if Self::slot_match(prev.start_us, start).is_some() {
                        out.push(Classification {
                            peak_id: pb.peak.id,
                            protocol: Protocol::Bluetooth,
                            confidence: 0.6,
                            channel: None,
                            range: None,
                        });
                        // Retroactively classify the session opener too.
                        out.push(Classification {
                            peak_id: prev.id,
                            protocol: Protocol::Bluetooth,
                            confidence: 0.5,
                            channel: None,
                            range: None,
                        });
                        // New cache entry (evict the lowest counter).
                        let sess = Session {
                            last_start_us: start,
                            count: 1,
                        };
                        if self.cache.len() < self.cache_cap {
                            self.cache.push(sess);
                        } else if let Some(victim) = self.cache.iter_mut().min_by_key(|s| s.count) {
                            *victim = sess;
                        }
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

    fn pb(id: u64, start_us: f64, len_us: f64) -> PeakBlock {
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

    #[test]
    fn slot_aligned_sequence_is_detected_after_first() {
        let mut d = BtTimingDetector::new();
        // Slots 0, 6, 12 (DH5 spacing).
        assert!(
            d.on_peak(&pb(0, 0.0, 2870.0)).is_empty(),
            "first packet has no reference"
        );
        let v1 = d.on_peak(&pb(1, 6.0 * SLOT_US, 2870.0));
        assert!(v1.iter().any(|c| c.peak_id == 1));
        // The opener is classified retroactively.
        assert!(v1.iter().any(|c| c.peak_id == 0));
        let v2 = d.on_peak(&pb(2, 12.0 * SLOT_US, 2870.0));
        assert!(v2.iter().any(|c| c.peak_id == 2));
        // Cache hit: confidence grows.
        let v3 = d.on_peak(&pb(3, 18.0 * SLOT_US, 2870.0));
        assert!(v3[0].confidence > v2[0].confidence);
    }

    #[test]
    fn off_slot_peak_is_not_bluetooth() {
        let mut d = BtTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 300.0));
        let votes = d.on_peak(&pb(1, 700.0, 300.0)); // 700 != m*625 +- 4
        assert!(votes.is_empty());
    }

    #[test]
    fn overlong_peaks_are_excluded() {
        let mut d = BtTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 300.0));
        // Slot-aligned but 4 ms long (longer than a DH5).
        let votes = d.on_peak(&pb(1, 625.0, 4000.0));
        assert!(votes.is_empty());
    }

    #[test]
    fn tolerates_small_jitter() {
        let mut d = BtTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 400.0));
        let votes = d.on_peak(&pb(1, 625.0 + 2.5, 400.0));
        assert!(!votes.is_empty());
    }

    #[test]
    fn interleaved_wifi_does_not_break_the_session_cache() {
        let mut d = BtTimingDetector::new();
        d.on_peak(&pb(0, 0.0, 366.0));
        let v = d.on_peak(&pb(1, 2.0 * SLOT_US, 366.0));
        assert!(!v.is_empty());
        // A wifi-ish peak at an arbitrary time.
        assert!(d.on_peak(&pb(2, 1500.0, 500.0)).is_empty());
        // Next BT packet still matches the cached session.
        let v = d.on_peak(&pb(3, 6.0 * SLOT_US, 366.0));
        assert!(!v.is_empty(), "cache should survive interleaving");
    }
}
