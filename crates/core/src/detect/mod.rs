//! Protocol-specific fast detectors (paper §3 and §4.4-§4.6).
//!
//! Each detector consumes [`PeakBlock`]s from the protocol-agnostic stage
//! and emits `(peak, protocol, confidence)` votes. Timing detectors work
//! purely on peak metadata (start/end timestamps) and may classify *earlier*
//! peaks retroactively — e.g. the SIFS detector can only recognize a data
//! frame once its ACK appears 10 µs later. Phase and frequency detectors
//! read (a bounded prefix of) the peak's samples.
//!
//! The shared grammar: detectors are allowed false positives (the
//! demodulator will reject non-packets) but should almost never miss — the
//! architecture's efficiency comes from the *selectivity* of these cheap
//! passes.

pub mod bt_freq;
pub mod bt_phase;
pub mod bt_timing;
pub mod collision;
pub mod microwave;
pub mod wifi_phase;
pub mod wifi_timing;
pub mod zigbee;

pub use bt_phase::BtPhaseDetector;
pub use bt_timing::BtTimingDetector;
pub use collision::{detect_collision, CollisionConfig, CollisionEvidence};
pub use microwave::MicrowaveTimingDetector;
pub use wifi_phase::WifiPhaseDetector;
pub use wifi_timing::{WifiDifsDetector, WifiSifsDetector};

use crate::chunk::PeakBlock;
use rfd_phy::Protocol;

/// One detector vote: peak `peak_id` looks like `protocol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The peak being classified (may be an earlier peak than the one that
    /// triggered the detector).
    pub peak_id: u64,
    /// Claimed protocol.
    pub protocol: Protocol,
    /// Confidence in `(0, 1]`.
    pub confidence: f32,
    /// Channel hint (Bluetooth RF channel index within the monitored band),
    /// when the detector can tell.
    pub channel: Option<u8>,
    /// When set, only this absolute sample range of the peak looks like the
    /// protocol and needs forwarding (e.g. the DBPSK detector passes the
    /// 1 Mbps PLCP header of an 11 Mbps frame but not its CCK payload).
    /// `None` forwards the whole peak.
    pub range: Option<(u64, u64)>,
}

/// A fast detector.
pub trait FastDetector: Send {
    /// Display name (appears in CPU accounting).
    fn name(&self) -> &str;

    /// The protocol this detector votes for.
    fn protocol(&self) -> Protocol;

    /// Examine a completed peak; return votes (possibly for earlier peaks).
    fn on_peak(&mut self, peak: &PeakBlock) -> Vec<Classification>;

    /// End-of-stream flush for detectors that buffer (none currently do,
    /// default is empty).
    fn finish(&mut self) -> Vec<Classification> {
        Vec::new()
    }
}

/// Peak-history entry kept by timing detectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistEntry {
    /// Peak id.
    pub id: u64,
    /// Start time, µs.
    pub start_us: f64,
    /// End time, µs.
    pub end_us: f64,
    /// Mean power (for the microwave constant-envelope check).
    pub mean_power: f32,
}

/// A bounded history of recent peaks, as the paper's metadata "pointer to
/// the history of peaks detected".
#[derive(Debug, Clone)]
pub(crate) struct PeakHistory {
    entries: std::collections::VecDeque<HistEntry>,
    cap: usize,
}

impl PeakHistory {
    /// Creates a history holding up to `cap` peaks.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Default::default(),
            cap: cap.max(1),
        }
    }

    /// Records a peak.
    pub fn push(&mut self, e: HistEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(e);
    }

    /// Most recent first.
    pub(crate) fn iter_recent(&self) -> impl Iterator<Item = &HistEntry> {
        self.entries.iter().rev()
    }
}

/// Helper: build a [`HistEntry`] from a peak block.
pub(crate) fn hist_entry(pb: &PeakBlock) -> HistEntry {
    HistEntry {
        id: pb.peak.id,
        start_us: pb.start_us(),
        end_us: pb.end_us(),
        mean_power: pb.peak.mean_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_is_bounded_and_ordered() {
        let mut h = PeakHistory::new(3);
        for i in 0..5u64 {
            h.push(HistEntry {
                id: i,
                start_us: i as f64,
                end_us: i as f64 + 0.5,
                mean_power: 1.0,
            });
        }
        assert_eq!(h.entries.len(), 3);
        let ids: Vec<u64> = h.iter_recent().map(|e| e.id).collect();
        assert_eq!(ids, vec![4, 3, 2]);
    }
}
