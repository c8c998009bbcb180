//! Accuracy evaluation against ether ground truth (§5.1's metrics).
//!
//! "The key metric for accuracy is **packet miss rate** — the ratio of the
//! number of packets in the correct output and not found by the detection
//! modules, to the total number of packets in correct output. A secondary
//! metric is the **false positive rate** — the ratio of the number of
//! non-useful samples (i.e. not belonging to a valid transmission) to the
//! total size of the trace."

use rfd_ether::scene::TruthRecord;
use rfd_phy::Protocol;

/// A peak classified as some protocol (what the detection stage outputs),
/// reduced to what evaluation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedPeak {
    /// Protocol claimed.
    pub protocol: Protocol,
    /// First forwarded sample.
    pub start_sample: u64,
    /// One past the last forwarded sample.
    pub end_sample: u64,
}

/// Accuracy numbers for one detector/protocol.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyReport {
    /// In-band ground-truth packets of the protocol.
    pub total_true: usize,
    /// True packets not covered by any matching classified peak.
    pub missed: usize,
    /// Packet miss rate.
    pub miss_rate: f64,
    /// Forwarded samples not overlapping any true packet of the protocol.
    pub false_positive_samples: u64,
    /// False-positive samples over the whole trace length.
    pub false_positive_rate: f64,
    /// Total samples forwarded for this protocol.
    pub forwarded_samples: u64,
    /// Forwarded fraction of the trace (Table 4's selectivity).
    pub forwarded_fraction: f64,
}

/// Options for matching classified peaks against ground truth.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Ignore ground-truth packets that physically collided (the paper
    /// discounts these in §5.1.5: "As we have not incorporated collision
    /// detection in our detectors yet, these collisions appear as missed
    /// packets").
    pub discount_collisions: bool,
    /// Minimum overlap fraction of the true packet for a match.
    pub min_overlap: f64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            discount_collisions: false,
            min_overlap: 0.5,
        }
    }
}

/// Scores classified peaks of `protocol` against ground truth.
///
/// * `truth` — all ground-truth records (filtered internally to in-band
///   records of `protocol`).
/// * `classified` — the detection stage's output (any protocol; filtered).
/// * `trace_len` — total trace length in samples.
pub fn score_detector(
    protocol: Protocol,
    truth: &[TruthRecord],
    collided: &std::collections::HashSet<u64>,
    classified: &[ClassifiedPeak],
    trace_len: u64,
    opts: EvalOptions,
) -> AccuracyReport {
    let relevant: Vec<&TruthRecord> = truth
        .iter()
        .filter(|t| t.protocol == protocol && t.in_band)
        .filter(|t| !(opts.discount_collisions && collided.contains(&t.id)))
        .collect();
    let peaks: Vec<&ClassifiedPeak> = classified
        .iter()
        .filter(|c| c.protocol == protocol)
        .collect();

    // Miss rate: a true packet is found if classified peaks cover at least
    // `min_overlap` of it.
    let mut missed = 0usize;
    for t in &relevant {
        let tlen = (t.end_sample - t.start_sample) as u64;
        let mut covered = 0u64;
        for p in &peaks {
            let a = p.start_sample.max(t.start_sample as u64);
            let b = p.end_sample.min(t.end_sample as u64);
            if b > a {
                covered += b - a;
            }
        }
        if tlen == 0 || (covered as f64 / tlen as f64) < opts.min_overlap {
            missed += 1;
        }
    }

    // False positives: forwarded samples outside every true packet of the
    // protocol (in- or out-of-band — an out-of-band-channel Bluetooth packet
    // bleeding energy is still a valid transmission).
    let mut intervals: Vec<(u64, u64)> = truth
        .iter()
        .filter(|t| t.protocol == protocol)
        .map(|t| (t.start_sample as u64, t.end_sample as u64))
        .collect();
    intervals.sort_unstable();
    let mut fp = 0u64;
    let mut forwarded = 0u64;
    for p in &peaks {
        forwarded += p.end_sample - p.start_sample;
        fp += uncovered(p.start_sample, p.end_sample, &intervals);
    }

    let total_true = relevant.len();
    AccuracyReport {
        total_true,
        missed,
        miss_rate: if total_true == 0 {
            0.0
        } else {
            missed as f64 / total_true as f64
        },
        false_positive_samples: fp,
        false_positive_rate: if trace_len == 0 {
            0.0
        } else {
            fp as f64 / trace_len as f64
        },
        forwarded_samples: forwarded,
        forwarded_fraction: if trace_len == 0 {
            0.0
        } else {
            forwarded as f64 / trace_len as f64
        },
    }
}

/// Samples of `[start, end)` not covered by any (sorted) interval.
fn uncovered(start: u64, end: u64, sorted: &[(u64, u64)]) -> u64 {
    let mut cursor = start;
    let mut gap = 0u64;
    for &(a, b) in sorted {
        if b <= cursor {
            continue;
        }
        if a >= end {
            break;
        }
        if a > cursor {
            gap += a.min(end) - cursor;
        }
        cursor = cursor.max(b);
        if cursor >= end {
            return gap;
        }
    }
    if cursor < end {
        gap += end - cursor;
    }
    gap
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_ether::scene::TruthDetail;

    fn truth(id: u64, protocol: Protocol, start: usize, end: usize, in_band: bool) -> TruthRecord {
        TruthRecord {
            id,
            node: 0,
            protocol,
            start_sample: start,
            end_sample: end,
            tag: "t",
            in_band,
            channel: None,
            snr_db: 20.0,
            detail: TruthDetail::Microwave,
        }
    }

    fn peak(protocol: Protocol, start: u64, end: u64) -> ClassifiedPeak {
        ClassifiedPeak {
            protocol,
            start_sample: start,
            end_sample: end,
        }
    }

    #[test]
    fn perfect_detection_scores_zero_miss_zero_fp() {
        let t = vec![truth(0, Protocol::Wifi, 1000, 2000, true)];
        let c = vec![peak(Protocol::Wifi, 990, 2010)];
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &Default::default(),
            &c,
            100_000,
            EvalOptions::default(),
        );
        assert_eq!(r.total_true, 1);
        assert_eq!(r.missed, 0);
        assert_eq!(r.false_positive_samples, 20); // the 990..1000 + 2000..2010 margins
        assert!(r.false_positive_rate < 1e-3);
    }

    #[test]
    fn missing_packet_counts() {
        let t = vec![
            truth(0, Protocol::Wifi, 1000, 2000, true),
            truth(1, Protocol::Wifi, 5000, 6000, true),
        ];
        let c = vec![peak(Protocol::Wifi, 1000, 2000)];
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &Default::default(),
            &c,
            100_000,
            EvalOptions::default(),
        );
        assert_eq!(r.missed, 1);
        assert!((r.miss_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_below_threshold_is_a_miss() {
        let t = vec![truth(0, Protocol::Wifi, 1000, 2000, true)];
        let c = vec![peak(Protocol::Wifi, 1000, 1300)]; // 30% coverage
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &Default::default(),
            &c,
            100_000,
            EvalOptions::default(),
        );
        assert_eq!(r.missed, 1);
    }

    #[test]
    fn out_of_band_truth_is_not_counted_as_missable() {
        let t = vec![truth(0, Protocol::Bluetooth, 0, 1000, false)];
        let r = score_detector(
            Protocol::Bluetooth,
            &t,
            &Default::default(),
            &[],
            10_000,
            EvalOptions::default(),
        );
        assert_eq!(r.total_true, 0);
        assert_eq!(r.miss_rate, 0.0);
    }

    #[test]
    fn collided_packets_can_be_discounted() {
        let t = vec![
            truth(0, Protocol::Wifi, 1000, 2000, true),
            truth(1, Protocol::Wifi, 1500, 2500, true),
        ];
        let mut collided = std::collections::HashSet::new();
        collided.insert(0);
        collided.insert(1);
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &collided,
            &[],
            100_000,
            EvalOptions {
                discount_collisions: true,
                ..Default::default()
            },
        );
        assert_eq!(r.total_true, 0);
        let r2 = score_detector(
            Protocol::Wifi,
            &t,
            &collided,
            &[],
            100_000,
            EvalOptions::default(),
        );
        assert_eq!(r2.total_true, 2);
        assert_eq!(r2.missed, 2);
    }

    #[test]
    fn false_positives_ignore_other_protocols_truth() {
        // A peak classified wifi that actually covers a Bluetooth packet is
        // all false-positive samples for the wifi detector.
        let t = vec![truth(0, Protocol::Bluetooth, 1000, 2000, true)];
        let c = vec![peak(Protocol::Wifi, 1000, 2000)];
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &Default::default(),
            &c,
            100_000,
            EvalOptions::default(),
        );
        assert_eq!(r.false_positive_samples, 1000);
    }

    #[test]
    fn uncovered_handles_nested_and_adjacent_intervals() {
        let iv = vec![(10u64, 20u64), (20, 30), (50, 60)];
        assert_eq!(uncovered(0, 10, &iv), 10);
        assert_eq!(uncovered(10, 30, &iv), 0);
        assert_eq!(uncovered(0, 70, &iv), 10 + 20 + 10);
        assert_eq!(uncovered(25, 55, &iv), 20);
        assert_eq!(uncovered(60, 80, &iv), 20);
    }

    #[test]
    fn forwarded_fraction_accumulates() {
        let t = vec![truth(0, Protocol::Wifi, 0, 500, true)];
        let c = vec![peak(Protocol::Wifi, 0, 500), peak(Protocol::Wifi, 600, 700)];
        let r = score_detector(
            Protocol::Wifi,
            &t,
            &Default::default(),
            &c,
            1000,
            EvalOptions::default(),
        );
        assert_eq!(r.forwarded_samples, 600);
        assert!((r.forwarded_fraction - 0.6).abs() < 1e-12);
        assert_eq!(r.false_positive_samples, 100);
    }
}
