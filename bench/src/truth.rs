//! Ground truth for the correctness gate: the sidecar written beside each
//! synthesized trace, and the matcher that scores a record stream against it.
//!
//! The monitor under test never sees the sidecar; it is the independent
//! second measurement the harness checks the record stream with.

use rfd_ether::EtherTrace;
use std::io;
use std::path::Path;

/// A record may start this long before the truth packet's first sample and
/// still match it (the peak detector's margin and averaging window move a
/// start estimate a few tens of microseconds early).
pub const EARLY_SLACK_US: f64 = 50.0;

/// Two transmissions closer than this reach the monitor as one peak: the
/// peak detector's 3 µs hang plus its 2.5 µs averaging window, rounded up.
/// Below the 10 µs SIFS, so a frame and its ACK stay two packets.
pub const MERGE_GAP_US: f64 = 6.0;

/// One transmitted packet, as the simulator knows it.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthPacket {
    /// Protocol name exactly as the second column of a record line.
    pub protocol: String,
    /// Airtime start, µs from trace start.
    pub start_us: f64,
    /// Airtime end, µs.
    pub end_us: f64,
    /// Fully inside the monitored band.
    pub in_band: bool,
    /// Overlaps another in-band transmission.
    pub collided: bool,
    /// Cut short by the end of the trace.
    pub clipped: bool,
}

impl TruthPacket {
    /// Whether the monitor is expected to report this packet: in band,
    /// not collided, and whole.
    pub fn expected(&self) -> bool {
        self.in_band && !self.collided && !self.clipped
    }
}

/// The truth of a rendered trace.
///
/// `collided` is wider than `EtherTrace::collided_ids`, which pairs only
/// transmissions lying wholly in band: a Bluetooth packet on an edge channel
/// is out of band by that definition yet still puts energy into the
/// monitored slice, and an 802.11 frame it overlaps reaches the monitor as
/// one merged peak. Here a packet is collided when it overlaps in time, or
/// comes within [`MERGE_GAP_US`] of, any other transmission that was
/// rendered into the samples at all.
pub fn from_trace(trace: &EtherTrace) -> Vec<TruthPacket> {
    let us = 1e6 / trace.band.sample_rate;
    let gap = (MERGE_GAP_US / us) as usize;
    let rendered: Vec<_> = trace
        .truth
        .iter()
        .filter(|t| t.snr_db.is_finite())
        .collect();
    let touches = |a: &rfd_ether::TruthRecord, b: &rfd_ether::TruthRecord| {
        a.start_sample < b.end_sample + gap && b.start_sample < a.end_sample + gap
    };
    trace
        .truth
        .iter()
        .map(|t| TruthPacket {
            protocol: t.protocol.name().to_string(),
            start_us: t.start_sample as f64 * us,
            end_us: t.end_sample as f64 * us,
            in_band: t.in_band,
            collided: rendered.iter().any(|o| o.id != t.id && touches(o, t)),
            clipped: t.end_sample >= trace.samples.len(),
        })
        .collect()
}

/// Writes the sidecar: one `start_us end_us protocol in_band collided
/// clipped` line per packet.
pub fn write_sidecar(path: &Path, truth: &[TruthPacket]) -> io::Result<()> {
    let mut text = String::new();
    for t in truth {
        text.push_str(&format!(
            "{} {} {} {} {} {}\n",
            t.start_us, t.end_us, t.protocol, t.in_band as u8, t.collided as u8, t.clipped as u8
        ));
    }
    std::fs::write(path, text)
}

/// Reads a sidecar back.
pub fn read_sidecar(path: &Path) -> io::Result<Vec<TruthPacket>> {
    let bad = |line: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad truth line '{line}'"),
        )
    };
    std::fs::read_to_string(path)?
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            match f[..] {
                [a, b, proto, ib, col, clip] => Ok(TruthPacket {
                    protocol: proto.to_string(),
                    start_us: a.parse().map_err(|_| bad(line))?,
                    end_us: b.parse().map_err(|_| bad(line))?,
                    in_band: ib == "1",
                    collided: col == "1",
                    clipped: clip == "1",
                }),
                _ => Err(bad(line)),
            }
        })
        .collect()
}

/// The two columns of a record line the matcher reads: start time (µs) and
/// protocol. `None` for a line that is not a record.
pub fn parse_record(line: &str) -> Option<(f64, &str)> {
    let mut cols = line.split_whitespace();
    let t: f64 = cols.next()?.parse().ok()?;
    Some((t * 1e6, cols.next()?))
}

/// Outcome of matching one record stream against one truth set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// Truth packets the monitor is expected to report.
    pub expected: u64,
    /// Of those, packets with no same-protocol record starting inside their
    /// airtime.
    pub missed: u64,
    /// Record lines scored.
    pub records: u64,
    /// Of those, records that start inside no same-protocol truth packet
    /// (collided and out-of-band packets count: reporting one is not an
    /// error, only failing to is excused).
    pub false_records: u64,
}

impl Score {
    /// A run that produced nothing usable: every expected packet is missed.
    pub fn all_missed(truth: &[TruthPacket]) -> Self {
        let expected = truth.iter().filter(|t| t.expected()).count() as u64;
        Score {
            expected,
            missed: expected,
            ..Score::default()
        }
    }

    /// Adds another iteration's counts.
    pub fn add(&mut self, o: Score) {
        self.expected += o.expected;
        self.missed += o.missed;
        self.records += o.records;
        self.false_records += o.false_records;
    }

    /// Missed ÷ expected.
    pub fn miss_share(&self) -> f64 {
        self.missed as f64 / self.expected.max(1) as f64
    }

    /// False records ÷ records.
    pub fn false_share(&self) -> f64 {
        self.false_records as f64 / self.records.max(1) as f64
    }
}

/// Matches record lines against truth by time and protocol only; every other
/// column of a record is free to change without touching this gate.
pub fn score<'a>(truth: &[TruthPacket], lines: impl IntoIterator<Item = &'a str>) -> Score {
    let records: Vec<(f64, &str)> = lines.into_iter().filter_map(parse_record).collect();
    let inside = |t: &TruthPacket, (at, proto): (f64, &str)| {
        proto == t.protocol && at >= t.start_us - EARLY_SLACK_US && at <= t.end_us
    };
    let mut s = Score {
        records: records.len() as u64,
        ..Score::default()
    };
    for t in truth.iter().filter(|t| t.expected()) {
        s.expected += 1;
        if !records.iter().any(|&r| inside(t, r)) {
            s.missed += 1;
        }
    }
    s.false_records = records
        .iter()
        .filter(|&&r| !truth.iter().any(|t| inside(t, r)))
        .count() as u64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(proto: &str, start_us: f64, end_us: f64) -> TruthPacket {
        TruthPacket {
            protocol: proto.into(),
            start_us,
            end_us,
            in_band: true,
            collided: false,
            clipped: false,
        }
    }

    fn line(t_us: f64, proto: &str) -> String {
        format!(
            "{:12.6} {proto:<10} snr  30.0 dB  whatever follows",
            t_us / 1e6
        )
    }

    #[test]
    fn a_record_inside_the_airtime_is_a_hit_with_early_slack() {
        let truth = [pkt("802.11", 1000.0, 1500.0)];
        for at in [1001.0 - EARLY_SLACK_US, 1000.0, 1499.0] {
            let s = score(&truth, [line(at, "802.11").as_str()]);
            assert_eq!(
                (s.expected, s.missed, s.false_records),
                (1, 0, 0),
                "at {at}"
            );
        }
    }

    #[test]
    fn no_record_or_a_record_of_another_protocol_is_a_miss() {
        let truth = [pkt("802.11", 1000.0, 1500.0)];
        assert_eq!(score(&truth, []).missed, 1);
        let s = score(&truth, [line(1100.0, "bluetooth").as_str()]);
        assert_eq!((s.missed, s.false_records), (1, 1));
    }

    #[test]
    fn collided_out_of_band_and_clipped_packets_are_excused_but_may_be_reported() {
        let mut collided = pkt("bluetooth", 0.0, 400.0);
        collided.collided = true;
        let mut outside = pkt("bluetooth", 1000.0, 1400.0);
        outside.in_band = false;
        let mut clipped = pkt("bluetooth", 2000.0, 2100.0);
        clipped.clipped = true;
        let truth = [collided, outside, clipped];
        let silent = score(&truth, []);
        assert_eq!((silent.expected, silent.missed), (0, 0));
        let reported = score(&truth, [line(100.0, "bluetooth").as_str()]);
        assert_eq!((reported.records, reported.false_records), (1, 0));
    }

    #[test]
    fn a_record_matching_no_packet_is_false() {
        let truth = [pkt("802.11", 1000.0, 1500.0)];
        let lines = [line(1000.0, "802.11"), line(5000.0, "802.11")];
        let s = score(&truth, lines.iter().map(String::as_str));
        assert_eq!((s.records, s.false_records, s.missed), (2, 1, 0));
        assert_eq!(s.false_share(), 0.5);
    }

    #[test]
    fn non_record_lines_are_ignored_and_sidecar_round_trips() {
        assert_eq!(parse_record("rfdump: 12 packets"), None);
        let (at, proto) = parse_record("    0.001234 802.11     snr").unwrap();
        assert!((at - 1234.0).abs() < 1e-6 && proto == "802.11");
        let mut t = pkt("bluetooth", 12.5, 378.125);
        t.collided = true;
        let dir = std::env::temp_dir().join(format!("rfd-perfbench-truth-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.truth");
        write_sidecar(&path, std::slice::from_ref(&t)).unwrap();
        assert_eq!(read_sidecar(&path).unwrap(), vec![t.clone()]);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(Score::all_missed(&[t, pkt("802.11", 0.0, 1.0)]).missed, 1);
    }
}
