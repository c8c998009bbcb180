//! The analysis stage: per-protocol analyzers fed by the dispatcher.
//!
//! "In our implementation, the analysis stage typically demodulates Wi-Fi
//! and Bluetooth signals, but other analysis tools could be used, e.g.
//! demodulation of headers only." Analyzers here wrap the full `rfd-phy`
//! receivers; a peak that fails demodulation still produces a
//! `DetectedOnly` record (the detection stage's tentative tag is useful on
//! its own, and false positives are *expected* — rejecting them is the
//! analyzer's job).

use crate::dispatch::Dispatch;
use crate::records::{PacketInfo, PacketRecord};
use rfd_phy::bluetooth::demod::{BtChannelRx, PiconetId};
use rfd_phy::bluetooth::hop::channel_freq_hz;
use rfd_phy::Protocol;

/// A per-protocol analyzer.
pub trait Analyzer: Send {
    /// Display name (appears in CPU accounting).
    fn name(&self) -> &str;

    /// The protocol this analyzer consumes.
    fn protocol(&self) -> Protocol;

    /// Analyzes a dispatched peak (guaranteed to carry a qualifying vote
    /// for [`Analyzer::protocol`]).
    ///
    /// Every record returned must carry `start_us == d.block.start_us()`:
    /// a record is stamped with where its *peak* starts, whatever the
    /// demodulator found inside it. The streaming session's release order
    /// rests on this — peaks are disjoint and ordered and dispatches are
    /// released in sequence, so records leave in start-time order and none
    /// ever has to be held back for a sort.
    fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord>;
}

/// The record every analysis path starts from: the dispatcher's tentative
/// classification with the best vote's confidence and channel hint. Used by
/// the analyzers as the demodulation-failure fallback and by detection-only
/// runs as the record itself.
pub(crate) fn detected_only_record(d: &Dispatch, protocol: Protocol) -> PacketRecord {
    base_record(d, protocol)
}

fn base_record(d: &Dispatch, protocol: Protocol) -> PacketRecord {
    let v = d.vote_for(protocol);
    PacketRecord {
        protocol,
        start_us: d.block.start_us(),
        end_us: d.block.end_us(),
        snr_db: d.block.peak.snr_db(),
        channel: v.and_then(|v| v.channel),
        info: PacketInfo::DetectedOnly {
            confidence: v.map(|v| v.confidence).unwrap_or(0.0),
        },
    }
}

/// 802.11 analyzer: full demodulation of the peak block.
pub struct WifiAnalyzer;

impl Analyzer for WifiAnalyzer {
    fn name(&self) -> &str {
        "analyze:wifi-demod"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Wifi
    }

    fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord> {
        let mut rec = base_record(d, Protocol::Wifi);
        match rfd_phy::wifi::demodulate(&d.block.samples, d.block.sample_rate) {
            Some(rx) => {
                let frame = rx.frame.as_ref();
                rec.info = PacketInfo::Wifi {
                    rate: rx.header.rate,
                    kind: frame.map(|f| f.kind),
                    src: frame.and_then(|f| f.addr2),
                    dst: frame.map(|f| f.addr1),
                    seq: frame.map(|f| f.seq),
                    psdu_len: rx.psdu.len(),
                    fcs_ok: rx.fcs_ok,
                };
            }
            None => {
                // Leave the DetectedOnly record: the tentative classification
                // stands, demodulation failed (false positive or too weak).
            }
        }
        vec![rec]
    }
}

/// Bluetooth analyzer: runs the channel receiver on the dispatched block.
///
/// With a channel hint from a phase/frequency detector only that channel's
/// receiver runs; without one, every covered channel must look at the block
/// (the paper: "since we have seven demodulators for Bluetooth, this means
/// that our efficiency is lower than expected when demodulation is done").
pub struct BtAnalyzer {
    band_center_hz: f64,
    sample_rate: f64,
    piconets: Vec<PiconetId>,
    /// Channels covered by the monitored band.
    channels: Vec<u8>,
}

impl BtAnalyzer {
    /// Creates the analyzer for a monitor band.
    pub fn new(sample_rate: f64, band_center_hz: f64, piconets: Vec<PiconetId>) -> Self {
        let channels = rfd_phy::bluetooth::covered_channels(sample_rate, band_center_hz)
            .map(|(ch, _)| ch)
            .collect();
        Self {
            band_center_hz,
            sample_rate,
            piconets,
            channels,
        }
    }

    fn try_channel(&self, d: &Dispatch, ch: u8) -> Option<PacketRecord> {
        let offset = channel_freq_hz(ch) - self.band_center_hz;
        let mut rx = BtChannelRx::new(ch, self.sample_rate, offset, self.piconets.clone());
        rx.process(&d.block.samples);
        let results = rx.finish();
        let best = results.into_iter().max_by(|a, b| {
            let ka = a.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false);
            let kb = b.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false);
            ka.cmp(&kb)
        })?;
        let mut rec = base_record(d, Protocol::Bluetooth);
        rec.channel = Some(ch);
        rec.info = PacketInfo::Bluetooth {
            lap: best.piconet.lap,
            ptype: best.parsed.as_ref().map(|p| p.ptype),
            payload_len: best.parsed.as_ref().map(|p| p.payload.len()).unwrap_or(0),
            crc_ok: best.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false),
        };
        Some(rec)
    }
}

impl Analyzer for BtAnalyzer {
    fn name(&self) -> &str {
        "analyze:bt-demod"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Bluetooth
    }

    fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord> {
        let hint = d.vote_for(Protocol::Bluetooth).and_then(|v| v.channel);
        let channels: Vec<u8> = match hint {
            Some(ch) if self.channels.contains(&ch) => vec![ch],
            Some(_) => Vec::new(), // hinted channel outside the band
            None => self.channels.clone(),
        };
        let mut best: Option<PacketRecord> = None;
        for ch in channels {
            if let Some(rec) = self.try_channel(d, ch) {
                let ok = matches!(rec.info, PacketInfo::Bluetooth { crc_ok: true, .. });
                if best.is_none() || ok {
                    best = Some(rec);
                }
                if ok {
                    break;
                }
            }
        }
        vec![best.unwrap_or_else(|| base_record(d, Protocol::Bluetooth))]
    }
}

/// 802.15.4 analyzer.
pub(crate) struct ZigbeeAnalyzer {
    band_center_hz: f64,
    zigbee_center_hz: f64,
}

impl ZigbeeAnalyzer {
    /// Creates the analyzer; `zigbee_center_hz` is where the 802.15.4
    /// channel sits relative to the 2.4 GHz band start.
    pub fn new(band_center_hz: f64, zigbee_center_hz: f64) -> Self {
        Self {
            band_center_hz,
            zigbee_center_hz,
        }
    }
}

impl Analyzer for ZigbeeAnalyzer {
    fn name(&self) -> &str {
        "analyze:zigbee-demod"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Zigbee
    }

    fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord> {
        let mut rec = base_record(d, Protocol::Zigbee);
        let fs = d.block.sample_rate;
        let spc = (fs / rfd_phy::zigbee::CHIP_RATE).round() as usize;
        let offset = self.zigbee_center_hz - self.band_center_hz;
        let shifted;
        let samples: &[rfd_dsp::Complex32] = if offset.abs() > 1.0 {
            shifted = rfd_dsp::nco::frequency_shift(&d.block.samples, -offset, fs);
            &shifted
        } else {
            &d.block.samples
        };
        if spc >= 2 && (fs - spc as f64 * rfd_phy::zigbee::CHIP_RATE).abs() < 1.0 {
            if let Some(frame) = rfd_phy::zigbee::demodulate(samples, spc) {
                rec.info = PacketInfo::Zigbee {
                    payload_len: frame.payload.len(),
                };
            }
        }
        vec![rec]
    }
}

/// Microwave analyzer: verifies the constant-envelope signature before
/// confirming the burst (the detection stage tolerates false positives; the
/// analyzer is where they die).
pub struct MicrowaveAnalyzer;

impl MicrowaveAnalyzer {
    /// Coefficient of variation of |z| above which the burst is not a
    /// constant-envelope emission (band-limited 802.11 chips ripple hard;
    /// magnetron CW does not).
    pub(crate) const MAX_ENVELOPE_CV: f32 = 0.15;

    fn envelope_cv(samples: &[rfd_dsp::Complex32]) -> f32 {
        if samples.len() < 16 {
            return f32::INFINITY;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|z| z.abs() as f64).sum::<f64>() / n;
        if mean <= 0.0 {
            return f32::INFINITY;
        }
        let var = samples
            .iter()
            .map(|z| (z.abs() as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        (var.sqrt() / mean) as f32
    }
}

impl Analyzer for MicrowaveAnalyzer {
    fn name(&self) -> &str {
        "analyze:microwave"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Microwave
    }

    fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord> {
        let mut rec = base_record(d, Protocol::Microwave);
        let cv = Self::envelope_cv(d.block.peak_samples());
        if cv <= Self::MAX_ENVELOPE_CV {
            rec.info = PacketInfo::Microwave;
        }
        // Otherwise keep the DetectedOnly record — a tentative timing match
        // the envelope evidence does not support.
        vec![rec]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Peak, PeakBlock};
    use crate::dispatch::Vote;
    use std::sync::Arc;

    /// Where the test peaks sit in the stream: far from zero, so a record
    /// stamped relative to its own samples cannot pass for one stamped with
    /// its peak's start.
    const PEAK_AT: u64 = 1_234_567;

    fn dispatch_for(
        samples: Vec<rfd_dsp::Complex32>,
        protocol: Protocol,
        channel: Option<u8>,
    ) -> Dispatch {
        let n = samples.len() as u64;
        Dispatch {
            seq: 0,
            block: PeakBlock {
                peak: Peak {
                    id: 0,
                    start: PEAK_AT,
                    end: PEAK_AT + n,
                    mean_power: 1.0,
                    noise_floor: 1e-4,
                },
                samples: Arc::new(samples),
                sample_start: PEAK_AT,
                sample_rate: 8e6,
                ingest: None,
            },
            votes: vec![Vote {
                protocol,
                confidence: 0.9,
                channel,
                range: None,
            }],
        }
    }

    /// The ordering contract of [`Analyzer::analyze`].
    fn assert_stamped_with_peak_start(recs: &[PacketRecord], d: &Dispatch) {
        assert!(!recs.is_empty());
        for r in recs {
            assert_eq!(r.start_us, d.block.start_us());
        }
    }

    #[test]
    fn wifi_analyzer_decodes_a_frame() {
        use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
        use rfd_phy::wifi::modulator::{modulate, WifiTxConfig};
        let psdu = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            3,
            icmp_echo_body(3, 80),
        )
        .to_bytes();
        let w = modulate(&psdu, WifiTxConfig::default());
        let at8 = rfd_dsp::resample::resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
        let d = dispatch_for(at8, Protocol::Wifi, None);
        let recs = WifiAnalyzer.analyze(&d);
        assert_eq!(recs.len(), 1);
        assert_stamped_with_peak_start(&recs, &d);
        match &recs[0].info {
            PacketInfo::Wifi { fcs_ok, seq, .. } => {
                assert!(fcs_ok);
                assert_eq!(*seq, Some(3));
            }
            other => panic!("expected decoded wifi, got {other:?}"),
        }
    }

    #[test]
    fn wifi_analyzer_falls_back_to_detected_only() {
        let noise: Vec<rfd_dsp::Complex32> = (0..30_000)
            .map(|i| rfd_dsp::Complex32::cis(i as f32 * 1.1).scale(0.3))
            .collect();
        let d = dispatch_for(noise, Protocol::Wifi, None);
        let recs = WifiAnalyzer.analyze(&d);
        assert!(matches!(recs[0].info, PacketInfo::DetectedOnly { .. }));
        assert_stamped_with_peak_start(&recs, &d);
    }

    #[test]
    fn bt_analyzer_uses_channel_hint() {
        use rfd_phy::bluetooth::gfsk::{modulate, BtTxConfig};
        use rfd_phy::bluetooth::packet::{BtPacket, BtPacketType};
        let pkt = BtPacket::new(0x9E8B33, 0x47, 1, BtPacketType::Dh1, 4, vec![9; 15]);
        let w = modulate(&pkt, BtTxConfig { sample_rate: 8e6 });
        // Channel 37 = +2 MHz from a 37 MHz band center.
        let mut sig = vec![rfd_dsp::Complex32::ZERO; 300];
        sig.extend(rfd_dsp::nco::frequency_shift(&w.samples, 2e6, 8e6));
        sig.extend(vec![rfd_dsp::Complex32::ZERO; 300]);
        let d = dispatch_for(sig, Protocol::Bluetooth, Some(37));
        let mut az = BtAnalyzer::new(
            8e6,
            37e6,
            vec![PiconetId {
                lap: 0x9E8B33,
                uap: 0x47,
            }],
        );
        let recs = az.analyze(&d);
        match &recs[0].info {
            PacketInfo::Bluetooth {
                crc_ok,
                payload_len,
                ..
            } => {
                assert!(crc_ok);
                assert_eq!(*payload_len, 15);
            }
            other => panic!("expected decoded bt, got {other:?}"),
        }
        assert_eq!(recs[0].channel, Some(37));
        assert_stamped_with_peak_start(&recs, &d);
    }

    #[test]
    fn bt_and_zigbee_analyzers_fall_back_to_detected_only() {
        let noise: Vec<rfd_dsp::Complex32> = (0..6_000)
            .map(|i| rfd_dsp::Complex32::cis(i as f32 * 1.1).scale(0.3))
            .collect();
        let d = dispatch_for(noise.clone(), Protocol::Bluetooth, None);
        let recs = BtAnalyzer::new(8e6, 37e6, Vec::new()).analyze(&d);
        assert!(matches!(recs[0].info, PacketInfo::DetectedOnly { .. }));
        assert_stamped_with_peak_start(&recs, &d);
        let d = dispatch_for(noise, Protocol::Zigbee, None);
        let recs = ZigbeeAnalyzer::new(37e6, 37e6).analyze(&d);
        assert!(matches!(recs[0].info, PacketInfo::DetectedOnly { .. }));
        assert_stamped_with_peak_start(&recs, &d);
    }

    #[test]
    fn bt_analyzer_scans_all_channels_without_hint() {
        use rfd_phy::bluetooth::gfsk::{modulate, BtTxConfig};
        use rfd_phy::bluetooth::packet::{BtPacket, BtPacketType};
        let pkt = BtPacket::new(0x9E8B33, 0x47, 1, BtPacketType::Dh1, 8, vec![3; 10]);
        let w = modulate(&pkt, BtTxConfig { sample_rate: 8e6 });
        let mut sig = vec![rfd_dsp::Complex32::ZERO; 300];
        sig.extend(rfd_dsp::nco::frequency_shift(&w.samples, -3e6, 8e6)); // ch 32
        sig.extend(vec![rfd_dsp::Complex32::ZERO; 300]);
        let d = dispatch_for(sig, Protocol::Bluetooth, None);
        let mut az = BtAnalyzer::new(
            8e6,
            37e6,
            vec![PiconetId {
                lap: 0x9E8B33,
                uap: 0x47,
            }],
        );
        let recs = az.analyze(&d);
        match &recs[0].info {
            PacketInfo::Bluetooth { crc_ok, .. } => assert!(crc_ok),
            other => panic!("expected decoded bt, got {other:?}"),
        }
        assert_eq!(recs[0].channel, Some(32));
    }

    #[test]
    fn zigbee_analyzer_decodes() {
        let frame = rfd_phy::zigbee::ZigbeeFrame::new(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let w = rfd_phy::zigbee::modulate(&frame, 4);
        let mut sig = vec![rfd_dsp::Complex32::ZERO; 100];
        sig.extend(w.samples);
        sig.extend(vec![rfd_dsp::Complex32::ZERO; 100]);
        let d = dispatch_for(sig, Protocol::Zigbee, None);
        let mut az = ZigbeeAnalyzer::new(37e6, 37e6);
        let recs = az.analyze(&d);
        assert!(matches!(
            recs[0].info,
            PacketInfo::Zigbee { payload_len: 8 }
        ));
        assert_stamped_with_peak_start(&recs, &d);
    }

    #[test]
    fn microwave_analyzer_confirms_constant_envelope() {
        let sig: Vec<rfd_dsp::Complex32> = (0..5000)
            .map(|i| rfd_dsp::Complex32::cis(i as f32 * 0.3))
            .collect();
        let d = dispatch_for(sig, Protocol::Microwave, None);
        let recs = MicrowaveAnalyzer.analyze(&d);
        assert!(matches!(recs[0].info, PacketInfo::Microwave));
        assert_stamped_with_peak_start(&recs, &d);
    }

    #[test]
    fn microwave_analyzer_rejects_rippling_envelope() {
        // Amplitude-modulated signal: not a magnetron.
        let sig: Vec<rfd_dsp::Complex32> = (0..5000)
            .map(|i| {
                let a = 1.0 + 0.8 * (i as f32 * 0.05).sin();
                rfd_dsp::Complex32::cis(i as f32 * 0.3).scale(a)
            })
            .collect();
        let d = dispatch_for(sig, Protocol::Microwave, None);
        let recs = MicrowaveAnalyzer.analyze(&d);
        assert!(matches!(recs[0].info, PacketInfo::DetectedOnly { .. }));
        assert_stamped_with_peak_start(&recs, &d);
    }
}
