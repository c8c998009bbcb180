//! Scene rendering: schedule → mixed sample stream + ground truth.

use crate::Band;
use rfd_dsp::complex::mean_power;
use rfd_dsp::energy::power_to_db;
use rfd_dsp::nco::frequency_shift;
use rfd_dsp::resample::resample_windowed_sinc;
use rfd_dsp::rng::{GaussianGen, Xoshiro256};
use rfd_dsp::Complex32;
use rfd_mac::{NodeId, TxContent, TxEvent};
use rfd_phy::bluetooth::gfsk::BtTxConfig;
use rfd_phy::bluetooth::hop::channel_freq_hz;
use rfd_phy::bluetooth::packet::BtPacketType;
use rfd_phy::microwave;
use rfd_phy::wifi::frame::MacFrame;
use rfd_phy::wifi::modulator::WifiTxConfig;
use rfd_phy::wifi::plcp::WifiRate;
use rfd_phy::{Protocol, Waveform};

/// Per-node channel parameters.
#[derive(Debug, Clone, Copy)]
pub struct NodeCfg {
    /// Received power at the monitor relative to unit transmit power, dB
    /// (i.e. negative path loss). SNR is this minus the noise power in dB.
    pub gain_db: f32,
    /// Carrier frequency offset of this transmitter's oscillator (Hz).
    pub cfo_hz: f64,
}

impl Default for NodeCfg {
    fn default() -> Self {
        Self {
            gain_db: 0.0,
            cfo_hz: 0.0,
        }
    }
}

/// Ground-truth details per protocol.
#[derive(Debug, Clone)]
pub enum TruthDetail {
    /// 802.11 frame facts.
    Wifi {
        /// PSDU rate.
        rate: WifiRate,
        /// PSDU length (bytes incl. FCS).
        psdu_len: usize,
        /// MAC sequence number when parseable.
        seq: Option<u16>,
    },
    /// Bluetooth packet facts.
    Bluetooth {
        /// Baseband packet type.
        ptype: BtPacketType,
        /// Payload length in bytes.
        payload_len: usize,
    },
    /// 802.15.4 facts.
    Zigbee {
        /// MAC payload length (bytes, before FCS).
        payload_len: usize,
    },
    /// Microwave burst window.
    Microwave,
}

/// One transmitted packet as the emulator knows it.
#[derive(Debug, Clone)]
pub struct TruthRecord {
    /// Schedule id.
    pub id: u64,
    /// Transmitting node.
    pub node: NodeId,
    /// Protocol.
    pub protocol: Protocol,
    /// First sample index of the transmission in the rendered stream.
    pub start_sample: usize,
    /// One past the last sample index.
    pub end_sample: usize,
    /// Schedule tag ("echo-req", "ack", ...).
    pub tag: &'static str,
    /// Whether the transmission lies fully inside the monitored band (the
    /// 8-of-79 Bluetooth channel bottleneck shows up here).
    pub in_band: bool,
    /// Bluetooth RF channel, if applicable.
    pub channel: Option<u8>,
    /// SNR at the monitor: received power over total in-band noise power,
    /// dB. (Both measured over the monitor bandwidth, like the paper's
    /// USRP-reported SNR.)
    pub snr_db: f32,
    /// Protocol-specific facts.
    pub detail: TruthDetail,
}

impl TruthRecord {
    /// Whether two records overlap in time (a physical collision at the
    /// monitor when both are in band).
    pub(crate) fn overlaps(&self, other: &TruthRecord) -> bool {
        self.start_sample < other.end_sample && other.start_sample < self.end_sample
    }
}

/// The rendered ether: samples + ground truth.
#[derive(Debug, Clone)]
pub struct EtherTrace {
    /// Mixed complex baseband at the monitor rate.
    pub samples: Vec<Complex32>,
    /// Monitor band.
    pub band: Band,
    /// Ground truth, time-sorted.
    pub truth: Vec<TruthRecord>,
    /// Total AWGN power across the band (linear).
    pub noise_power: f32,
}

impl EtherTrace {
    /// Trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.band.sample_rate
    }

    /// Ground-truth records that physically overlap another in-band record
    /// (collisions).
    pub fn collided_ids(&self) -> std::collections::HashSet<u64> {
        let mut out = std::collections::HashSet::new();
        let inband: Vec<&TruthRecord> = self.truth.iter().filter(|t| t.in_band).collect();
        for (i, a) in inband.iter().enumerate() {
            for b in inband.iter().skip(i + 1) {
                if a.overlaps(b) {
                    out.insert(a.id);
                    out.insert(b.id);
                }
                if b.start_sample >= a.end_sample {
                    break;
                }
            }
        }
        out
    }
}

/// A scenario: the monitored band, the participating nodes, and the noise
/// level.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Monitored band.
    pub band: Band,
    /// Per-node channel config; nodes not present use `NodeCfg::default()`.
    pub nodes: std::collections::BTreeMap<NodeId, NodeCfg>,
    /// Total AWGN power across the band (linear). 0 disables noise.
    pub noise_power: f32,
    /// Center frequency of Wi-Fi transmissions (defaults to band center —
    /// the monitor sits on the Wi-Fi channel, seeing 8 of its 22 MHz).
    pub wifi_center_hz: f64,
    /// Center frequency of 802.15.4 transmissions.
    pub zigbee_center_hz: f64,
    /// Center frequency offset of microwave interference sweep.
    pub microwave_center_hz: f64,
    /// Seed for noise and random carrier phases.
    pub seed: u64,
}

impl Scene {
    /// A scene on the paper's 8 MHz USRP band with a given noise power.
    pub fn new(noise_power: f32, seed: u64) -> Self {
        let band = Band::usrp_8mhz();
        Self {
            band,
            nodes: Default::default(),
            noise_power,
            wifi_center_hz: band.center_hz,
            zigbee_center_hz: band.center_hz,
            microwave_center_hz: band.center_hz + 1e6,
            seed,
        }
    }

    /// Sets a node's gain (dB) and CFO (Hz).
    pub fn set_node(&mut self, node: NodeId, gain_db: f32, cfo_hz: f64) {
        self.nodes.insert(node, NodeCfg { gain_db, cfo_hz });
    }

    /// Renders a schedule into an [`EtherTrace`]. The stream covers
    /// `[0, horizon_us]`; events extending past the horizon are clipped
    /// (and marked out of band if nothing of them fits).
    pub fn render(&self, events: &[TxEvent], horizon_us: f64) -> EtherTrace {
        let fs = self.band.sample_rate;
        let n = (horizon_us * 1e-6 * fs).ceil() as usize;
        let mut samples = vec![Complex32::ZERO; n];
        let mut truth = Vec::with_capacity(events.len());
        let mut phase_rng = Xoshiro256::new(self.seed ^ 0xC0FF_EE00);

        for ev in events {
            let cfg = self.nodes.get(&ev.node).copied().unwrap_or_default();
            let gain = 10f32.powf(cfg.gain_db / 20.0);
            let (wave, carrier_hz, half_width, channel, detail) = self.render_content(ev);
            let offset = self.band.offset(carrier_hz) + cfg.cfo_hz;
            let in_band = self
                .band
                .contains(carrier_hz, half_width.min(fs / 2.0 * 0.99));
            // Signals whose center is way outside the band contribute
            // nothing; skip rendering but keep the truth record.
            let renderable = offset.abs() < fs / 2.0 + half_width;

            let start_sample = (ev.start_us * 1e-6 * fs).round() as usize;
            let mut rendered_power = 0.0f32;
            let end_sample;
            if renderable && start_sample < n {
                // Bring to monitor rate.
                let at_fs = if (wave.sample_rate - fs).abs() < 1.0 {
                    wave.samples
                } else {
                    resample_windowed_sinc(&wave.samples, wave.sample_rate, fs, 8)
                };
                // Random carrier phase + frequency offset.
                let mut shifted = frequency_shift(&at_fs, offset, fs);
                let ph = Complex32::cis((phase_rng.next_f32()) * std::f32::consts::TAU);
                for z in shifted.iter_mut() {
                    *z = *z * ph * gain;
                }
                rendered_power = mean_power(&shifted);
                end_sample = (start_sample + shifted.len()).min(n);
                for (k, z) in shifted.iter().take(end_sample - start_sample).enumerate() {
                    samples[start_sample + k] += *z;
                }
            } else {
                // Still compute the nominal end for the record.
                let len = (ev.content.airtime_us() * 1e-6 * fs).round() as usize;
                end_sample = (start_sample + len).min(n.max(start_sample));
            }

            let snr_db = if self.noise_power > 0.0 && rendered_power > 0.0 {
                power_to_db(rendered_power) - power_to_db(self.noise_power)
            } else if rendered_power > 0.0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };

            truth.push(TruthRecord {
                id: ev.id,
                node: ev.node,
                protocol: ev.content.protocol(),
                start_sample,
                end_sample,
                tag: ev.tag,
                in_band,
                channel,
                snr_db,
                detail,
            });
        }

        // AWGN over the whole band.
        if self.noise_power > 0.0 {
            GaussianGen::new(self.seed).add_awgn(&mut samples, self.noise_power);
        }

        truth.sort_by_key(|t| t.start_sample);
        EtherTrace {
            samples,
            band: self.band,
            truth,
            noise_power: self.noise_power,
        }
    }

    /// Renders one event's waveform at its natural rate and returns
    /// `(waveform, carrier_hz, half_width_hz, bt_channel, detail)`.
    fn render_content(&self, ev: &TxEvent) -> (Waveform, f64, f64, Option<u8>, TruthDetail) {
        match &ev.content {
            TxContent::Wifi { psdu, rate } => {
                let wave = rfd_phy::wifi::modulate(psdu, WifiTxConfig { rate: *rate });
                let seq = MacFrame::from_bytes(psdu).map(|f| f.seq);
                (
                    wave,
                    self.wifi_center_hz,
                    rfd_phy::wifi::CHANNEL_WIDTH_HZ / 2.0,
                    None,
                    TruthDetail::Wifi {
                        rate: *rate,
                        psdu_len: psdu.len(),
                        seq,
                    },
                )
            }
            TxContent::Bluetooth { packet, channel } => {
                let wave = rfd_phy::bluetooth::modulate(
                    packet,
                    BtTxConfig {
                        sample_rate: self.band.sample_rate,
                    },
                );
                (
                    wave,
                    channel_freq_hz(*channel),
                    rfd_phy::bluetooth::CHANNEL_WIDTH_HZ / 2.0,
                    Some(*channel),
                    TruthDetail::Bluetooth {
                        ptype: packet.ptype,
                        payload_len: packet.payload.len(),
                    },
                )
            }
            TxContent::Zigbee { frame } => {
                let spc = (self.band.sample_rate / rfd_phy::zigbee::CHIP_RATE).round() as usize;
                let wave = rfd_phy::zigbee::modulate(frame, spc.max(2));
                (
                    wave,
                    self.zigbee_center_hz,
                    rfd_phy::zigbee::CHANNEL_WIDTH_HZ / 2.0,
                    None,
                    TruthDetail::Zigbee {
                        payload_len: frame.payload.len(),
                    },
                )
            }
            TxContent::Microwave {
                config,
                duration_us,
            } => {
                let wave = microwave::render(
                    config,
                    self.band.sample_rate,
                    ev.start_us * 1e-6,
                    duration_us * 1e-6,
                );
                (
                    wave,
                    self.microwave_center_hz,
                    config.sweep_hz,
                    None,
                    TruthDetail::Microwave,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_mac::wifi_dcf::{DcfConfig, WifiDcfSim};
    use rfd_mac::L2PingConfig;

    fn wifi_schedule(n: usize) -> Vec<TxEvent> {
        let mut sim = WifiDcfSim::new(DcfConfig::default());
        sim.queue_ping_flow(1, 2, n, 100, 8_000.0, 0.0);
        sim.run()
    }

    #[test]
    fn render_produces_energy_where_truth_says() {
        let mut scene = Scene::new(1e-4, 42);
        scene.set_node(1, 0.0, 0.0);
        scene.set_node(2, 0.0, 0.0);
        let events = wifi_schedule(2);
        let horizon = events.last().unwrap().end_us() + 500.0;
        let trace = scene.render(&events, horizon);
        assert_eq!(trace.truth.len(), events.len());
        for t in &trace.truth {
            let seg = &trace.samples[t.start_sample..t.end_sample.min(trace.samples.len())];
            let p = mean_power(seg);
            assert!(p > 0.1, "packet {} power {p}", t.id);
            assert!(t.in_band);
        }
        // The SIFS right after the first packet (before its ACK, which
        // starts 80 samples later) should be near the noise floor.
        let t0 = &trace.truth[0];
        let gap = &trace.samples[t0.end_sample + 20..(t0.end_sample + 70).min(trace.samples.len())];
        assert!(mean_power(gap) < 1e-3, "gap power {}", mean_power(gap));
    }

    #[test]
    fn snr_matches_configuration() {
        let mut scene = Scene::new(1e-3, 7); // noise floor -30 dB
        scene.set_node(1, -10.0, 0.0);
        scene.set_node(2, -10.0, 0.0);
        let events = wifi_schedule(1);
        let trace = scene.render(&events, events.last().unwrap().end_us() + 200.0);
        for t in &trace.truth {
            assert!((t.snr_db - 20.0).abs() < 1.5, "snr {}", t.snr_db);
        }
    }

    #[test]
    fn bluetooth_out_of_band_channels_are_marked() {
        let mut sim = rfd_mac::L2PingSim::new(L2PingConfig {
            count: 40,
            ..Default::default()
        });
        let events = sim.run();
        let scene = Scene::new(1e-4, 3);
        let horizon = events.last().unwrap().end_us() + 1000.0;
        let trace = scene.render(&events, horizon);
        let inb = trace.truth.iter().filter(|t| t.in_band).count();
        let total = trace.truth.len();
        assert_eq!(total, 80);
        // ~8/79 of hops land in band; allow 0..25%.
        assert!(inb < total / 4, "{inb}/{total} in band");
        // Every in-band one is on channels 32..=39.
        for t in trace.truth.iter().filter(|t| t.in_band) {
            let ch = t.channel.unwrap();
            assert!((32..=39).contains(&ch), "channel {ch}");
        }
    }

    #[test]
    fn decoding_the_rendered_wifi_trace_round_trips() {
        // End-to-end: MAC schedule -> ether -> continuous receiver.
        let mut scene = Scene::new(1e-4, 9);
        scene.set_node(1, 0.0, 2e3); // small CFO
        scene.set_node(2, 0.0, -1.5e3);
        let events = wifi_schedule(2);
        let horizon = events.last().unwrap().end_us() + 500.0;
        let trace = scene.render(&events, horizon);
        let mut rx = rfd_phy::wifi::WifiRx::new(trace.band.sample_rate);
        for chunk in trace.samples.chunks(8192) {
            rx.process(chunk);
        }
        let results = rx.take_results();
        let ok = results.iter().filter(|r| r.fcs_ok).count();
        assert_eq!(ok, events.len(), "decoded {ok}/{}", events.len());
    }

    #[test]
    fn decoding_rendered_bluetooth_in_band_packets() {
        let mut sim = rfd_mac::L2PingSim::new(L2PingConfig {
            count: 30,
            ..Default::default()
        });
        let events = sim.run();
        let scene = Scene::new(1e-4, 5);
        let horizon = events.last().unwrap().end_us() + 1000.0;
        let trace = scene.render(&events, horizon);
        let expected: Vec<&TruthRecord> = trace.truth.iter().filter(|t| t.in_band).collect();
        let mut bank = rfd_phy::bluetooth::BtRxBank::for_band(
            trace.band.sample_rate,
            trace.band.center_hz,
            vec![rfd_phy::bluetooth::demod::PiconetId {
                lap: 0x9E8B33,
                uap: 0x47,
            }],
        );
        for chunk in trace.samples.chunks(8192) {
            bank.process(chunk);
        }
        let results = bank.finish();
        let ok = results
            .iter()
            .filter(|r| r.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false))
            .count();
        assert!(
            ok >= expected.len().saturating_sub(1) && !expected.is_empty(),
            "decoded {ok} of {} in-band packets",
            expected.len()
        );
    }

    #[test]
    fn collisions_are_detected_in_truth() {
        use rfd_mac::{TxContent, TxEvent};
        use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
        let mk = |node, start_us, id| TxEvent {
            node,
            start_us,
            content: TxContent::Wifi {
                psdu: MacFrame::data(
                    MacAddr::station(node),
                    MacAddr::BROADCAST,
                    MacAddr::station(0),
                    0,
                    icmp_echo_body(0, 50),
                )
                .to_bytes(),
                rate: WifiRate::R1,
            },
            id,
            tag: "c",
        };
        let events = vec![mk(1, 0.0, 0), mk(2, 100.0, 1), mk(1, 5000.0, 2)];
        let scene = Scene::new(1e-4, 1);
        let trace = scene.render(&events, 12_000.0);
        let collided = trace.collided_ids();
        assert!(collided.contains(&0) && collided.contains(&1));
        assert!(!collided.contains(&2));
    }

    #[test]
    fn microwave_renders_bursts() {
        use rfd_phy::microwave::MicrowaveConfig;
        let ev = TxEvent {
            node: 9,
            start_us: 0.0,
            content: TxContent::Microwave {
                config: MicrowaveConfig::default(),
                duration_us: 40_000.0,
            },
            id: 0,
            tag: "mw",
        };
        let scene = Scene::new(1e-4, 2);
        let trace = scene.render(&[ev], 40_000.0);
        // Expect on/off structure: overall mean power ~ duty * 1.
        let p = mean_power(&trace.samples);
        assert!(p > 0.3 && p < 0.7, "mean power {p}");
    }
}
