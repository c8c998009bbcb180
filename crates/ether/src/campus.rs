//! A synthesized "real-world" campus trace (paper §5.3, Table 4).
//!
//! The paper's real-world validation records a few seconds of a CS-building
//! Wi-Fi environment: 646 802.11b frames with long PLCP headers, 106 of
//! which are 1 Mbps frames (beacons, ARPs, some unicast) and the rest
//! 2/5.5/11 Mbps traffic that the 8 MHz USRP can only see the 1 Mbps PLCP
//! headers of. Table 4 then measures what fraction of trace *samples* an
//! ideal 1 Mbps filter, an ideal headers-only filter, and the DBPSK phase
//! detector would forward.
//!
//! This builder reproduces the *shape* of that trace at a configurable
//! scale: the default keeps the paper's two airtime fractions
//! (1 Mbps-only symbols ≈ 4 %, PLCP headers ≈ 0.35 % of samples) and the
//! 1 Mbps/total packet ratio (≈ 16 %), at 1/18 of the duration so the trace
//! fits comfortably in memory.

use crate::scene::{EtherTrace, Scene};
use rfd_dsp::rng::Xoshiro256;
use rfd_mac::{TxContent, TxEvent};
use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
use rfd_phy::wifi::plcp::WifiRate;
use rfd_phy::wifi::{frame_airtime_us, SIFS_US};

/// Campus trace parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampusConfig {
    /// Trace duration (µs). Default 2 s.
    pub duration_us: f64,
    /// 1 Mbps data frames (the "ideal 1 Mbps only" population).
    pub n_r1: usize,
    /// Payload bytes of the 1 Mbps frames (paper-era ~1500 B frames).
    pub r1_payload: usize,
    /// 2 Mbps frames.
    pub n_r2: usize,
    /// 5.5 Mbps frames.
    pub n_r55: usize,
    /// 11 Mbps frames.
    pub n_r11: usize,
    /// Fraction of higher-rate frames that are unicast and get a SIFS ACK
    /// (the ACK is sent at the same rate and counts as a frame).
    pub acked_fraction: f64,
    /// SNR of all stations (dB over band noise).
    pub snr_db: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        Self {
            duration_us: 2_000_000.0,
            n_r1: 6,
            r1_payload: 1464, // 1492-byte PSDU -> ~12 ms at 1 Mbps
            n_r2: 10,
            n_r55: 10,
            n_r11: 10,
            acked_fraction: 0.5,
            snr_db: 25.0,
            seed: 2009,
        }
    }
}

/// Ideal-filter expectations for a schedule (Table 4 rows), as fractions of
/// total trace samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampusExpectations {
    /// Total 802.11 frames (PLCP headers) in the trace.
    pub n_headers: usize,
    /// Frames entirely at 1 Mbps.
    pub n_r1_frames: usize,
    /// Fraction of samples an ideal "1 Mbps frames only" filter passes.
    pub ideal_r1_fraction: f64,
    /// Fraction of samples an ideal "PLCP preamble+header only" filter
    /// passes.
    pub ideal_headers_fraction: f64,
}

/// Builds the campus schedule. Returns the events and the ideal-filter
/// expectations.
pub(crate) fn campus_schedule(cfg: &CampusConfig) -> (Vec<TxEvent>, CampusExpectations) {
    let mut rng = Xoshiro256::new(cfg.seed);
    let bssid = MacAddr::station(0);
    let mut events: Vec<TxEvent> = Vec::new();
    let mut id = 0u64;
    let mut push = |events: &mut Vec<TxEvent>, node, start_us, psdu: Vec<u8>, rate, tag| {
        events.push(TxEvent {
            node,
            start_us,
            content: TxContent::Wifi { psdu, rate },
            id: {
                id += 1;
                id - 1
            },
            tag,
        });
    };

    // Build the population of (rate, payload, acked) frames.
    struct Spec {
        rate: WifiRate,
        payload: usize,
        acked: bool,
        tag: &'static str,
    }
    let mut specs: Vec<Spec> = Vec::new();
    for _ in 0..cfg.n_r1 {
        specs.push(Spec {
            rate: WifiRate::R1,
            payload: cfg.r1_payload,
            acked: false,
            tag: "r1-data",
        });
    }
    let mut higher = Vec::new();
    for _ in 0..cfg.n_r2 {
        higher.push(WifiRate::R2);
    }
    for _ in 0..cfg.n_r55 {
        higher.push(WifiRate::R5_5);
    }
    for _ in 0..cfg.n_r11 {
        higher.push(WifiRate::R11);
    }
    for rate in higher {
        let payload = 200 + rng.next_range(1000) as usize;
        let acked = rng.next_f64() < cfg.acked_fraction;
        specs.push(Spec {
            rate,
            payload,
            acked,
            tag: "hi-data",
        });
    }

    // Place frames at jittered, non-overlapping times across the duration.
    let total_air: f64 = specs
        .iter()
        .map(|s| {
            let psdu = s.payload + 28;
            let mut t = frame_airtime_us(psdu, s.rate);
            if s.acked {
                t += SIFS_US + frame_airtime_us(14, s.rate);
            }
            t
        })
        .sum();
    assert!(
        total_air < cfg.duration_us * 0.9,
        "campus config oversubscribed: {total_air} of {} us",
        cfg.duration_us
    );
    let mut gap_budget = cfg.duration_us - total_air - 1.0; // 1 us margin vs f64 rounding
    let mut cursor = 0.0f64;
    let n_specs = specs.len();
    for (i, s) in specs.iter().enumerate() {
        // Uniform-ish idle gap before each frame, never exceeding what is
        // left of the idle budget.
        let remaining_specs = (n_specs - i) as f64;
        let share = gap_budget / remaining_specs;
        let gap = (share * (0.5 + rng.next_f64())).min(gap_budget);
        gap_budget -= gap;
        cursor += gap;
        let node = 1 + (rng.next_range(6) as u16);
        let frame = MacFrame::data(
            MacAddr::station(node),
            if s.acked {
                MacAddr::station(7)
            } else {
                MacAddr::BROADCAST
            },
            bssid,
            i as u16,
            icmp_echo_body(i as u16, s.payload),
        );
        let psdu = frame.to_bytes();
        let air = frame_airtime_us(psdu.len(), s.rate);
        push(&mut events, node, cursor, psdu, s.rate, s.tag);
        cursor += air;
        if s.acked {
            let ack = MacFrame::ack(MacAddr::station(node)).to_bytes();
            let ack_air = frame_airtime_us(ack.len(), s.rate);
            cursor += SIFS_US;
            push(&mut events, 7, cursor, ack, s.rate, "hi-ack");
            cursor += ack_air;
        }
    }

    // Expectations.
    let mut r1_air = 0.0f64;
    let mut hdr_air = 0.0f64;
    let mut n_r1_frames = 0usize;
    for e in &events {
        if let TxContent::Wifi { psdu, rate } = &e.content {
            hdr_air += 192.0;
            if *rate == WifiRate::R1 {
                n_r1_frames += 1;
                r1_air += frame_airtime_us(psdu.len(), *rate);
            }
        }
    }
    let exp = CampusExpectations {
        n_headers: events.len(),
        n_r1_frames,
        ideal_r1_fraction: r1_air / cfg.duration_us,
        ideal_headers_fraction: hdr_air / cfg.duration_us,
    };
    (events, exp)
}

/// Renders the campus trace on the paper's 8 MHz band.
pub fn campus_trace(cfg: &CampusConfig) -> (EtherTrace, CampusExpectations) {
    let (events, exp) = campus_schedule(cfg);
    let noise_power = 1e-3f32;
    let mut scene = Scene::new(noise_power, cfg.seed);
    let gain_db = cfg.snr_db + rfd_dsp::energy::power_to_db(noise_power);
    for node in 0..16u16 {
        scene.set_node(node, gain_db, (node as f64 - 4.0) * 800.0);
    }
    let trace = scene.render(&events, cfg.duration_us);
    (trace, exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let (events, exp) = campus_schedule(&CampusConfig::default());
        // Paper ratios: 106/646 = 16.4% of frames at 1 Mbps; ideal filters
        // pass 3.97% / 0.35% of samples.
        assert_eq!(exp.n_headers, events.len());
        let r1_ratio = exp.n_r1_frames as f64 / exp.n_headers as f64;
        assert!((0.10..=0.22).contains(&r1_ratio), "r1 ratio {r1_ratio}");
        assert!(
            (0.025..=0.055).contains(&exp.ideal_r1_fraction),
            "ideal r1 {}",
            exp.ideal_r1_fraction
        );
        assert!(
            (0.002..=0.006).contains(&exp.ideal_headers_fraction),
            "ideal headers {}",
            exp.ideal_headers_fraction
        );
    }

    #[test]
    fn schedule_has_no_overlaps() {
        let (events, _) = campus_schedule(&CampusConfig::default());
        for w in events.windows(2) {
            assert!(w[1].start_us >= w[0].end_us() - 1e-6);
        }
    }

    #[test]
    fn frames_fit_in_duration() {
        let cfg = CampusConfig::default();
        let (events, _) = campus_schedule(&cfg);
        assert!(events.last().unwrap().end_us() <= cfg.duration_us);
    }

    #[test]
    fn acks_follow_sifs() {
        let (events, _) = campus_schedule(&CampusConfig::default());
        for w in events.windows(2) {
            if w[1].tag == "hi-ack" {
                let gap = w[1].start_us - w[0].end_us();
                assert!((gap - SIFS_US).abs() < 1e-6, "gap {gap}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn oversubscription_panics() {
        let cfg = CampusConfig {
            duration_us: 100_000.0,
            ..Default::default()
        };
        let _ = campus_schedule(&cfg);
    }
}
