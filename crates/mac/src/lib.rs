//! # rfd-mac — link-layer timing simulation
//!
//! The RFDump paper evaluates against live traffic: `ping` unicast flows
//! (data + SIFS-spaced MAC ACKs), broadcast floods (DIFS + k·slot spacing),
//! `l2ping` Bluetooth exchanges in 625 µs TDD slots, and background sources
//! like beacons and microwave ovens. This crate reproduces those workloads
//! as *timed transmission schedules*: each simulator emits [`TxEvent`]s
//! (who transmits what, when) which `rfd-ether` then renders into a single
//! mixed sample stream with ground truth attached.
//!
//! The timing grammars implemented here are exactly the features RFDump's
//! protocol-specific timing detectors look for (paper §3.2 and Table 2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bluetooth_tdd;
pub mod wifi_dcf;
pub mod zigbee_csma;

pub use bluetooth_tdd::{L2PingConfig, L2PingSim};
pub use wifi_dcf::{DcfConfig, WifiDcfSim};
pub use zigbee_csma::{ZigbeeConfig, ZigbeeSim};

use rfd_phy::bluetooth::packet::BtPacket;
use rfd_phy::microwave::MicrowaveConfig;
use rfd_phy::wifi::plcp::WifiRate;
use rfd_phy::zigbee::ZigbeeFrame;
use rfd_phy::Protocol;

/// Identifies a transmitting node in a scenario.
pub type NodeId = u16;

/// What a node transmits.
#[derive(Debug, Clone)]
pub enum TxContent {
    /// An 802.11b PPDU.
    Wifi {
        /// PSDU bytes (MAC frame incl. FCS).
        psdu: Vec<u8>,
        /// PSDU rate.
        rate: WifiRate,
    },
    /// A Bluetooth baseband packet on an RF channel.
    Bluetooth {
        /// The packet.
        packet: BtPacket,
        /// RF channel 0-78 chosen by the hop sequence.
        channel: u8,
    },
    /// An 802.15.4 frame.
    Zigbee {
        /// The frame.
        frame: ZigbeeFrame,
    },
    /// A microwave-oven emission burst window.
    Microwave {
        /// Emission parameters.
        config: MicrowaveConfig,
        /// How long the oven runs, in microseconds (it bursts at the AC
        /// rate within this window).
        duration_us: f64,
    },
}

impl TxContent {
    /// The protocol tag of this content.
    pub fn protocol(&self) -> Protocol {
        match self {
            TxContent::Wifi { .. } => Protocol::Wifi,
            TxContent::Bluetooth { .. } => Protocol::Bluetooth,
            TxContent::Zigbee { .. } => Protocol::Zigbee,
            TxContent::Microwave { .. } => Protocol::Microwave,
        }
    }

    /// Airtime of this transmission in microseconds.
    pub fn airtime_us(&self) -> f64 {
        match self {
            TxContent::Wifi { psdu, rate } => rfd_phy::wifi::frame_airtime_us(psdu.len(), *rate),
            TxContent::Bluetooth { packet, .. } => packet.airtime_us(),
            TxContent::Zigbee { frame } => frame.airtime_us(),
            TxContent::Microwave { duration_us, .. } => *duration_us,
        }
    }
}

/// One scheduled transmission.
#[derive(Debug, Clone)]
pub struct TxEvent {
    /// Transmitting node.
    pub node: NodeId,
    /// Start time in microseconds from scenario start.
    pub start_us: f64,
    /// What is transmitted.
    pub content: TxContent,
    /// Scenario-unique packet id (for ground-truth matching).
    pub id: u64,
    /// Free-form tag (e.g. "echo-req", "ack", "beacon").
    pub tag: &'static str,
}

impl TxEvent {
    /// End time in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.content.airtime_us()
    }
}

/// Merges event lists from several simulators into one time-sorted schedule,
/// reassigning unique ids.
pub fn merge_schedules(mut lists: Vec<Vec<TxEvent>>) -> Vec<TxEvent> {
    let mut all: Vec<TxEvent> = lists.drain(..).flatten().collect();
    all.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    for (i, ev) in all.iter_mut().enumerate() {
        ev.id = i as u64;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};

    fn wifi_event(start_us: f64, len: usize) -> TxEvent {
        let psdu = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            0,
            icmp_echo_body(0, len),
        )
        .to_bytes();
        TxEvent {
            node: 1,
            start_us,
            content: TxContent::Wifi {
                psdu,
                rate: WifiRate::R1,
            },
            id: 0,
            tag: "test",
        }
    }

    #[test]
    fn merge_sorts_and_renumbers() {
        let a = vec![wifi_event(100.0, 10), wifi_event(5000.0, 10)];
        let b = vec![wifi_event(2000.0, 10)];
        let merged = merge_schedules(vec![a, b]);
        assert_eq!(merged.len(), 3);
        assert!(merged.windows(2).all(|w| w[0].start_us <= w[1].start_us));
        assert_eq!(
            merged.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn airtime_matches_phy() {
        let e = wifi_event(0.0, 500);
        // 24 hdr + 500 body + 4 FCS = 528-byte PSDU at 1 Mbps + 192 us PLCP.
        assert!((e.content.airtime_us() - (192.0 + 528.0 * 8.0)).abs() < 1e-6);
    }
}
