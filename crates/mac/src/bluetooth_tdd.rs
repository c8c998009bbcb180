//! Bluetooth TDD slotting and the `l2ping` workload.
//!
//! Bluetooth BR divides time into 625 µs slots (1600/s); the master
//! transmits in even slots, the slave answers in odd slots, and multi-slot
//! packets (DH3/DH5) occupy 3 or 5 consecutive slots. The paper's Bluetooth
//! microbenchmark sends `l2ping` echoes with **varying sizes so the sequence
//! number of each packet can be recovered from its size** (§5.1.1) — the
//! trick we reproduce here so ground truth survives the 8-of-79-channel
//! bottleneck.

use crate::{NodeId, TxContent, TxEvent};
use rfd_phy::bluetooth::hop::{HopSequence, SLOT_US};
use rfd_phy::bluetooth::packet::{BtPacket, BtPacketType};

/// `l2ping` workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct L2PingConfig {
    /// Piconet LAP.
    pub lap: u32,
    /// Piconet UAP.
    pub uap: u8,
    /// Master node id.
    pub master: NodeId,
    /// Slave node id.
    pub slave: NodeId,
    /// Number of echo request/response pairs.
    pub count: usize,
    /// Slots between the end of one exchange and the next request
    /// (idle gap; `l2ping` default pace is ~1/s but the paper floods).
    pub gap_slots: u32,
    /// Packet type used for the echoes.
    pub ptype: BtPacketType,
    /// Smallest payload size; sizes cycle `base + seq % span` so that the
    /// size identifies the sequence number (paper: 225-339 byte DH5s).
    pub size_base: usize,
    /// Size span for the sequence-in-size encoding.
    pub size_span: usize,
    /// Initial master clock (CLK27-1).
    pub start_clock: u32,
}

impl Default for L2PingConfig {
    fn default() -> Self {
        Self {
            lap: 0x9E8B33,
            uap: 0x47,
            master: 10,
            slave: 11,
            count: 100,
            gap_slots: 2,
            ptype: BtPacketType::Dh5,
            size_base: 225,
            size_span: 114, // 225..339 inclusive of both ends minus one
            start_clock: 0,
        }
    }
}

/// The TDD simulator for an `l2ping` exchange.
#[derive(Debug)]
pub struct L2PingSim {
    cfg: L2PingConfig,
    hop: HopSequence,
}

impl L2PingSim {
    /// Creates the simulator.
    pub fn new(cfg: L2PingConfig) -> Self {
        let address = cfg.lap | ((cfg.uap as u32 & 0xF) << 24);
        Self {
            cfg,
            hop: HopSequence::new(address),
        }
    }

    /// Payload size encoding the sequence number (paper §5.1.1).
    pub(crate) fn size_for_seq(&self, seq: usize) -> usize {
        self.cfg.size_base + seq % self.cfg.size_span.max(1)
    }

    /// Runs the exchange, producing a schedule of master requests and slave
    /// replies with correct slot timing and hop channels.
    pub fn run(&mut self) -> Vec<TxEvent> {
        let cfg = self.cfg;
        let slots_per_pkt = cfg.ptype.slots() as u32;
        let mut events = Vec::with_capacity(cfg.count * 2);
        // Clock advances 2 per slot.
        let mut slot = (cfg.start_clock >> 1) & !1; // even (master) slot
        let mut id = 0u64;
        for seq in 0..cfg.count {
            let size = self.size_for_seq(seq);
            // Master -> slave request in an even slot.
            let clk = slot * 2;
            let ch = self.hop.channel(clk);
            let payload: Vec<u8> = (0..size).map(|i| ((i + seq) % 251) as u8).collect();
            let pkt = BtPacket::new(cfg.lap, cfg.uap, 1, cfg.ptype, clk, payload);
            events.push(TxEvent {
                node: cfg.master,
                start_us: slot as f64 * SLOT_US,
                content: TxContent::Bluetooth {
                    packet: pkt,
                    channel: ch,
                },
                id: {
                    id += 1;
                    id - 1
                },
                tag: "l2ping-req",
            });
            // Slave replies in the next slave (odd) slot after the request
            // ends: request occupies `slots_per_pkt` slots.
            let mut reply_slot = slot + slots_per_pkt;
            if reply_slot.is_multiple_of(2) {
                reply_slot += 1;
            }
            let rclk = reply_slot * 2;
            let rch = self.hop.channel(rclk);
            let rpayload: Vec<u8> = (0..size).map(|i| ((i + seq) % 251) as u8).collect();
            let rpkt = BtPacket::new(cfg.lap, cfg.uap, 1, cfg.ptype, rclk, rpayload);
            events.push(TxEvent {
                node: cfg.slave,
                start_us: reply_slot as f64 * SLOT_US,
                content: TxContent::Bluetooth {
                    packet: rpkt,
                    channel: rch,
                },
                id: {
                    id += 1;
                    id - 1
                },
                tag: "l2ping-rep",
            });
            // Next request: after the reply and the configured gap, on an
            // even slot.
            let mut next = reply_slot + slots_per_pkt + cfg.gap_slots;
            if next % 2 == 1 {
                next += 1;
            }
            slot = next;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_even_slave_odd_slots() {
        let mut sim = L2PingSim::new(L2PingConfig {
            count: 10,
            ..Default::default()
        });
        let events = sim.run();
        assert_eq!(events.len(), 20);
        for e in &events {
            let slot = (e.start_us / SLOT_US).round() as u64;
            assert!(
                (e.start_us - slot as f64 * SLOT_US).abs() < 1e-9,
                "slot aligned"
            );
            match e.tag {
                "l2ping-req" => assert_eq!(slot % 2, 0, "master in even slot"),
                "l2ping-rep" => assert_eq!(slot % 2, 1, "slave in odd slot"),
                _ => panic!("unexpected tag"),
            }
        }
    }

    #[test]
    fn starts_are_multiples_of_625us_apart() {
        // The paper's Bluetooth timing detector: packets start at
        // t_prev + m * 625 us.
        let mut sim = L2PingSim::new(L2PingConfig {
            count: 20,
            ..Default::default()
        });
        let events = sim.run();
        for w in events.windows(2) {
            let gap = w[1].start_us - w[0].start_us;
            let m = gap / SLOT_US;
            assert!((m - m.round()).abs() < 1e-9, "gap {gap} not slot-aligned");
            assert!(m.round() >= 1.0);
        }
    }

    #[test]
    fn dh5_occupies_five_slots_without_overlap() {
        let mut sim = L2PingSim::new(L2PingConfig {
            count: 5,
            ..Default::default()
        });
        let events = sim.run();
        for w in events.windows(2) {
            assert!(
                w[1].start_us >= w[0].end_us(),
                "TDD packets must not overlap"
            );
            // DH5 airtime fits within 5 slots.
            assert!(w[0].content.airtime_us() <= 5.0 * SLOT_US);
        }
    }

    #[test]
    fn sizes_encode_sequence_numbers() {
        let sim = L2PingSim::new(L2PingConfig::default());
        for seq in 0..300 {
            let size = sim.size_for_seq(seq);
            assert!((225..=338).contains(&size));
            assert_eq!(size - 225, seq % 114);
        }
    }

    #[test]
    fn hops_vary_across_packets() {
        let mut sim = L2PingSim::new(L2PingConfig {
            count: 50,
            ..Default::default()
        });
        let events = sim.run();
        let mut channels: Vec<u8> = events
            .iter()
            .map(|e| match &e.content {
                TxContent::Bluetooth { channel, .. } => *channel,
                _ => unreachable!(),
            })
            .collect();
        channels.sort_unstable();
        channels.dedup();
        assert!(
            channels.len() > 20,
            "only {} distinct channels",
            channels.len()
        );
    }

    #[test]
    fn clock_matches_slot() {
        // Whitening is seeded by the clock; the packet must carry the clock
        // of its transmit slot.
        let mut sim = L2PingSim::new(L2PingConfig {
            count: 3,
            ..Default::default()
        });
        let events = sim.run();
        for e in &events {
            let slot = (e.start_us / SLOT_US).round() as u32;
            match &e.content {
                TxContent::Bluetooth { packet, .. } => assert_eq!(packet.clock, slot * 2),
                _ => unreachable!(),
            }
        }
    }
}
