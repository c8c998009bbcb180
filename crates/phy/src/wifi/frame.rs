//! 802.11 MAC framing.
//!
//! Enough of the MAC frame format to generate and verify the traffic the
//! paper's microbenchmarks use: data frames (ICMP-echo-like payloads),
//! MAC-level ACKs, beacons, and ARP-like broadcasts — each with a real FCS
//! (CRC-32) so the receiver can verify end-to-end correctness.

use rfd_dsp::coding::crc32;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A deterministic locally-administered address derived from an index.
    pub fn station(idx: u16) -> MacAddr {
        MacAddr([0x02, 0x00, 0xC0, 0xDE, (idx >> 8) as u8, idx as u8])
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The frame types we generate and parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacFrameKind {
    /// Data frame (type 2, subtype 0).
    Data,
    /// Control ACK (type 1, subtype 13).
    Ack,
    /// Management beacon (type 0, subtype 8).
    Beacon,
}

impl MacFrameKind {
    fn frame_control(self) -> u16 {
        // protocol version 0 | type | subtype, little-endian field layout:
        // bits 0-1 version, 2-3 type, 4-7 subtype.
        match self {
            MacFrameKind::Beacon => 8 << 4,
            MacFrameKind::Ack => (1 << 2) | (13 << 4),
            MacFrameKind::Data => 2 << 2,
        }
    }

    fn from_frame_control(fc: u16) -> Option<Self> {
        let ty = (fc >> 2) & 0b11;
        let subtype = (fc >> 4) & 0b1111;
        match (ty, subtype) {
            (0, 8) => Some(MacFrameKind::Beacon),
            (1, 13) => Some(MacFrameKind::Ack),
            (2, 0) => Some(MacFrameKind::Data),
            _ => None,
        }
    }
}

/// A parsed or to-be-built MAC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacFrame {
    /// Frame type.
    pub kind: MacFrameKind,
    /// Duration/ID field (microseconds the medium is reserved).
    pub duration_us: u16,
    /// Receiver address.
    pub addr1: MacAddr,
    /// Transmitter address (absent on ACKs).
    pub addr2: Option<MacAddr>,
    /// BSSID / filtering address (absent on ACKs).
    pub addr3: Option<MacAddr>,
    /// Sequence number (0-4095; absent on ACKs).
    pub seq: u16,
    /// Frame body.
    pub body: Vec<u8>,
}

impl MacFrame {
    /// Builds a data frame.
    pub fn data(src: MacAddr, dst: MacAddr, bssid: MacAddr, seq: u16, body: Vec<u8>) -> Self {
        Self {
            kind: MacFrameKind::Data,
            duration_us: if dst.is_broadcast() { 0 } else { 44 },
            addr1: dst,
            addr2: Some(src),
            addr3: Some(bssid),
            seq: seq & 0x0FFF,
            body,
        }
    }

    /// Builds a MAC-level acknowledgment for a frame from `ra`.
    pub fn ack(ra: MacAddr) -> Self {
        Self {
            kind: MacFrameKind::Ack,
            duration_us: 0,
            addr1: ra,
            addr2: None,
            addr3: None,
            seq: 0,
            body: Vec::new(),
        }
    }

    /// Builds a beacon with a given SSID-like body tag.
    pub fn beacon(src: MacAddr, seq: u16, ssid: &[u8]) -> Self {
        let mut body = vec![0u8; 12]; // timestamp (8) + interval (2) + caps (2)
        body.extend_from_slice(&[0x00, ssid.len() as u8]);
        body.extend_from_slice(ssid);
        Self {
            kind: MacFrameKind::Beacon,
            duration_us: 0,
            addr1: MacAddr::BROADCAST,
            addr2: Some(src),
            addr3: Some(src),
            seq: seq & 0x0FFF,
            body,
        }
    }

    /// True if the frame expects a MAC-level ACK (unicast data).
    pub fn expects_ack(&self) -> bool {
        self.kind == MacFrameKind::Data && !self.addr1.is_broadcast()
    }

    /// Serializes to PSDU bytes including the FCS.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.body.len() + 4);
        out.extend_from_slice(&self.kind.frame_control().to_le_bytes());
        out.extend_from_slice(&self.duration_us.to_le_bytes());
        out.extend_from_slice(&self.addr1.0);
        if self.kind != MacFrameKind::Ack {
            out.extend_from_slice(&self.addr2.expect("non-ACK needs addr2").0);
            out.extend_from_slice(&self.addr3.expect("non-ACK needs addr3").0);
            out.extend_from_slice(&(self.seq << 4).to_le_bytes());
        }
        out.extend_from_slice(&self.body);
        let fcs = crc32(&out);
        out.extend_from_slice(&fcs.to_le_bytes());
        out
    }

    /// Parses PSDU bytes, verifying the FCS. Returns `None` if the FCS is
    /// bad, the frame is truncated, or the type is unknown.
    pub fn from_bytes(psdu: &[u8]) -> Option<Self> {
        if psdu.len() < 14 {
            return None;
        }
        let (data, fcs_bytes) = psdu.split_at(psdu.len() - 4);
        let fcs_rx = u32::from_le_bytes(fcs_bytes.try_into().ok()?);
        if crc32(data) != fcs_rx {
            return None;
        }
        let fc = u16::from_le_bytes(data[0..2].try_into().ok()?);
        let kind = MacFrameKind::from_frame_control(fc)?;
        let duration_us = u16::from_le_bytes(data[2..4].try_into().ok()?);
        let addr1 = MacAddr(data[4..10].try_into().ok()?);
        if kind == MacFrameKind::Ack {
            if data.len() != 10 {
                return None;
            }
            return Some(MacFrame {
                kind,
                duration_us,
                addr1,
                addr2: None,
                addr3: None,
                seq: 0,
                body: Vec::new(),
            });
        }
        if data.len() < 24 {
            return None;
        }
        let addr2 = MacAddr(data[10..16].try_into().ok()?);
        let addr3 = MacAddr(data[16..22].try_into().ok()?);
        let seq = u16::from_le_bytes(data[22..24].try_into().ok()?) >> 4;
        Some(MacFrame {
            kind,
            duration_us,
            addr1,
            addr2: Some(addr2),
            addr3: Some(addr3),
            seq,
            body: data[24..].to_vec(),
        })
    }
}

/// Builds an ICMP-echo-like payload of `payload_len` bytes carrying a
/// sequence number, mimicking the paper's `ping` workloads.
pub fn icmp_echo_body(seq: u16, payload_len: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload_len.max(4));
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(&(payload_len as u16).to_le_bytes());
    while body.len() < payload_len {
        body.push((body.len() % 251) as u8);
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_round_trip() {
        let f = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            1234,
            icmp_echo_body(7, 500),
        );
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 24 + 500 + 4);
        let parsed = MacFrame::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn ack_frame_is_14_bytes() {
        let f = MacFrame::ack(MacAddr::station(3));
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 14); // 10 + FCS
        let parsed = MacFrame::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.kind, MacFrameKind::Ack);
        assert_eq!(parsed.addr1, MacAddr::station(3));
    }

    #[test]
    fn beacon_round_trip() {
        let f = MacFrame::beacon(MacAddr::station(0), 9, b"rfdump-test");
        let parsed = MacFrame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(parsed.kind, MacFrameKind::Beacon);
        assert!(parsed.addr1.is_broadcast());
    }

    #[test]
    fn corrupted_fcs_rejected() {
        let f = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            5,
            vec![1, 2, 3],
        );
        let mut bytes = f.to_bytes();
        bytes[10] ^= 0x40;
        assert!(MacFrame::from_bytes(&bytes).is_none());
    }

    #[test]
    fn truncated_frames_rejected() {
        assert!(MacFrame::from_bytes(&[]).is_none());
        assert!(MacFrame::from_bytes(&[0u8; 8]).is_none());
    }

    #[test]
    fn broadcast_data_expects_no_ack() {
        let bc = MacFrame::data(
            MacAddr::station(1),
            MacAddr::BROADCAST,
            MacAddr::station(0),
            0,
            vec![],
        );
        assert!(!bc.expects_ack());
        let uc = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            0,
            vec![],
        );
        assert!(uc.expects_ack());
    }

    #[test]
    fn icmp_body_embeds_sequence() {
        let b = icmp_echo_body(0xBEEF, 64);
        assert_eq!(b.len(), 64);
        assert_eq!(u16::from_le_bytes([b[0], b[1]]), 0xBEEF);
    }
}
