//! Bluetooth baseband packets.
//!
//! A BR packet is `[access code (72)] [header (54)] [payload (0..2745)]`.
//! The 18-bit header (LT_ADDR, TYPE, FLOW, ARQN, SEQN, 8-bit HEC) is
//! whitened and then rate-1/3 repetition coded. ACL payloads carry a payload
//! header (1 byte for 1-slot packets, 2 bytes for multi-slot), the data, and
//! a CRC-16 seeded from the UAP; DM types additionally pass through the
//! (15,10) 2/3-rate FEC. Whitening runs continuously over header and payload
//! and is seeded from the master clock, which the sniffer does not know — so
//! the receiver brute-forces the 64 possible seeds against the HEC, exactly
//! like real Bluetooth sniffers do.

use super::access_code::AccessCode;
use rfd_dsp::coding::{
    bits_to_bytes_lsb, bits_to_u64_lsb, bytes_to_bits_lsb, hamming1510_decode, hamming1510_encode,
    repeat3_decode, repeat3_encode, u64_to_bits_lsb, Crc, Whitener,
};

/// ACL packet types we implement (TYPE field values from the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtPacketType {
    /// POLL: no payload, 1 slot.
    Poll,
    /// DM1: 2/3 FEC, CRC, ≤ 17 data bytes, 1 slot.
    Dm1,
    /// DH1: no FEC, CRC, ≤ 27 data bytes, 1 slot.
    Dh1,
    /// DM3: 2/3 FEC, CRC, ≤ 121 data bytes, 3 slots.
    Dm3,
    /// DH3: no FEC, CRC, ≤ 183 data bytes, 3 slots.
    Dh3,
    /// DM5: 2/3 FEC, CRC, ≤ 224 data bytes, 5 slots.
    Dm5,
    /// DH5: no FEC, CRC, ≤ 339 data bytes, 5 slots.
    Dh5,
}

impl BtPacketType {
    /// The 4-bit TYPE field value.
    pub(crate) fn type_code(self) -> u8 {
        match self {
            BtPacketType::Poll => 1,
            BtPacketType::Dm1 => 3,
            BtPacketType::Dh1 => 4,
            BtPacketType::Dm3 => 10,
            BtPacketType::Dh3 => 11,
            BtPacketType::Dm5 => 14,
            BtPacketType::Dh5 => 15,
        }
    }

    /// Decodes a TYPE field value.
    pub(crate) fn from_type_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(BtPacketType::Poll),
            3 => Some(BtPacketType::Dm1),
            4 => Some(BtPacketType::Dh1),
            10 => Some(BtPacketType::Dm3),
            11 => Some(BtPacketType::Dh3),
            14 => Some(BtPacketType::Dm5),
            15 => Some(BtPacketType::Dh5),
            _ => None,
        }
    }

    /// Maximum user-data bytes.
    pub fn max_payload(self) -> usize {
        match self {
            BtPacketType::Poll => 0,
            BtPacketType::Dm1 => 17,
            BtPacketType::Dh1 => 27,
            BtPacketType::Dm3 => 121,
            BtPacketType::Dh3 => 183,
            BtPacketType::Dm5 => 224,
            BtPacketType::Dh5 => 339,
        }
    }

    /// TDD slots occupied.
    pub fn slots(self) -> u8 {
        match self {
            BtPacketType::Poll | BtPacketType::Dm1 | BtPacketType::Dh1 => 1,
            BtPacketType::Dm3 | BtPacketType::Dh3 => 3,
            BtPacketType::Dm5 | BtPacketType::Dh5 => 5,
        }
    }

    /// Whether the payload passes through the 2/3-rate FEC.
    pub(crate) fn has_fec23(self) -> bool {
        matches!(
            self,
            BtPacketType::Dm1 | BtPacketType::Dm3 | BtPacketType::Dm5
        )
    }

    /// Whether the payload header is the 2-byte multi-slot form.
    pub(crate) fn has_wide_payload_header(self) -> bool {
        self.slots() > 1
    }
}

/// A Bluetooth baseband packet (pre-modulation view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtPacket {
    /// Device LAP (drives the access code).
    pub lap: u32,
    /// Device UAP (drives HEC and CRC seeds).
    pub uap: u8,
    /// Logical transport address, 1-7 (0 is broadcast).
    pub lt_addr: u8,
    /// Packet type.
    pub ptype: BtPacketType,
    /// Master-clock bits CLK27-1 at transmission (whitening seed uses
    /// CLK6-1).
    pub clock: u32,
    /// User payload.
    pub payload: Vec<u8>,
}

/// HEC: 8-bit CRC with polynomial `D^8 + D^7 + D^5 + D^2 + D + 1`, seeded
/// from the UAP.
fn hec(uap: u8, header10: &[bool]) -> u8 {
    debug_assert_eq!(header10.len(), 10);
    // Polynomial without the leading term: D^7 + D^5 + D^2 + D + 1 = 0xA7.
    let crc = Crc::new(8, 0xA7, reflect8(uap) as u64, 0);
    crc.compute_bits(header10) as u8
}

fn reflect8(v: u8) -> u8 {
    v.reverse_bits()
}

impl BtPacket {
    /// Creates a packet, validating payload length against the type.
    ///
    /// # Panics
    /// Panics if the payload exceeds the type's maximum.
    pub fn new(
        lap: u32,
        uap: u8,
        lt_addr: u8,
        ptype: BtPacketType,
        clock: u32,
        payload: Vec<u8>,
    ) -> Self {
        assert!(
            payload.len() <= ptype.max_payload(),
            "{} bytes exceeds {:?} max {}",
            payload.len(),
            ptype,
            ptype.max_payload()
        );
        Self {
            lap,
            uap,
            lt_addr: lt_addr & 0x7,
            ptype,
            clock,
            payload,
        }
    }

    /// The 10 plain header bits: LT_ADDR (3), TYPE (4), FLOW, ARQN, SEQN.
    fn header10(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(10);
        bits.extend(u64_to_bits_lsb(self.lt_addr as u64, 3));
        bits.extend(u64_to_bits_lsb(self.ptype.type_code() as u64, 4));
        bits.push(true); // FLOW = go
        bits.push(false); // ARQN
        bits.push(((self.clock >> 1) & 1) == 1); // SEQN toggles with clock
        bits
    }

    /// The plain (pre-FEC, pre-whitening) payload bits: payload header +
    /// data + CRC-16.
    fn payload_bits_plain(&self) -> Vec<bool> {
        if self.ptype == BtPacketType::Poll {
            return Vec::new();
        }
        let mut body = Vec::new();
        // Payload header: L_CH = 0b10 (start of L2CAP), FLOW = 1, LENGTH.
        if self.ptype.has_wide_payload_header() {
            // 16 bits: L_CH(2) FLOW(1) LENGTH(9) UNDEFINED(4).
            let v: u64 = 0b10 | (1 << 2) | ((self.payload.len() as u64 & 0x1FF) << 3);
            body.extend(u64_to_bits_lsb(v, 16));
        } else {
            // 8 bits: L_CH(2) FLOW(1) LENGTH(5).
            let v: u64 = 0b10 | (1 << 2) | ((self.payload.len() as u64 & 0x1F) << 3);
            body.extend(u64_to_bits_lsb(v, 8));
        }
        body.extend(bytes_to_bits_lsb(&self.payload));
        // CRC over payload header + data.
        let crc = Crc::crc16_bluetooth(self.uap).compute_bits(&body);
        body.extend(u64_to_bits_lsb(crc, 16));
        body
    }

    /// Serializes the complete over-the-air bit stream: access code, coded
    /// header, coded payload.
    pub fn to_air_bits(&self) -> Vec<bool> {
        let ac = AccessCode::new(self.lap);
        let mut air = ac.bits.clone();

        // Header: 10 bits + HEC(8) -> whiten -> FEC 1/3 -> 54 bits.
        let h10 = self.header10();
        let mut h18 = h10.clone();
        h18.extend(u64_to_bits_lsb(hec(self.uap, &h10) as u64, 8));
        let mut whitener = Whitener::for_bt_clock(self.clock);
        whitener.apply(&mut h18);
        air.extend(repeat3_encode(&h18));

        // Payload: plain bits -> whiten (continuing) -> optional 2/3 FEC.
        let mut pbits = self.payload_bits_plain();
        whitener.apply(&mut pbits);
        if self.ptype.has_fec23() {
            // Pad to a multiple of 10 with zeros (spec appends zeros).
            while !pbits.len().is_multiple_of(10) {
                pbits.push(false);
            }
            pbits = hamming1510_encode(&pbits);
        }
        air.extend(pbits);
        air
    }

    /// Airtime of the packet in microseconds at 1 Msym/s.
    pub fn airtime_us(&self) -> f64 {
        self.to_air_bits().len() as f64
    }
}

/// Result of parsing the coded header + payload bit stream (everything after
/// the access code). Produced by [`parse_after_access_code`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedBtPacket {
    /// Logical transport address.
    pub lt_addr: u8,
    /// Packet type.
    pub ptype: BtPacketType,
    /// Recovered whitening seed (6 bits of CLK plus the forced bit 6).
    pub whitening_seed: u8,
    /// Decoded payload (empty for POLL).
    pub payload: Vec<u8>,
    /// Whether the payload CRC verified (true for POLL).
    pub crc_ok: bool,
}

/// Parses the bit stream following an access code: brute-forces the 64
/// whitening seeds against the HEC (the sniffer does not know the piconet
/// clock), then decodes the payload under the recovered seed.
///
/// `uap` is assumed known (for `l2ping`-style workloads the sniffer learns
/// it out of band; BlueSniff brute-forces it the same way).
pub fn parse_after_access_code(bits: &[bool], uap: u8) -> Option<ParsedBtPacket> {
    if bits.len() < 54 {
        return None;
    }
    let h18_whitened = repeat3_decode(&bits[..54]);

    // Try all 64 whitening seeds (bit 6 forced to 1 per spec). An 8-bit HEC
    // lets the occasional wrong seed through, so collect every candidate and
    // keep the one whose payload CRC verifies.
    let mut candidates: Vec<(u8, Vec<bool>)> = Vec::new();
    for clk in 0..64u32 {
        let mut trial = h18_whitened.clone();
        let mut w = Whitener::for_bt_clock(clk);
        w.apply(&mut trial);
        let h10: Vec<bool> = trial[..10].to_vec();
        let rx_hec = bits_to_u64_lsb(&trial[10..18]) as u8;
        if hec(uap, &h10) == rx_hec {
            candidates.push((((clk as u8) & 0x3F) | 0x40, h10));
        }
    }
    // Preference order: a CRC-verified payload-carrying parse beats
    // everything (the CRC pins down the true seed); a POLL (which has no
    // payload to check) is only believable if no payload parse verified;
    // otherwise fall back to the first parse at all (reported with
    // `crc_ok = false`).
    let mut poll: Option<ParsedBtPacket> = None;
    let mut fallback: Option<ParsedBtPacket> = None;
    for (seed, h10) in candidates {
        if let Some(parsed) = parse_with_seed(bits, uap, seed, &h10) {
            if parsed.ptype == BtPacketType::Poll {
                if poll.is_none() {
                    poll = Some(parsed);
                }
            } else if parsed.crc_ok {
                return Some(parsed);
            } else if fallback.is_none() {
                fallback = Some(parsed);
            }
        }
    }
    poll.or(fallback)
}

/// Parses the packet under a specific whitening seed and already-dewhitened
/// 10 header bits.
fn parse_with_seed(bits: &[bool], uap: u8, seed: u8, h10: &[bool]) -> Option<ParsedBtPacket> {
    let lt_addr = bits_to_u64_lsb(&h10[0..3]) as u8;
    let type_code = bits_to_u64_lsb(&h10[3..7]) as u8;
    let ptype = BtPacketType::from_type_code(type_code)?;

    if ptype == BtPacketType::Poll {
        return Some(ParsedBtPacket {
            lt_addr,
            ptype,
            whitening_seed: seed,
            payload: Vec::new(),
            crc_ok: true,
        });
    }

    // Reconstruct the whitener state after the header: run a fresh whitener
    // over 18 dummy bits to advance it, then continue on the payload.
    let mut w = Whitener::new(seed);
    let mut dummy = vec![false; 18];
    w.apply(&mut dummy);

    let coded = &bits[54..];
    let mut pbits: Vec<bool> = if ptype.has_fec23() {
        let usable = coded.len() / 15 * 15;
        let (decoded, _fixed) = hamming1510_decode(&coded[..usable]);
        decoded
    } else {
        coded.to_vec()
    };
    w.apply(&mut pbits);

    // Parse the payload header to find LENGTH.
    let (hdr_bits, data_start) = if ptype.has_wide_payload_header() {
        (16usize, 16usize)
    } else {
        (8, 8)
    };
    if pbits.len() < hdr_bits {
        return None;
    }
    let length = if hdr_bits == 16 {
        (bits_to_u64_lsb(&pbits[..16]) >> 3 & 0x1FF) as usize
    } else {
        (bits_to_u64_lsb(&pbits[..8]) >> 3 & 0x1F) as usize
    };
    if length > ptype.max_payload() {
        return None;
    }
    let total_bits = data_start + length * 8 + 16;
    if pbits.len() < total_bits {
        return None;
    }
    let body = &pbits[..data_start + length * 8];
    let rx_crc = bits_to_u64_lsb(&pbits[data_start + length * 8..total_bits]);
    let crc_ok = Crc::crc16_bluetooth(uap).compute_bits(body) == rx_crc;
    let payload = bits_to_bytes_lsb(&pbits[data_start..data_start + length * 8]);

    Some(ParsedBtPacket {
        lt_addr,
        ptype,
        whitening_seed: seed,
        payload,
        crc_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ptype: BtPacketType, len: usize, clock: u32) -> BtPacket {
        let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        BtPacket::new(0x9E8B33, 0x47, 1, ptype, clock, payload)
    }

    #[test]
    fn air_bits_round_trip_dh_types() {
        for (ptype, len) in [
            (BtPacketType::Dh1, 27),
            (BtPacketType::Dh3, 183),
            (BtPacketType::Dh5, 339),
            (BtPacketType::Dh5, 225),
        ] {
            let pkt = mk(ptype, len, 0x15);
            let air = pkt.to_air_bits();
            let parsed = parse_after_access_code(&air[72..], 0x47)
                .unwrap_or_else(|| panic!("parse {ptype:?}"));
            assert_eq!(parsed.ptype, ptype);
            assert!(parsed.crc_ok, "CRC {ptype:?}");
            assert_eq!(parsed.payload, pkt.payload);
            assert_eq!(parsed.lt_addr, 1);
        }
    }

    #[test]
    fn air_bits_round_trip_dm_types() {
        for (ptype, len) in [
            (BtPacketType::Dm1, 17),
            (BtPacketType::Dm3, 121),
            (BtPacketType::Dm5, 224),
        ] {
            let pkt = mk(ptype, len, 0x2A);
            let air = pkt.to_air_bits();
            let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
            assert_eq!(parsed.ptype, ptype);
            assert!(parsed.crc_ok);
            assert_eq!(parsed.payload, pkt.payload);
        }
    }

    #[test]
    fn poll_round_trip() {
        let pkt = mk(BtPacketType::Poll, 0, 0);
        let air = pkt.to_air_bits();
        assert_eq!(air.len(), 72 + 54);
        let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
        assert_eq!(parsed.ptype, BtPacketType::Poll);
    }

    #[test]
    fn whitening_seed_is_recovered() {
        for clk in [0u32, 1, 33, 63] {
            let pkt = mk(BtPacketType::Dh1, 10, clk);
            let air = pkt.to_air_bits();
            let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
            assert_eq!(parsed.whitening_seed, ((clk as u8) & 0x3F) | 0x40);
        }
    }

    #[test]
    fn wrong_uap_fails_to_parse() {
        let pkt = mk(BtPacketType::Dh1, 10, 5);
        let air = pkt.to_air_bits();
        // With the wrong UAP the HEC brute force will almost surely fail
        // (and if a seed collides, the CRC must fail).
        match parse_after_access_code(&air[72..], 0x48) {
            None => {}
            Some(p) => assert!(!p.crc_ok),
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let pkt = mk(BtPacketType::Dh1, 20, 7);
        let mut air = pkt.to_air_bits();
        let n = air.len();
        air[n - 30] = !air[n - 30]; // flip a payload bit
        let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
        assert!(!parsed.crc_ok);
    }

    #[test]
    fn dm_fec_corrects_channel_errors() {
        let pkt = mk(BtPacketType::Dm1, 17, 3);
        let mut air = pkt.to_air_bits();
        // Flip one bit in each 15-bit FEC block of the payload.
        let payload_start = 72 + 54;
        let mut i = payload_start;
        while i + 15 <= air.len() {
            air[i + 4] = !air[i + 4];
            i += 15;
        }
        let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
        assert!(parsed.crc_ok, "FEC must absorb one error per block");
        assert_eq!(parsed.payload, pkt.payload);
    }

    #[test]
    fn header_fec_corrects_errors() {
        let pkt = mk(BtPacketType::Dh1, 5, 9);
        let mut air = pkt.to_air_bits();
        // Flip one bit of each header triple (positions 72..126).
        for k in 0..6 {
            air[72 + k * 9] = !air[72 + k * 9];
        }
        let parsed = parse_after_access_code(&air[72..], 0x47).unwrap();
        assert!(parsed.crc_ok);
        assert_eq!(parsed.payload, pkt.payload);
    }

    #[test]
    fn dh5_airtime_is_under_five_slots() {
        let pkt = mk(BtPacketType::Dh5, 339, 0);
        let us = pkt.airtime_us();
        assert!(
            us <= 5.0 * super::super::hop::SLOT_US - 259.0 + 626.0,
            "airtime {us}"
        );
        assert!(us > 2000.0);
    }

    #[test]
    #[should_panic]
    fn oversize_payload_panics() {
        let _ = mk(BtPacketType::Dh1, 28, 0);
    }
}
