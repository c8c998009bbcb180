//! PLCP (Physical Layer Convergence Procedure) framing for 802.11b.
//!
//! Long-preamble format (IEEE 802.11-2007 §18.2.2): 128 scrambled ones
//! (SYNC) + 16-bit SFD `0xF3A0`, then a 48-bit header — SIGNAL (8), SERVICE
//! (8), LENGTH (16) and CRC-16 (X-25 style: preset ones, complemented) — all
//! transmitted at 1 Mbps DBPSK regardless of the PSDU rate.

use rfd_dsp::coding::{bits_to_u64_lsb, u64_to_bits_lsb, Crc};

/// PSDU data rates of the 802.11b DSSS PHY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WifiRate {
    /// 1 Mbps DBPSK + Barker.
    R1,
    /// 2 Mbps DQPSK + Barker.
    R2,
    /// 5.5 Mbps CCK.
    R5_5,
    /// 11 Mbps CCK.
    R11,
}

impl WifiRate {
    /// Rate in Mbps.
    pub(crate) fn mbps(self) -> f64 {
        match self {
            WifiRate::R1 => 1.0,
            WifiRate::R2 => 2.0,
            WifiRate::R5_5 => 5.5,
            WifiRate::R11 => 11.0,
        }
    }

    /// SIGNAL field encoding (rate in units of 100 kbps).
    pub(crate) fn signal(self) -> u8 {
        match self {
            WifiRate::R1 => 0x0A,
            WifiRate::R2 => 0x14,
            WifiRate::R5_5 => 0x37,
            WifiRate::R11 => 0x6E,
        }
    }

    /// Decodes a SIGNAL field.
    pub(crate) fn from_signal(signal: u8) -> Option<Self> {
        match signal {
            0x0A => Some(WifiRate::R1),
            0x14 => Some(WifiRate::R2),
            0x37 => Some(WifiRate::R5_5),
            0x6E => Some(WifiRate::R11),
            _ => None,
        }
    }

    /// Data bits carried per PSK/CCK symbol.
    pub(crate) fn bits_per_symbol(self) -> usize {
        match self {
            WifiRate::R1 => 1,
            WifiRate::R2 => 2,
            WifiRate::R5_5 => 4,
            WifiRate::R11 => 8,
        }
    }

    /// Chips per symbol (Barker = 11, CCK = 8).
    pub(crate) fn chips_per_symbol(self) -> usize {
        match self {
            WifiRate::R1 | WifiRate::R2 => 11,
            WifiRate::R5_5 | WifiRate::R11 => 8,
        }
    }
}

impl std::fmt::Display for WifiRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} Mbps", self.mbps())
    }
}

/// SYNC length in bits for the long preamble.
pub(crate) const SYNC_BITS: usize = 128;
/// Start frame delimiter for the long preamble, transmitted LSB first.
pub(crate) const SFD: u16 = 0xF3A0;
/// Scrambler seed for the long preamble (§18.2.4).
pub(crate) const SCRAMBLER_SEED_LONG: u8 = 0x1B;
/// SERVICE-field bit marking the length-extension for 11 Mbps (bit 7).
pub(crate) const SERVICE_LENGTH_EXT: u8 = 0x80;
/// SERVICE-field bit indicating locked clocks (bit 2); we always set it.
pub(crate) const SERVICE_LOCKED_CLOCKS: u8 = 0x04;

/// A decoded PLCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlcpHeader {
    /// PSDU modulation/rate.
    pub rate: WifiRate,
    /// SERVICE field as transmitted.
    pub service: u8,
    /// LENGTH field: PSDU airtime in microseconds.
    pub length_us: u16,
}

impl PlcpHeader {
    /// Builds the header for a PSDU of `psdu_len` bytes at `rate`,
    /// computing LENGTH (and the 11 Mbps length-extension bit) per
    /// §18.2.3.5.
    pub fn for_psdu(psdu_len: usize, rate: WifiRate) -> Self {
        let bits = psdu_len as f64 * 8.0;
        let (length_us, service) = match rate {
            WifiRate::R1 => (bits as u16, SERVICE_LOCKED_CLOCKS),
            WifiRate::R2 => ((bits / 2.0).ceil() as u16, SERVICE_LOCKED_CLOCKS),
            WifiRate::R5_5 => ((bits / 5.5).ceil() as u16, SERVICE_LOCKED_CLOCKS),
            WifiRate::R11 => {
                let us = (bits / 11.0).ceil() as u16;
                // Length extension: set when rounding overshoots by a byte.
                let implied = (us as f64 * 11.0 / 8.0).floor() as usize;
                let ext = if implied - psdu_len == 1 {
                    SERVICE_LENGTH_EXT
                } else {
                    0
                };
                (us, SERVICE_LOCKED_CLOCKS | ext)
            }
        };
        Self {
            rate,
            service,
            length_us,
        }
    }

    /// PSDU length in bytes implied by this header.
    pub fn psdu_len(&self) -> usize {
        let us = self.length_us as f64;
        match self.rate {
            WifiRate::R1 => (us / 8.0) as usize,
            WifiRate::R2 => (us * 2.0 / 8.0) as usize,
            WifiRate::R5_5 => (us * 5.5 / 8.0) as usize,
            WifiRate::R11 => {
                let ext = (self.service & SERVICE_LENGTH_EXT) != 0;
                (us * 11.0 / 8.0).floor() as usize - ext as usize
            }
        }
    }

    /// Serializes to the 48 header bits (SIGNAL, SERVICE, LENGTH, CRC), LSB
    /// first per field, in transmission order.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(48);
        bits.extend(u64_to_bits_lsb(self.rate.signal() as u64, 8));
        bits.extend(u64_to_bits_lsb(self.service as u64, 8));
        bits.extend(u64_to_bits_lsb(self.length_us as u64, 16));
        let crc = Crc::crc16_x25().compute_bits(&bits);
        bits.extend(u64_to_bits_lsb(crc, 16));
        bits
    }

    /// Parses 48 header bits, verifying the CRC. Returns `None` on CRC
    /// failure or unknown SIGNAL value.
    pub fn from_bits(bits: &[bool]) -> Option<Self> {
        if bits.len() != 48 {
            return None;
        }
        let crc_rx = bits_to_u64_lsb(&bits[32..48]);
        let crc_calc = Crc::crc16_x25().compute_bits(&bits[..32]);
        if crc_rx != crc_calc {
            return None;
        }
        let signal = bits_to_u64_lsb(&bits[0..8]) as u8;
        let rate = WifiRate::from_signal(signal)?;
        Some(Self {
            rate,
            service: bits_to_u64_lsb(&bits[8..16]) as u8,
            length_us: bits_to_u64_lsb(&bits[16..32]) as u16,
        })
    }
}

/// Builds the unscrambled PPDU prefix bits: SYNC (128 ones) + SFD + header.
pub(crate) fn preamble_and_header_bits(header: &PlcpHeader) -> Vec<bool> {
    let mut bits = Vec::with_capacity(SYNC_BITS + 16 + 48);
    bits.extend(std::iter::repeat_n(true, SYNC_BITS));
    bits.extend(u64_to_bits_lsb(SFD as u64, 16));
    bits.extend(header.to_bits());
    bits
}

/// SFD bit pattern (LSB first) for matching in a descrambled bit stream.
pub(crate) fn sfd_bits() -> Vec<bool> {
    u64_to_bits_lsb(SFD as u64, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_bits_round_trip_all_rates() {
        for rate in [WifiRate::R1, WifiRate::R2, WifiRate::R5_5, WifiRate::R11] {
            for len in [0usize, 1, 26, 500, 1500, 2312] {
                let h = PlcpHeader::for_psdu(len, rate);
                let bits = h.to_bits();
                assert_eq!(bits.len(), 48);
                let parsed = PlcpHeader::from_bits(&bits).expect("CRC must verify");
                assert_eq!(parsed, h);
                assert_eq!(parsed.psdu_len(), len, "rate {rate} len {len}");
            }
        }
    }

    #[test]
    fn corrupted_header_fails_crc() {
        let h = PlcpHeader::for_psdu(100, WifiRate::R2);
        let mut bits = h.to_bits();
        bits[5] = !bits[5];
        assert!(PlcpHeader::from_bits(&bits).is_none());
    }

    #[test]
    fn length_us_matches_airtime() {
        let h = PlcpHeader::for_psdu(564, WifiRate::R1);
        assert_eq!(h.length_us, 4512);
        let h2 = PlcpHeader::for_psdu(564, WifiRate::R2);
        assert_eq!(h2.length_us, 2256);
    }

    #[test]
    fn eleven_mbps_length_extension_cases() {
        // Exhaustively check the inverse mapping over a range of lengths.
        for len in 1..3000usize {
            let h = PlcpHeader::for_psdu(len, WifiRate::R11);
            assert_eq!(h.psdu_len(), len, "len {len}");
        }
    }

    #[test]
    fn signal_field_is_rate_in_100kbps() {
        assert_eq!(WifiRate::R1.signal(), 10);
        assert_eq!(WifiRate::R2.signal(), 20);
        assert_eq!(WifiRate::R5_5.signal(), 55);
        assert_eq!(WifiRate::R11.signal(), 110);
        assert_eq!(WifiRate::from_signal(0x42), None);
    }

    #[test]
    fn preamble_structure() {
        let h = PlcpHeader::for_psdu(10, WifiRate::R1);
        let bits = preamble_and_header_bits(&h);
        assert_eq!(bits.len(), 192);
        assert!(bits[..128].iter().all(|&b| b));
        assert_eq!(&bits[128..144], sfd_bits().as_slice());
    }
}
