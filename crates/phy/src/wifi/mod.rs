//! IEEE 802.11b physical and MAC layer.
//!
//! The transmit chain implements the DSSS PHY of IEEE 802.11-2007 clause 18:
//! long PLCP preamble and header (always DBPSK at 1 Mbps), PSDU at 1 Mbps
//! DBPSK, 2 Mbps DQPSK, or 5.5/11 Mbps CCK, all chipped at 11 Mchips/s
//! (Barker-11 for the PSK rates). The receive chain undoes the whole stack
//! and verifies both the PLCP header CRC-16 and the MAC FCS (CRC-32).
//!
//! Timing constants (SIFS/DIFS/slot) live here too; they are what RFDump's
//! 802.11 timing detectors key on.

pub mod barker;
pub mod cck;
pub mod demod;
pub mod frame;
pub mod modulator;
pub mod plcp;

pub use demod::{demodulate, WifiRx};
pub use frame::{MacFrame, MacFrameKind};
pub use modulator::{modulate, WifiTxConfig};
pub use plcp::{PlcpHeader, WifiRate};

/// 802.11b/g short interframe space, microseconds.
pub const SIFS_US: f64 = 10.0;
/// 802.11b slot time, microseconds.
pub const SLOT_US: f64 = 20.0;
/// 802.11b distributed interframe space: SIFS + 2 × slot.
pub const DIFS_US: f64 = SIFS_US + 2.0 * SLOT_US;
/// Long PLCP preamble duration (144 bits at 1 Mbps), microseconds.
pub(crate) const LONG_PREAMBLE_US: f64 = 144.0;
/// PLCP header duration (48 bits at 1 Mbps), microseconds.
pub(crate) const PLCP_HEADER_US: f64 = 48.0;
/// Chip rate of the DSSS PHY, chips per second.
pub const CHIP_RATE: f64 = 11e6;
/// 802.11 DSSS channel width (drives what fraction an 8 MHz monitor sees).
pub const CHANNEL_WIDTH_HZ: f64 = 22e6;

/// Airtime of a PSDU of `len` bytes at `rate`, excluding preamble+header, in
/// microseconds.
pub(crate) fn psdu_airtime_us(len: usize, rate: WifiRate) -> f64 {
    (len as f64) * 8.0 / rate.mbps()
}

/// Total frame airtime including long preamble and PLCP header, microseconds.
pub fn frame_airtime_us(psdu_len: usize, rate: WifiRate) -> f64 {
    LONG_PREAMBLE_US + PLCP_HEADER_US + psdu_airtime_us(psdu_len, rate).ceil()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_constants_match_table2() {
        // Paper Table 2: slot 20 us, SIFS 10 us for 802.11b.
        assert_eq!(SIFS_US, 10.0);
        assert_eq!(SLOT_US, 20.0);
        assert_eq!(DIFS_US, 50.0);
    }

    #[test]
    fn airtime_of_588_byte_frame_at_1mbps() {
        // Paper §5.1.2: 588 bytes including PLCP preamble and header; 500B
        // ICMP payload + MAC overhead. At 1 Mbps a 564-byte PSDU is 4512 us
        // plus 192 us of PLCP = 4704 us = 588 "byte times".
        let us = frame_airtime_us(564, WifiRate::R1);
        assert!((us - 4704.0).abs() < 1e-9);
    }
}
