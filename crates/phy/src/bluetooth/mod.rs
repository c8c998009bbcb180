//! Bluetooth BR (basic rate) physical and baseband layer.
//!
//! Implements the pieces of the Bluetooth baseband specification the paper's
//! monitoring workloads exercise:
//!
//! * [`access_code`] — channel access code with the BCH(64,30)-derived sync
//!   word (what a sniffer correlates against).
//! * [`packet`] — baseband packets: 54-bit FEC-1/3 header with HEC, DH1/3/5
//!   and DM1/3/5 payloads with payload header, CRC-16 and (for DM) the
//!   (15,10) 2/3-rate FEC, plus clock-seeded data whitening.
//! * [`hop`] — the 79-channel pseudo-random frequency-hop schedule and TDD
//!   slot timing (625 µs slots, 1600 hops/s).
//! * [`gfsk`] — the GFSK modulator (BT = 0.5, modulation index h = 0.32,
//!   1 Msym/s).
//! * [`demod`] — a receiver: FM discrimination, sync-word search, header and
//!   payload decode; plus a bank of per-channel receivers covering a
//!   monitored band (the paper's "8 Bluetooth demodulators, one per
//!   channel").

pub mod access_code;
pub mod demod;
pub mod gfsk;
pub mod hop;
pub mod packet;

pub use access_code::sync_word;
pub use demod::{BtChannelRx, BtRxBank, BtRxResult};
pub use gfsk::{modulate, BtTxConfig};
pub use hop::{channel_freq_hz, HopSequence, SLOT_US};
pub use packet::{BtPacket, BtPacketType};

/// Bluetooth BR symbol rate: 1 Msym/s.
pub(crate) const SYMBOL_RATE: f64 = 1e6;
/// Channel spacing / occupied width, 1 MHz.
pub const CHANNEL_WIDTH_HZ: f64 = 1e6;
/// Number of RF channels in the 2.4 GHz band.
pub const NUM_CHANNELS: u8 = 79;
/// The channels wholly inside a band `sample_rate` wide centred at
/// `band_center_hz` (in [`channel_freq_hz`]'s coordinates), in channel order,
/// each with its offset from the band centre, Hz.
pub fn covered_channels(sample_rate: f64, band_center_hz: f64) -> impl Iterator<Item = (u8, f64)> {
    (0..NUM_CHANNELS)
        .map(move |ch| (ch, channel_freq_hz(ch) - band_center_hz))
        .filter(move |&(_, offset)| offset.abs() + CHANNEL_WIDTH_HZ / 2.0 <= sample_rate / 2.0)
}

/// GFSK bandwidth-time product.
pub(crate) const GFSK_BT: f64 = 0.5;
/// GFSK modulation index (deviation = h/2 × symbol rate = 160 kHz).
pub(crate) const GFSK_H: f64 = 0.32;

#[cfg(test)]
mod tests {
    #[test]
    fn slot_rate_is_1600_hops_per_second() {
        assert_eq!((1e6 / super::SLOT_US) as u32, 1600);
    }
}
