//! # rfd-ether — the wireless ether, simulated
//!
//! The RFDump paper records its workloads on the CMU wireless emulator
//! testbed: real transmitters, a controlled channel, and a USRP capturing an
//! 8 MHz slice of the 2.4 GHz ISM band, with NIC monitors providing ground
//! truth. This crate is that substrate in software:
//!
//! * [`scene`] — renders a MAC-layer transmission schedule (from `rfd-mac`)
//!   through the PHY modulators (from `rfd-phy`) into one mixed complex
//!   sample stream at the monitor rate, with per-node gain (SNR control),
//!   carrier offset, random carrier phase, AWGN, and physically-overlapping
//!   collisions; every packet leaves a [`TruthRecord`].
//! * [`trace`] — a USRP-style binary trace format (interleaved i16 I/Q plus
//!   a small header) so traces can be recorded, shipped and replayed, which
//!   is exactly how all experiments in the paper are run ("all experiments
//!   use RFDump's support for processing recorded traces").
//! * [`campus`] — a synthesized "real-world" trace mimicking the paper's
//!   §5.3 CS-building capture (646 802.11b PLCP headers, 106 of them on
//!   1 Mbps frames, the rest at higher rates).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod campus;
pub mod scene;
pub mod trace;

pub use scene::{EtherTrace, NodeCfg, Scene, TruthDetail, TruthRecord};
pub use trace::{read_trace, write_trace, TraceHeader};

/// The monitored band: a slice of spectrum `sample_rate` wide centered at
/// `center_hz` (frequencies are relative to the 2.4 GHz band start, matching
/// `rfd_phy::bluetooth::hop::channel_freq_hz`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Complex sample rate = monitored bandwidth (the paper's USRP 1 gives
    /// 8 MHz).
    pub sample_rate: f64,
    /// Band center relative to 2.4 GHz, in Hz.
    pub center_hz: f64,
}

impl Band {
    /// The paper's setup: 8 MHz centered on Wi-Fi channel 6 (2.437 GHz).
    pub fn usrp_8mhz() -> Self {
        Band {
            sample_rate: 8e6,
            center_hz: 37e6,
        }
    }

    /// Whether a carrier at `freq_hz` (± `half_width` of signal) lies fully
    /// inside the band.
    pub(crate) fn contains(&self, freq_hz: f64, half_width: f64) -> bool {
        (freq_hz - self.center_hz).abs() + half_width <= self.sample_rate / 2.0
    }

    /// Offset of a carrier from the band center.
    pub(crate) fn offset(&self, freq_hz: f64) -> f64 {
        freq_hz - self.center_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usrp_band_covers_seven_whole_bt_channels() {
        // The paper counts "8 Bluetooth channels in the 8 MHz band" by
        // dividing the band into eight 1-MHz FFT bins; with the monitor
        // centered on a Wi-Fi channel, 7 Bluetooth channels fit *wholly*
        // inside and the two edge channels are partially visible.
        let band = Band::usrp_8mhz();
        let covered = (0..79)
            .filter(|&ch| band.contains(rfd_phy::bluetooth::hop::channel_freq_hz(ch), 0.5e6))
            .count();
        assert_eq!(covered, 7);
    }

    #[test]
    fn offset_sign() {
        let band = Band::usrp_8mhz();
        assert!(band.offset(38e6) > 0.0);
        assert!(band.offset(36e6) < 0.0);
    }
}
