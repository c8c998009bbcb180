//! # rfd-phy — physical layers for the RFDump workspace
//!
//! Complete, from-scratch modulators **and** demodulators for every wireless
//! technology the RFDump paper monitors in the 2.4 GHz ISM band:
//!
//! * [`wifi`] — IEEE 802.11b: PLCP long preamble/header, the `x^7+x^4+1`
//!   scrambler, DBPSK (1 Mbps) and DQPSK (2 Mbps) with Barker-11 spreading,
//!   CCK (5.5 and 11 Mbps), MAC framing with FCS, and a full receiver.
//! * [`bluetooth`] — Bluetooth BR: channel access code with the (64,30)
//!   BCH-derived sync word, 54-bit FEC-1/3 packet header with HEC, DH1/3/5
//!   and DM1/3/5 payloads with CRC and optional (15,10) 2/3-rate FEC, data
//!   whitening, GFSK modulation (BT = 0.5, h = 0.32), frequency hopping, and
//!   a full receiver.
//! * [`zigbee`] — IEEE 802.15.4 (2.4 GHz O-QPSK PHY): 32-chip DSSS, half-sine
//!   (MSK-equivalent) shaping, SHR/PHR framing and FCS, and a receiver. This
//!   is the protocol the paper repeatedly uses as its extensibility example.
//! * [`microwave`] — a residential microwave-oven interference model:
//!   constant-envelope, slowly swept carrier gated at the AC half-cycle.
//!
//! All modulators produce [`Waveform`]s: complex baseband at a declared
//! sample rate, centered on the protocol channel, ready for the ether
//! simulator (`rfd-ether`) to frequency-translate, scale, and mix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bluetooth;
pub mod microwave;
pub mod wifi;
pub mod zigbee;

use rfd_dsp::Complex32;

/// The wireless technologies known to the workspace.
///
/// This is the tag RFDump's detection stage tries to recover from raw signal
/// — the wireless equivalent of the protocol field tcpdump reads from an IP
/// header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// IEEE 802.11b/g Wi-Fi.
    Wifi,
    /// Bluetooth BR.
    Bluetooth,
    /// IEEE 802.15.4 / ZigBee.
    Zigbee,
    /// Residential microwave-oven interference.
    Microwave,
}

impl Protocol {
    /// All protocols, in a stable order.
    pub const ALL: [Protocol; 4] = [
        Protocol::Wifi,
        Protocol::Bluetooth,
        Protocol::Zigbee,
        Protocol::Microwave,
    ];

    /// Short lowercase name (used in reports and trace prints).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Wifi => "802.11",
            Protocol::Bluetooth => "bluetooth",
            Protocol::Zigbee => "zigbee",
            Protocol::Microwave => "microwave",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rendered baseband waveform: complex samples at `sample_rate`, centered
/// at `center_offset_hz` relative to the transmitter's nominal channel
/// center. Modulators emit at their natural rate (e.g. 11 Msps for 802.11b —
/// one sample per Barker chip); the ether simulator resamples to the monitor
/// rate.
#[derive(Debug, Clone)]
pub struct Waveform {
    /// Complex baseband samples (unit-ish amplitude; the ether applies gain).
    pub samples: Vec<Complex32>,
    /// Sample rate of `samples` in Hz.
    pub sample_rate: f64,
}

impl Waveform {
    /// Duration of the waveform in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Mean power of the waveform.
    pub fn mean_power(&self) -> f32 {
        rfd_dsp::complex::mean_power(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_are_distinct() {
        let mut names: Vec<&str> = Protocol::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Protocol::ALL.len());
    }

    #[test]
    fn waveform_duration() {
        let w = Waveform {
            samples: vec![Complex32::ZERO; 8000],
            sample_rate: 8e6,
        };
        assert!((w.duration() - 1e-3).abs() < 1e-12);
    }
}
