//! 802.11b transmit chain.
//!
//! Bits → scrambler → differential PSK (or CCK) symbols → Barker/CCK chips →
//! one complex sample per chip at 11 Msps. The long PLCP preamble and header
//! are always 1 Mbps DBPSK; the PSDU follows at the configured rate with
//! phase and scrambler state carried across the boundary, exactly as clause
//! 18 specifies.

use super::barker::spread_symbol;
use super::cck;
use super::plcp::{preamble_and_header_bits, PlcpHeader, WifiRate, SCRAMBLER_SEED_LONG};
use crate::Waveform;
use rfd_dsp::coding::{bytes_to_bits_lsb, Scrambler};
use rfd_dsp::Complex32;
use std::f32::consts::{FRAC_PI_2, PI};

/// Transmit configuration.
#[derive(Debug, Clone, Copy)]
pub struct WifiTxConfig {
    /// PSDU rate.
    pub rate: WifiRate,
}

impl Default for WifiTxConfig {
    fn default() -> Self {
        Self { rate: WifiRate::R1 }
    }
}

/// DBPSK phase increment: bit 0 keeps phase, bit 1 flips it.
fn dbpsk_increment(bit: bool) -> f32 {
    if bit {
        PI
    } else {
        0.0
    }
}

/// DQPSK phase increment for a dibit, first-transmitted bit `d0`
/// (§18.4.6.3, Gray-coded): 00 -> 0, 01 -> pi/2, 11 -> pi, 10 -> 3pi/2.
pub(crate) fn dqpsk_increment(d0: bool, d1: bool) -> f32 {
    match (d0, d1) {
        (false, false) => 0.0,
        (false, true) => FRAC_PI_2,
        (true, true) => PI,
        (true, false) => 3.0 * FRAC_PI_2,
    }
}

/// Modulates a PSDU into a baseband waveform at 11 Msps (one sample per
/// chip), including the long PLCP preamble and header.
pub fn modulate(psdu: &[u8], cfg: WifiTxConfig) -> Waveform {
    let header = PlcpHeader::for_psdu(psdu.len(), cfg.rate);
    let prefix_bits = preamble_and_header_bits(&header);
    let psdu_bits = bytes_to_bits_lsb(psdu);

    // Scramble the entire PPDU with one continuous scrambler.
    let mut scrambler = Scrambler::new(SCRAMBLER_SEED_LONG);
    let tx_prefix = scrambler.scramble(&prefix_bits);
    let tx_psdu = scrambler.scramble(&psdu_bits);

    let mut phase = 0.0f32;
    let chips_per_sym = cfg.rate.chips_per_symbol();
    let est_chips = tx_prefix.len() * 11
        + tx_psdu.len() / cfg.rate.bits_per_symbol().max(1) * chips_per_sym
        + 16;
    let mut samples: Vec<Complex32> = Vec::with_capacity(est_chips);

    // Preamble + header: DBPSK + Barker.
    for &bit in &tx_prefix {
        phase += dbpsk_increment(bit);
        spread_symbol(Complex32::cis(phase), &mut samples);
    }

    // PSDU at the configured rate.
    match cfg.rate {
        WifiRate::R1 => {
            for &bit in &tx_psdu {
                phase += dbpsk_increment(bit);
                spread_symbol(Complex32::cis(phase), &mut samples);
            }
        }
        WifiRate::R2 => {
            assert!(tx_psdu.len().is_multiple_of(2));
            for dibit in tx_psdu.chunks(2) {
                phase += dqpsk_increment(dibit[0], dibit[1]);
                spread_symbol(Complex32::cis(phase), &mut samples);
            }
        }
        WifiRate::R5_5 | WifiRate::R11 => {
            let bps = cfg.rate.bits_per_symbol();
            // Pad the tail with zero bits if the PSDU does not fill the final
            // symbol (cannot happen for whole bytes at 4/8 bits per symbol,
            // but keep the encoder total).
            assert!(tx_psdu.len().is_multiple_of(bps));
            for (i, group) in tx_psdu.chunks(bps).enumerate() {
                let chips = cck::encode_symbol(group, &mut phase, i);
                samples.extend_from_slice(&chips);
            }
        }
    }

    Waveform {
        samples,
        sample_rate: super::CHIP_RATE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wifi::frame_airtime_us;

    #[test]
    fn waveform_length_matches_airtime_1mbps() {
        let psdu = vec![0xA5u8; 100];
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R1 });
        // (192 + 800) bits at 11 chips/bit.
        assert_eq!(w.samples.len(), (192 + 800) * 11);
        assert!((w.duration() * 1e6 - frame_airtime_us(100, WifiRate::R1)).abs() < 1e-6);
    }

    #[test]
    fn waveform_length_matches_airtime_2mbps() {
        let psdu = vec![0x5Au8; 100];
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R2 });
        assert_eq!(w.samples.len(), 192 * 11 + (800 / 2) * 11);
    }

    #[test]
    fn waveform_length_cck_rates() {
        let psdu = vec![0x11u8; 110];
        let w55 = modulate(
            &psdu,
            WifiTxConfig {
                rate: WifiRate::R5_5,
            },
        );
        assert_eq!(w55.samples.len(), 192 * 11 + (880 / 4) * 8);
        let w11 = modulate(
            &psdu,
            WifiTxConfig {
                rate: WifiRate::R11,
            },
        );
        assert_eq!(w11.samples.len(), 192 * 11 + (880 / 8) * 8);
    }

    #[test]
    fn envelope_is_constant() {
        let w = modulate(&[0xFF, 0x00, 0x37], WifiTxConfig { rate: WifiRate::R1 });
        for z in &w.samples {
            assert!((z.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn different_psdus_differ_after_preamble() {
        let a = modulate(&[0x00; 10], WifiTxConfig::default());
        let b = modulate(&[0xFF; 10], WifiTxConfig::default());
        // Identical preamble chips... (the PLCP header differs only in CRC
        // region; compare the sync portion).
        let sync_chips = 128 * 11;
        assert_eq!(&a.samples[..sync_chips], &b.samples[..sync_chips]);
        // ...but PSDU chips differ.
        let psdu_start = 192 * 11;
        assert_ne!(&a.samples[psdu_start..], &b.samples[psdu_start..]);
    }
}
