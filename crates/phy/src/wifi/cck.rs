//! Complementary Code Keying for 5.5 and 11 Mbps 802.11b.
//!
//! Each CCK symbol is 8 complex chips derived from four phases
//! (IEEE 802.11-2007 §18.4.6.5):
//!
//! ```text
//! c = ( e^{j(p1+p2+p3+p4)}, e^{j(p1+p3+p4)}, e^{j(p1+p2+p4)}, -e^{j(p1+p4)},
//!       e^{j(p1+p2+p3)},    e^{j(p1+p3)},   -e^{j(p1+p2)},    e^{j p1} )
//! ```
//!
//! `p1` is DQPSK-encoded across symbols (with an extra pi on odd-numbered
//! symbols); `p2..p4` carry the remaining data bits.

use rfd_dsp::Complex32;
use std::f32::consts::{FRAC_PI_2, PI};

/// QPSK phase for a data dibit, first-transmitted bit `d0`:
/// (0,0) -> 0, (1,0) -> pi/2, (0,1) -> pi, (1,1) -> 3pi/2.
fn qpsk_phase(d0: bool, d1: bool) -> f32 {
    match (d0, d1) {
        (false, false) => 0.0,
        (true, false) => FRAC_PI_2,
        (false, true) => PI,
        (true, true) => 3.0 * FRAC_PI_2,
    }
}

/// DQPSK phase *increment* for the `p1` dibit. Even/odd refers to the symbol
/// index within the PSDU; odd symbols get an extra pi.
fn dqpsk_increment(d0: bool, d1: bool, odd_symbol: bool) -> f32 {
    let base = match (d0, d1) {
        (false, false) => 0.0,
        (true, false) => FRAC_PI_2,
        (false, true) => PI,
        (true, true) => 3.0 * FRAC_PI_2,
    };
    if odd_symbol {
        base + PI
    } else {
        base
    }
}

/// Generates the 8 chips for given phases.
pub(crate) fn chips_for_phases(p1: f32, p2: f32, p3: f32, p4: f32) -> [Complex32; 8] {
    let e = Complex32::cis;
    [
        e(p1 + p2 + p3 + p4),
        e(p1 + p3 + p4),
        e(p1 + p2 + p4),
        -e(p1 + p4),
        e(p1 + p2 + p3),
        e(p1 + p3),
        -e(p1 + p2),
        e(p1),
    ]
}

/// Encodes one CCK symbol.
///
/// * `bits` — 4 bits (5.5 Mbps) or 8 bits (11 Mbps), in transmission order.
/// * `phase_ref` — running DQPSK reference phase; updated in place.
/// * `symbol_index` — index within the PSDU (drives the even/odd pi).
pub(crate) fn encode_symbol(
    bits: &[bool],
    phase_ref: &mut f32,
    symbol_index: usize,
) -> [Complex32; 8] {
    let odd = symbol_index % 2 == 1;
    match bits.len() {
        4 => {
            *phase_ref += dqpsk_increment(bits[0], bits[1], odd);
            // 5.5 Mbps phase mapping (§18.4.6.5.3):
            let p2 = if bits[2] { PI + FRAC_PI_2 } else { FRAC_PI_2 };
            let p3 = 0.0;
            let p4 = if bits[3] { PI } else { 0.0 };
            chips_for_phases(*phase_ref, p2, p3, p4)
        }
        8 => {
            *phase_ref += dqpsk_increment(bits[0], bits[1], odd);
            let p2 = qpsk_phase(bits[2], bits[3]);
            let p3 = qpsk_phase(bits[4], bits[5]);
            let p4 = qpsk_phase(bits[6], bits[7]);
            chips_for_phases(*phase_ref, p2, p3, p4)
        }
        n => panic!("CCK symbol must be 4 or 8 bits, got {n}"),
    }
}

/// All candidate `(p2, p3, p4)` phase triples (and their data bits) for a
/// rate, used by the maximum-likelihood demodulator.
pub(crate) fn candidates(bits_per_symbol: usize) -> Vec<(Vec<bool>, f32, f32, f32)> {
    match bits_per_symbol {
        4 => {
            let mut v = Vec::with_capacity(4);
            for d2 in [false, true] {
                for d3 in [false, true] {
                    let p2 = if d2 { PI + FRAC_PI_2 } else { FRAC_PI_2 };
                    let p4 = if d3 { PI } else { 0.0 };
                    v.push((vec![d2, d3], p2, 0.0, p4));
                }
            }
            v
        }
        8 => {
            let mut v = Vec::with_capacity(64);
            for b in 0..64u8 {
                let bits: Vec<bool> = (0..6).map(|i| (b >> i) & 1 == 1).collect();
                let p2 = qpsk_phase(bits[0], bits[1]);
                let p3 = qpsk_phase(bits[2], bits[3]);
                let p4 = qpsk_phase(bits[4], bits[5]);
                v.push((bits, p2, p3, p4));
            }
            v
        }
        n => panic!("CCK bits/symbol must be 4 or 8, got {n}"),
    }
}

/// Maximum-likelihood decode of one received 8-chip CCK symbol.
///
/// Correlates against every codeword; the correlation's complex angle
/// recovers `p1`, from which the DQPSK dibit is decoded against
/// `phase_ref` (updated in place on success).
///
/// Returns the decoded bits (4 or 8) and the correlation magnitude
/// (normalized to 1.0 for a clean symbol).
pub(crate) fn decode_symbol(
    chips: &[Complex32],
    bits_per_symbol: usize,
    phase_ref: &mut f32,
    symbol_index: usize,
) -> (Vec<bool>, f32) {
    debug_assert_eq!(chips.len(), 8);
    let cands = candidates(bits_per_symbol);
    let mut best: Option<(usize, Complex32)> = None;
    for (i, (_, p2, p3, p4)) in cands.iter().enumerate() {
        // Correlate against the codeword with p1 = 0; the residual angle of
        // the correlation is the received p1.
        let cw = chips_for_phases(0.0, *p2, *p3, *p4);
        let mut acc = Complex32::ZERO;
        for (r, c) in chips.iter().zip(cw.iter()) {
            acc += *r * c.conj();
        }
        if best.is_none_or(|(_, b)| acc.norm_sqr() > b.norm_sqr()) {
            best = Some((i, acc));
        }
    }
    let (idx, acc) = best.expect("candidate list is never empty");
    let p1_rx = acc.arg();
    // Decode the DQPSK increment.
    let odd = symbol_index % 2 == 1;
    let mut delta = p1_rx - *phase_ref;
    if odd {
        delta -= PI;
    }
    // Snap to the nearest quadrant.
    let quad = ((delta / FRAC_PI_2).round().rem_euclid(4.0)) as u8;
    let (d0, d1) = match quad {
        0 => (false, false),
        1 => (true, false),
        2 => (false, true),
        _ => (true, true),
    };
    *phase_ref = p1_rx;
    let mut bits = vec![d0, d1];
    bits.extend_from_slice(&cands[idx].0);
    let quality = acc.abs() / 8.0 / avg_chip_mag(chips).max(1e-9);
    (bits, quality)
}

fn avg_chip_mag(chips: &[Complex32]) -> f32 {
    chips.iter().map(|z| z.abs()).sum::<f32>() / chips.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codewords_are_constant_envelope() {
        let cw = chips_for_phases(0.3, 1.1, 2.2, 0.7);
        for c in cw {
            assert!((c.abs() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn cck_11_round_trip_random_bits() {
        let mut enc_ref = 0.0f32;
        let mut dec_ref = 0.0f32;
        let mut state = 0x1234_5678u64;
        for sym in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bits: Vec<bool> = (0..8).map(|i| (state >> (i + 20)) & 1 == 1).collect();
            let chips = encode_symbol(&bits, &mut enc_ref, sym);
            let (decoded, q) = decode_symbol(&chips, 8, &mut dec_ref, sym);
            assert_eq!(decoded, bits, "symbol {sym}");
            assert!(q > 0.99);
        }
    }

    #[test]
    fn cck_5_5_round_trip_random_bits() {
        let mut enc_ref = 0.0f32;
        let mut dec_ref = 0.0f32;
        let mut state = 0x9E37_79B9u64;
        for sym in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bits: Vec<bool> = (0..4).map(|i| (state >> (i + 17)) & 1 == 1).collect();
            let chips = encode_symbol(&bits, &mut enc_ref, sym);
            let (decoded, q) = decode_symbol(&chips, 4, &mut dec_ref, sym);
            assert_eq!(decoded, bits, "symbol {sym}");
            assert!(q > 0.99);
        }
    }

    #[test]
    fn round_trip_survives_common_phase_rotation() {
        // A common phase rotation (carrier offset) must not break the
        // differential p1 decode once the reference tracks it.
        let rot = Complex32::cis(0.4);
        let mut enc_ref = 0.0f32;
        let mut dec_ref = 0.4f32; // receiver reference absorbs the rotation
        for sym in 0..50 {
            let bits: Vec<bool> = (0..8).map(|i| (sym >> i) & 1 == 1).collect();
            let chips = encode_symbol(&bits, &mut enc_ref, sym);
            let rx: Vec<Complex32> = chips.iter().map(|&c| c * rot).collect();
            let (decoded, _) = decode_symbol(&rx, 8, &mut dec_ref, sym);
            assert_eq!(decoded, bits, "symbol {sym}");
        }
    }

    #[test]
    fn candidate_counts() {
        assert_eq!(candidates(4).len(), 4);
        assert_eq!(candidates(8).len(), 64);
    }
}
