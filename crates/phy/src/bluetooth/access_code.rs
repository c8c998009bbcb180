//! The Bluetooth channel access code.
//!
//! Every baseband packet opens with a 72-bit access code: a 4-bit alternating
//! preamble, a 64-bit sync word, and a 4-bit alternating trailer. The sync
//! word is built from the device's 24-bit LAP via a (64,30) expurgated BCH
//! code XOR-masked with a fixed PN sequence (Baseband spec part B, §6.3.3);
//! this gives any two distinct devices' sync words a large Hamming distance,
//! which is what makes sliding-correlation packet acquisition reliable.

use rfd_dsp::coding::{gf2_mod, u64_to_bits_lsb};

/// The 64-bit PN sequence used to pseudo-randomize the sync word
/// (full-length member of the length-63 m-sequence family, per the spec).
pub(crate) const PN_SEQUENCE: u64 = 0x83848D96BBCC54FC;

/// Generator polynomial of the (64,30) BCH code, degree 34
/// (octal 260534236651 per the spec).
pub(crate) const BCH_GENERATOR: u128 = 0o260534236651;

/// Builds the 64-bit sync word for a 24-bit LAP.
///
/// Bit 0 of the returned word is the first bit transmitted.
pub fn sync_word(lap: u32) -> u64 {
    let lap = (lap & 0x00FF_FFFF) as u64;
    // Append the 6-bit Barker completion: 001101 if a23 == 0, 110010 if 1
    // (values read LSB-first into bits 24..30).
    let barker: u64 = if (lap >> 23) & 1 == 0 {
        0b101100
    } else {
        0b010011
    };
    let info: u64 = lap | (barker << 24); // 30 bits
                                          // XOR the information bits with the 30 most-significant PN bits.
    let p_hi = PN_SEQUENCE >> 34;
    let x = info ^ p_hi;
    // Systematic BCH encode: codeword = x * D^34 + (x * D^34 mod g).
    let parity = gf2_mod(x as u128, 30, BCH_GENERATOR, 34) as u64;
    let codeword = (x << 34) | parity;
    // Final XOR with the full PN sequence.
    codeword ^ PN_SEQUENCE
}

/// A complete 72-bit access code, in transmission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AccessCode {
    /// The LAP it was derived from.
    pub lap: u32,
    /// The 64-bit sync word.
    pub sync: u64,
    /// All 72 bits (preamble + sync + trailer), first-transmitted first.
    pub bits: Vec<bool>,
}

impl AccessCode {
    /// Builds the access code for a LAP. The trailer is included (it is
    /// present whenever a header follows, which is the case for every packet
    /// type we generate).
    pub fn new(lap: u32) -> Self {
        let sync = sync_word(lap);
        let s0 = sync & 1 == 1;
        let s63 = (sync >> 63) & 1 == 1;
        let mut bits = Vec::with_capacity(72);
        // Preamble: 1010 if s0 = 1, 0101 if s0 = 0 (transmission order),
        // forming five alternating bits with s0.
        for i in 0..4 {
            bits.push(s0 ^ (i % 2 == 1));
        }
        bits.extend(u64_to_bits_lsb(sync, 64));
        // Trailer: alternating, starting opposite to s63.
        for i in 0..4 {
            bits.push(!s63 ^ (i % 2 == 1));
        }
        Self { lap, sync, bits }
    }
}

/// Correlation threshold for declaring a sync-word hit: the spec recommends
/// tolerating a handful of bit errors; BlueSniff-style sniffers use ≥ 57 of
/// 64 matching bits.
pub(crate) const SYNC_CORR_THRESHOLD: u32 = 57;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_word_is_deterministic() {
        assert_eq!(sync_word(0x9E8B33), sync_word(0x9E8B33));
        assert_ne!(sync_word(0x9E8B33), sync_word(0x9E8B34));
    }

    #[test]
    fn distinct_laps_have_large_hamming_distance() {
        // The underlying BCH code has d_min = 14; distinct LAPs must differ
        // in at least 14 sync-word bits.
        let laps = [
            0x000000u32,
            0x000001,
            0x9E8B33,
            0xFFFFFF,
            0x123456,
            0xABCDEF,
            0x800000,
        ];
        for (i, &a) in laps.iter().enumerate() {
            for &b in laps.iter().skip(i + 1) {
                let d = (sync_word(a) ^ sync_word(b)).count_ones();
                assert!(d >= 14, "laps {a:06x}/{b:06x} distance {d}");
            }
        }
    }

    #[test]
    fn random_lap_pairs_respect_minimum_distance() {
        // Broader sample over the LAP space.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xFF_FFFF) as u32
        };
        let laps: Vec<u32> = (0..40).map(|_| next()).collect();
        for (i, &a) in laps.iter().enumerate() {
            for &b in laps.iter().skip(i + 1) {
                if a == b {
                    continue;
                }
                let d = (sync_word(a) ^ sync_word(b)).count_ones();
                assert!(d >= 14, "laps {a:06x}/{b:06x} distance {d}");
            }
        }
    }

    #[test]
    fn access_code_is_72_bits_with_alternating_ends() {
        let ac = AccessCode::new(0x9E8B33);
        // Preamble 4 + sync 64 + trailer 4.
        assert_eq!(ac.bits.len(), 72);
        // Preamble alternates and joins sync bit 0 alternately.
        for i in 0..3 {
            assert_ne!(ac.bits[i], ac.bits[i + 1], "preamble must alternate");
        }
        assert_ne!(ac.bits[3], ac.bits[4], "preamble->sync must alternate");
        // Trailer alternates and joins the last sync bit alternately.
        assert_ne!(ac.bits[67], ac.bits[68], "sync->trailer must alternate");
        for i in 68..71 {
            assert_ne!(ac.bits[i], ac.bits[i + 1], "trailer must alternate");
        }
    }
}
