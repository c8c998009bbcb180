//! IEEE 802.15.4 (2.4 GHz O-QPSK PHY), i.e. the ZigBee PHY.
//!
//! This is the protocol the RFDump paper repeatedly uses as its
//! *extensibility* example (Table 2, §3.2): 2 Mchips/s, 32-chip DSSS with
//! 16 PN sequences, half-sine (MSK-equivalent) O-QPSK shaping, 62.5 ksym/s.
//!
//! The implementation covers the full PPDU: SHR (8-symbol preamble + SFD),
//! PHR (7-bit length), PSDU with CRC-16 FCS; a modulator producing complex
//! baseband at a configurable integer number of samples per chip; and a
//! noncoherent MSK-style receiver (chip detection via phase increments,
//! despreading by best-of-16 correlation).

use crate::Waveform;
use rfd_dsp::coding::{bits_to_bytes_lsb, Crc};
use rfd_dsp::phase::wrap_phase;
use rfd_dsp::Complex32;

/// Chip rate of the 2.4 GHz PHY.
pub const CHIP_RATE: f64 = 2e6;
/// Chips per symbol (4 bits per symbol, 62.5 ksym/s).
pub(crate) const CHIPS_PER_SYMBOL: usize = 32;
/// Occupied channel width (approximately; the main lobe).
pub const CHANNEL_WIDTH_HZ: f64 = 5e6;
/// MAC/PHY timing: one backoff period = 20 symbols = 320 µs (Table 2).
pub const BACKOFF_US: f64 = 320.0;
/// Turnaround/ack gap `t_ACK` = 12 symbols = 192 µs (Table 2's 192).
pub const TACK_US: f64 = 192.0;
/// LIFS (long interframe space) = 40 symbols = 640 µs; paper's Table 2
/// quotes the 600 µs order of magnitude.
pub const LIFS_US: f64 = 640.0;

/// The 16 PN sequences (IEEE 802.15.4-2006 Table 24), chip 0 first,
/// bit i of the u32 = chip i.
pub(crate) const PN: [u32; 16] = [
    0b1101_1001_1100_0011_0101_0010_0010_1110,
    0b1110_1101_1001_1100_0011_0101_0010_0010,
    0b0010_1110_1101_1001_1100_0011_0101_0010,
    0b0010_0010_1110_1101_1001_1100_0011_0101,
    0b0101_0010_0010_1110_1101_1001_1100_0011,
    0b0011_0101_0010_0010_1110_1101_1001_1100,
    0b1100_0011_0101_0010_0010_1110_1101_1001,
    0b1001_1100_0011_0101_0010_0010_1110_1101,
    0b1000_1100_1001_0110_0000_0111_0111_1011,
    0b1011_1000_1100_1001_0110_0000_0111_0111,
    0b0111_1011_1000_1100_1001_0110_0000_0111,
    0b0111_0111_1011_1000_1100_1001_0110_0000,
    0b0000_0111_0111_1011_1000_1100_1001_0110,
    0b0110_0000_0111_0111_1011_1000_1100_1001,
    0b1001_0110_0000_0111_0111_1011_1000_1100,
    0b1100_1001_0110_0000_0111_0111_1011_1000,
];

/// SHR: 8 zero symbols of preamble followed by the SFD byte 0xA7.
pub(crate) const PREAMBLE_SYMBOLS: usize = 8;
/// Start-of-frame delimiter.
pub(crate) const SFD: u8 = 0xA7;

// NOTE on bit order inside PN constants: the binary literals above read
// left-to-right as chip 31 .. chip 0 because Rust literals are MSB-first;
// `chip(seq, i)` accounts for that.

/// Chip `i` (0 = first transmitted) of PN sequence `s`.
#[inline]
pub(crate) fn chip(s: u8, i: usize) -> bool {
    debug_assert!(i < 32);
    (PN[s as usize] >> (31 - i)) & 1 == 1
}

/// A PHY frame: just the PSDU (MAC frame) bytes; the FCS is appended by the
/// builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZigbeeFrame {
    /// MAC payload without FCS.
    pub payload: Vec<u8>,
}

impl ZigbeeFrame {
    /// Creates a frame; payload + 2-byte FCS must fit the 127-byte PSDU.
    pub fn new(payload: Vec<u8>) -> Self {
        assert!(payload.len() + 2 <= 127, "PSDU limit is 127 bytes");
        Self { payload }
    }

    /// PSDU bytes including FCS.
    pub(crate) fn psdu(&self) -> Vec<u8> {
        let mut v = self.payload.clone();
        let fcs = Crc::crc16_802154().compute(&v) as u16;
        v.extend_from_slice(&fcs.to_le_bytes());
        v
    }

    /// Parses and FCS-verifies a PSDU.
    pub(crate) fn from_psdu(psdu: &[u8]) -> Option<Self> {
        if psdu.len() < 2 {
            return None;
        }
        let (data, fcs) = psdu.split_at(psdu.len() - 2);
        let rx = u16::from_le_bytes(fcs.try_into().ok()?);
        if Crc::crc16_802154().compute(data) as u16 != rx {
            return None;
        }
        Some(Self {
            payload: data.to_vec(),
        })
    }

    /// Total airtime in microseconds (SHR + PHR + PSDU at 62.5 ksym/s).
    pub fn airtime_us(&self) -> f64 {
        let symbols = (PREAMBLE_SYMBOLS + 2 + 2 + (self.psdu().len()) * 2) as f64;
        symbols * 16.0 // 16 us per symbol
    }
}

/// The 4-bit data symbols of a full PPDU: preamble, SFD, PHR (length), PSDU.
pub(crate) fn ppdu_symbols(frame: &ZigbeeFrame) -> Vec<u8> {
    let psdu = frame.psdu();
    let mut nibbles = Vec::with_capacity(PREAMBLE_SYMBOLS + 2 + 2 + psdu.len() * 2);
    nibbles.extend(std::iter::repeat_n(0u8, PREAMBLE_SYMBOLS));
    nibbles.push(SFD & 0x0F);
    nibbles.push(SFD >> 4);
    let phr = psdu.len() as u8 & 0x7F;
    nibbles.push(phr & 0x0F);
    nibbles.push(phr >> 4);
    for b in &psdu {
        nibbles.push(b & 0x0F);
        nibbles.push(b >> 4);
    }
    nibbles
}

/// Modulates a frame with O-QPSK half-sine shaping.
///
/// `samples_per_chip` must be ≥ 2 and even (the I/Q half-chip offset is
/// `samples_per_chip/2` samples). At 4 samples/chip the output rate is the
/// monitor's 8 Msps.
pub fn modulate(frame: &ZigbeeFrame, samples_per_chip: usize) -> Waveform {
    assert!(samples_per_chip >= 2 && samples_per_chip.is_multiple_of(2));
    let symbols = ppdu_symbols(frame);
    let nchips = symbols.len() * CHIPS_PER_SYMBOL;
    let spc = samples_per_chip;
    // Each I (even) or Q (odd) chip is stretched over 2 chip periods with a
    // half-sine pulse; Q is delayed by one chip period.
    let total = nchips * spc + spc; // room for the trailing Q half
    let mut i_rail = vec![0.0f32; total];
    let mut q_rail = vec![0.0f32; total];
    let pulse: Vec<f32> = (0..2 * spc)
        .map(|k| ((k as f64 + 0.5) * std::f64::consts::PI / (2 * spc) as f64).sin() as f32)
        .collect();
    let mut chip_idx = 0usize;
    for &sym in &symbols {
        for c in 0..CHIPS_PER_SYMBOL {
            let bit = chip(sym, c);
            let v = if bit { 1.0 } else { -1.0 };
            let start = (chip_idx / 2) * 2 * spc + if chip_idx % 2 == 1 { spc } else { 0 };
            let rail = if chip_idx.is_multiple_of(2) {
                &mut i_rail
            } else {
                &mut q_rail
            };
            for (k, &p) in pulse.iter().enumerate() {
                if start + k < total {
                    rail[start + k] += v * p;
                }
            }
            chip_idx += 1;
        }
    }
    let samples: Vec<Complex32> = i_rail
        .iter()
        .zip(q_rail.iter())
        .map(|(&i, &q)| Complex32::new(i, q))
        .collect();
    Waveform {
        samples,
        sample_rate: CHIP_RATE * spc as f64,
    }
}

/// Demodulates a sample block: noncoherent MSK chip detection, symbol sync
/// via preamble/SFD search, despreading by best-of-16 correlation, PHR/PSDU
/// extraction and FCS check.
///
/// `samples` must be at `CHIP_RATE * spc` for integer `spc` (resample first
/// otherwise).
///
/// Half-sine O-QPSK **is** MSK: the carrier phase advances by exactly ±π/2
/// between consecutive chip centers. The rotation direction is a function of
/// the *pair* of adjacent chips and the chip parity (because I and Q rails
/// alternate), so the receiver measures the sign sequence of center-to-center
/// phase increments and runs it through a differential chain
/// `a[k+1] = a[k] ⊕ (s[k] ⊕ parity(k))`, trying both initial values and both
/// parities (via the sample-offset search) and keeping the hypothesis that
/// best matches the known preamble.
pub fn demodulate(samples: &[Complex32], samples_per_chip: usize) -> Option<ZigbeeFrame> {
    let spc = samples_per_chip;
    if samples.len() < (PREAMBLE_SYMBOLS + 4) * CHIPS_PER_SYMBOL * spc {
        return None;
    }
    let sym0 = symbol_pattern(0);
    // Collect every plausible (sampling offset, chain init, alignment)
    // hypothesis: a two-symbol preamble correlation ≥ 60/64. The payload can
    // legitimately contain two consecutive symbol-0s (64 chips identical to
    // preamble), and a wrong sampling phase can still slice chips well
    // enough to score perfectly — so candidates are *verified* by the
    // SFD + FCS parse rather than trusted on score.
    let mut candidates: Vec<(Vec<bool>, usize, u32)> = Vec::new();
    for off in 0..spc * 2 {
        let signs = extract_increment_signs(samples, spc, off);
        if signs.len() < 65 {
            continue;
        }
        for init in [false, true] {
            let chips = differential_chain(&signs, init);
            let search = chips.len().saturating_sub(64).min(600);
            let mut w = 0usize;
            while w < search {
                let agree = (0..64).filter(|&i| chips[w + i] == sym0[i % 32]).count() as u32;
                if agree >= 60 {
                    candidates.push((chips.clone(), w, agree));
                    // Skip past this preamble region; nearby offsets are the
                    // same lock.
                    w += 24;
                } else {
                    w += 1;
                }
            }
        }
    }
    // Best score first, earliest alignment breaking ties.
    candidates.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)));
    candidates.truncate(16);
    for (chips, align, _score) in &candidates {
        if let Some(frame) = try_parse(chips, *align) {
            return Some(frame);
        }
    }
    None
}

/// Attempts to parse a PPDU from `chips` assuming a preamble symbol starts
/// at `align`: despread, locate the SFD, read PHR and PSDU, verify the FCS.
fn try_parse(chips: &[bool], align: usize) -> Option<ZigbeeFrame> {
    let nsym = (chips.len() - align) / 32;
    if nsym < 4 {
        return None;
    }
    let symbols: Vec<(u8, u32)> = (0..nsym)
        .map(|s| despread(&chips[align + s * 32..align + s * 32 + 32]))
        .collect();
    // Find SFD: symbol pair (7, 10) = 0xA7 nibbles (low first: 7 then A),
    // preceded by a preamble symbol 0.
    let sfd_pos = (1..symbols.len().saturating_sub(3)).find(|&i| {
        symbols[i].0 == (SFD & 0x0F) && symbols[i + 1].0 == (SFD >> 4) && symbols[i - 1].0 == 0
    })?;
    let phr_lo = symbols.get(sfd_pos + 2)?.0;
    let phr_hi = symbols.get(sfd_pos + 3)?.0;
    let len = ((phr_hi << 4) | phr_lo) as usize & 0x7F;
    let data_start = sfd_pos + 4;
    if data_start + len * 2 > symbols.len() {
        return None;
    }
    let mut bits = Vec::with_capacity(len * 8);
    for k in 0..len * 2 {
        let nib = symbols[data_start + k].0;
        for b in 0..4 {
            bits.push((nib >> b) & 1 == 1);
        }
    }
    let psdu = bits_to_bytes_lsb(&bits);
    ZigbeeFrame::from_psdu(&psdu)
}

/// The chip pattern of data symbol `s` as a bool vector.
fn symbol_pattern(s: u8) -> Vec<bool> {
    (0..32).map(|i| chip(s, i)).collect()
}

/// Signs of the phase increments between consecutive chip centers starting
/// at sample offset `off` (`true` = counterclockwise).
fn extract_increment_signs(samples: &[Complex32], spc: usize, off: usize) -> Vec<bool> {
    let mut signs = Vec::with_capacity(samples.len() / spc);
    let mut i = off;
    while i + spc < samples.len() {
        let d = wrap_phase((samples[i + spc] * samples[i].conj()).arg());
        signs.push(d > 0.0);
        i += spc;
    }
    signs
}

/// Runs the MSK differential chain: `a[k+1] = a[k] ^ s[k] ^ (k even)`,
/// starting from hypothesis `a[0] = init`. Output length is
/// `signs.len() + 1`.
fn differential_chain(signs: &[bool], init: bool) -> Vec<bool> {
    let mut chips = Vec::with_capacity(signs.len() + 1);
    let mut a = init;
    chips.push(a);
    for (k, &s) in signs.iter().enumerate() {
        a = a ^ s ^ (k % 2 == 0);
        chips.push(a);
    }
    chips
}

/// Despreads 32 chips: returns (best symbol, agreement count).
fn despread(chips: &[bool]) -> (u8, u32) {
    let mut word = 0u32;
    for (i, &c) in chips.iter().enumerate() {
        if c {
            word |= 1 << (31 - i);
        }
    }
    let mut best_sym = 0u8;
    let mut best_score = 0u32;
    for s in 0..16u8 {
        let agree = 32 - (word ^ PN[s as usize]).count_ones();
        if agree > best_score {
            best_score = agree;
            best_sym = s;
        }
    }
    (best_sym, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::rng::GaussianGen;

    #[test]
    fn pn_sequences_are_distinct_and_balanced() {
        for (i, &a) in PN.iter().enumerate() {
            for &b in PN.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
            let ones = a.count_ones();
            assert!((12..=20).contains(&ones), "sequence {i} unbalanced: {ones}");
        }
    }

    #[test]
    fn pn_cross_correlation_is_low() {
        // The first 8 sequences are cyclic shifts; any two distinct
        // sequences should agree in well under 32 positions.
        for (i, &pi) in PN.iter().enumerate() {
            for (j, &pj) in PN.iter().enumerate() {
                if i == j {
                    continue;
                }
                let agree = 32 - (pi ^ pj).count_ones();
                assert!(agree <= 24, "PN {i} vs {j}: {agree}");
            }
        }
    }

    #[test]
    fn psdu_round_trip_with_fcs() {
        let f = ZigbeeFrame::new(vec![1, 2, 3, 4, 5]);
        let psdu = f.psdu();
        assert_eq!(psdu.len(), 7);
        assert_eq!(ZigbeeFrame::from_psdu(&psdu).unwrap(), f);
        let mut bad = psdu.clone();
        bad[2] ^= 1;
        assert!(ZigbeeFrame::from_psdu(&bad).is_none());
    }

    #[test]
    fn ppdu_symbol_structure() {
        let f = ZigbeeFrame::new(vec![0xAB]);
        let syms = ppdu_symbols(&f);
        // 8 preamble + 2 SFD + 2 PHR + 3 bytes * 2 nibbles.
        assert_eq!(syms.len(), 8 + 2 + 2 + 6);
        assert!(syms[..8].iter().all(|&s| s == 0));
        assert_eq!(syms[8], 0x7);
        assert_eq!(syms[9], 0xA);
    }

    #[test]
    fn modulated_envelope_is_nearly_constant() {
        // Half-sine O-QPSK is constant-envelope away from the edges.
        let f = ZigbeeFrame::new(vec![0x55; 10]);
        let w = modulate(&f, 4);
        let mid = &w.samples[200..w.samples.len() - 200];
        for z in mid {
            assert!((z.abs() - 1.0).abs() < 0.05, "envelope {}", z.abs());
        }
    }

    #[test]
    fn clean_round_trip() {
        let f = ZigbeeFrame::new((0..40).map(|i| (i * 7) as u8).collect());
        let w = modulate(&f, 4);
        let mut sig = vec![Complex32::ZERO; 64];
        sig.extend_from_slice(&w.samples);
        sig.extend(vec![Complex32::ZERO; 64]);
        let rx = demodulate(&sig, 4).expect("decode");
        assert_eq!(rx, f);
    }

    #[test]
    fn round_trip_with_noise() {
        let f = ZigbeeFrame::new(vec![0xDE, 0xAD, 0xBE, 0xEF, 9, 9, 9]);
        let w = modulate(&f, 4);
        let mut sig = vec![Complex32::ZERO; 100];
        sig.extend_from_slice(&w.samples);
        sig.extend(vec![Complex32::ZERO; 100]);
        GaussianGen::new(21).add_awgn(&mut sig, 0.03); // ~15 dB
        let rx = demodulate(&sig, 4).expect("decode under noise");
        assert_eq!(rx, f);
    }

    #[test]
    fn noise_only_rejected() {
        let mut sig = vec![Complex32::ZERO; 20_000];
        GaussianGen::new(8).add_awgn(&mut sig, 0.2);
        assert!(demodulate(&sig, 4).is_none());
    }

    #[test]
    fn airtime_formula() {
        let f = ZigbeeFrame::new(vec![0; 18]); // PSDU 20 bytes
                                               // (8 + 2 + 2 + 40 symbols) * 16 us.
        assert!((f.airtime_us() - 52.0 * 16.0).abs() < 1e-9);
    }
}
