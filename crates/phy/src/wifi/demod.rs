//! 802.11b receive chain.
//!
//! Two entry points:
//!
//! * [`demodulate`] — one-shot decode of a sample block believed to contain a
//!   single frame (what RFDump's analysis stage calls after the detection
//!   stage has isolated a peak).
//! * [`WifiRx`] — a continuously running receiver that performs full-rate
//!   despreading and SFD search over an unbounded stream. This is the
//!   expensive block the *naïve* architecture runs over every sample, and it
//!   is deliberately implemented the way a real continuous DSSS receiver
//!   works (sliding Barker correlation at every chip offset, per-phase
//!   differential decode and SFD matching) so its CPU cost is honest.
//!
//! The receiver resamples its input to the 11 Mchips/s chip rate first; when
//! the input is the paper's 8 Msps USRP stream this reproduces the awkward
//! 11:8 reconstruction the paper describes.

use super::barker::despread_symbol;
use super::cck;
use super::frame::MacFrame;
use super::plcp::{sfd_bits, PlcpHeader, WifiRate};
use rfd_dsp::coding::{bits_to_bytes_lsb, crc32, Scrambler};
use rfd_dsp::resample::resample_windowed_sinc;
use rfd_dsp::Complex32;
use std::f32::consts::FRAC_PI_2;

/// Maximum PSDU length we will attempt to decode (guards against a corrupt
/// LENGTH field that still passed the CRC).
pub(crate) const MAX_PSDU: usize = 4096;

/// Result of a successful 802.11b decode.
#[derive(Debug, Clone)]
pub struct WifiRxResult {
    /// The decoded PLCP header.
    pub header: PlcpHeader,
    /// The raw PSDU bytes (including FCS).
    pub psdu: Vec<u8>,
    /// Whether the MAC FCS verified.
    pub fcs_ok: bool,
    /// The parsed MAC frame when the FCS verified and the type is known.
    pub frame: Option<MacFrame>,
    /// Chip index (at 11 Mcps, relative to the start of the input block)
    /// where the frame's preamble begins.
    pub start_chip: usize,
}

/// Decodes a dibit from a DQPSK phase increment (inverse of the modulator's
/// Gray mapping).
fn dqpsk_decode(delta: f32) -> (bool, bool) {
    let quad = ((delta / FRAC_PI_2).round().rem_euclid(4.0)) as u8;
    match quad {
        0 => (false, false),
        1 => (false, true),
        2 => (true, true),
        _ => (true, false),
    }
}

/// One-shot demodulation of a block of samples containing (at most) one
/// 802.11b frame. `sample_rate` is the rate of `samples`; anything other
/// than 11 Msps is resampled first.
pub fn demodulate(samples: &[Complex32], sample_rate: f64) -> Option<WifiRxResult> {
    let chips_owned;
    let chips: &[Complex32] = if (sample_rate - super::CHIP_RATE).abs() < 1.0 {
        samples
    } else {
        chips_owned = resample_windowed_sinc(samples, sample_rate, super::CHIP_RATE, 8);
        &chips_owned
    };
    if chips.len() < 192 * 11 {
        return None; // can't even hold a preamble
    }

    // Coarse start: first chip where local power reaches a fraction of the
    // block's sustained level.
    let peak_power = sustained_power(chips);
    let threshold = peak_power * 0.25;
    let coarse = (0..chips.len().saturating_sub(22))
        .find(|&i| window_power(&chips[i..i + 22]) > threshold)?;

    // Fine chip alignment: try the 11 offsets after the coarse start and
    // keep the one with the strongest despread magnitude over the first
    // 30 symbols.
    let mut best_off = coarse;
    let mut best_metric = -1.0f32;
    for off in coarse..(coarse + 11).min(chips.len()) {
        let mut metric = 0.0;
        for s in 0..30 {
            let a = off + s * 11;
            if a + 11 > chips.len() {
                break;
            }
            metric += despread_symbol(&chips[a..a + 11]).abs();
        }
        if metric > best_metric {
            best_metric = metric;
            best_off = off;
        }
    }

    decode_from(chips, best_off).map(|mut r| {
        r.start_chip = best_off;
        r
    })
}

/// Sustained (75th percentile of windowed) power — robust to a noise prefix.
fn sustained_power(chips: &[Complex32]) -> f32 {
    let mut powers: Vec<f32> = chips.chunks(64).map(window_power).collect();
    // Under a total order the selected element is bitwise the sorted one.
    let at = (powers.len() - 1) * 3 / 4;
    *powers.select_nth_unstable_by(at, f32::total_cmp).1
}

fn window_power(w: &[Complex32]) -> f32 {
    rfd_dsp::complex::mean_power(w)
}

/// Decodes a frame whose first preamble chip is at `off` in `chips`.
fn decode_from(chips: &[Complex32], off: usize) -> Option<WifiRxResult> {
    // Despread every full symbol from the alignment point. The 1 Mbps
    // portion (sync + SFD + header) sits at the front; for 1 Mbps PSDUs the
    // same symbol stream carries the payload too.
    let nsyms = (chips.len() - off) / 11;
    let mut syms = Vec::with_capacity(nsyms);
    for s in 0..nsyms {
        let a = off + s * 11;
        syms.push(despread_symbol(&chips[a..a + 11]));
    }
    if syms.len() < 64 {
        return None;
    }

    // DBPSK differential decode (first symbol is the phase reference).
    let mut raw_bits = Vec::with_capacity(syms.len() - 1);
    for w in syms.windows(2) {
        raw_bits.push((w[1] * w[0].conj()).re < 0.0);
    }

    // Self-synchronizing descramble; the seed does not matter after 7 bits.
    let mut desc = Scrambler::new(0);
    let bits = desc.descramble(&raw_bits);

    // Find the SFD; it must appear near the front (sync is at most 128 bits
    // plus a little slack for an imprecise block start).
    let sfd = sfd_bits();
    let sfd_pos = find_pattern(&bits, &sfd, 400)?;
    let hdr_start = sfd_pos + 16;
    if hdr_start + 48 > bits.len() {
        return None;
    }
    let header = PlcpHeader::from_bits(&bits[hdr_start..hdr_start + 48])?;
    let psdu_len = header.psdu_len().min(MAX_PSDU);

    // Chip index where the PSDU starts: symbols consumed so far is
    // (hdr_start + 48) bits + 1 reference symbol.
    let psdu_sym0 = hdr_start + 48 + 1;
    let psdu_chip0 = off + psdu_sym0 * 11;

    // Scrambler state for the PSDU continues from the header; rebuild a
    // descrambler primed with the last 7 raw (scrambled) bits of the header.
    let mut psdu_desc = Scrambler::new(0);
    for &b in &raw_bits[psdu_sym0.saturating_sub(8)..psdu_sym0 - 1] {
        psdu_desc.descramble_bit(b);
    }

    let nbits = psdu_len * 8;
    let mut psdu_bits = Vec::with_capacity(nbits);
    match header.rate {
        WifiRate::R1 => {
            let have = raw_bits.len().saturating_sub(psdu_sym0 - 1);
            if have < nbits {
                return None;
            }
            for &b in &raw_bits[psdu_sym0 - 1..psdu_sym0 - 1 + nbits] {
                psdu_bits.push(psdu_desc.descramble_bit(b));
            }
        }
        WifiRate::R2 => {
            let nsyms = nbits / 2;
            let mut prev = syms.get(psdu_sym0 - 1).copied()?;
            for s in 0..nsyms {
                let a = psdu_chip0 + s * 11;
                if a + 11 > chips.len() {
                    return None;
                }
                let cur = despread_symbol(&chips[a..a + 11]);
                let (d0, d1) = dqpsk_decode((cur * prev.conj()).arg());
                psdu_bits.push(psdu_desc.descramble_bit(d0));
                psdu_bits.push(psdu_desc.descramble_bit(d1));
                prev = cur;
            }
        }
        WifiRate::R5_5 | WifiRate::R11 => {
            let bps = header.rate.bits_per_symbol();
            let nsyms = nbits / bps;
            let mut phase_ref = syms.get(psdu_sym0 - 1)?.arg();
            for s in 0..nsyms {
                let a = psdu_chip0 + s * 8;
                if a + 8 > chips.len() {
                    return None;
                }
                let (bits, _q) = cck::decode_symbol(&chips[a..a + 8], bps, &mut phase_ref, s);
                for b in bits {
                    psdu_bits.push(psdu_desc.descramble_bit(b));
                }
            }
        }
    }

    let psdu = bits_to_bytes_lsb(&psdu_bits);
    let frame = MacFrame::from_bytes(&psdu);
    let fcs_ok = frame.is_some() || fcs_raw_ok(&psdu);
    Some(WifiRxResult {
        header,
        psdu,
        fcs_ok,
        frame,
        start_chip: off,
    })
}

/// Checks the trailing CRC-32 over a PSDU even if the MAC type is unknown.
fn fcs_raw_ok(psdu: &[u8]) -> bool {
    if psdu.len() < 4 {
        return false;
    }
    let (data, fcs) = psdu.split_at(psdu.len() - 4);
    crc32(data) == u32::from_le_bytes(fcs.try_into().unwrap())
}

/// Finds `pattern` in `bits[..limit]`, returning the start index.
fn find_pattern(bits: &[bool], pattern: &[bool], limit: usize) -> Option<usize> {
    let limit = limit.min(bits.len());
    if pattern.len() > limit {
        return None;
    }
    (0..=limit - pattern.len()).find(|&i| bits[i..i + pattern.len()] == *pattern)
}

// ---------------------------------------------------------------------------
// Continuous receiver (the naïve architecture's workhorse)
// ---------------------------------------------------------------------------

/// A continuously-running 802.11b receiver.
///
/// Performs full-rate work on every input sample: resampling to chip rate,
/// sliding Barker correlation at every chip offset, then differential decode
/// and descrambled-SFD search on all 11 comb phases. When an SFD is found
/// the frame start is queued; once the frame's chips have all arrived, the
/// buffered region is handed to the one-shot decoder.
pub struct WifiRx {
    input_rate: f64,
    /// Buffered chips at 11 Mcps awaiting packet extraction.
    chips: Vec<Complex32>,
    /// Absolute chip index of `chips[0]` since stream start.
    chip_base: u64,
    /// Per comb-phase SFD matchers.
    phases: Vec<PhaseScanner>,
    /// Sliding despread values (`corr[i]` despreads `chips[i..i+11]`).
    corr: Vec<Complex32>,
    /// Frame starts (absolute chip index) whose decode is awaiting data.
    pending: Vec<u64>,
    /// Decoded frames.
    results: Vec<WifiRxResult>,
    /// Frames starting before this absolute chip index are duplicates.
    decoded_until: u64,
}

struct PhaseScanner {
    prev_sym: Complex32,
    descrambler: Scrambler,
    shift: u16,
    /// Symbols of this phase consumed so far (index into the comb).
    seen: usize,
}

impl PhaseScanner {
    fn new() -> Self {
        Self {
            prev_sym: Complex32::ONE,
            descrambler: Scrambler::new(0),
            shift: 0,
            seen: 0,
        }
    }
}

/// Baseline chip history (~9 ms): must cover the longest frame we expect to
/// decode end-to-end. Trimming never evicts a pending frame start, so longer
/// frames survive as long as they are being tracked.
const HISTORY_CHIPS: usize = 100_000;

impl WifiRx {
    /// Creates a receiver for an input stream at `input_rate`.
    pub fn new(input_rate: f64) -> Self {
        Self {
            input_rate,
            chips: Vec::new(),
            chip_base: 0,
            phases: (0..11).map(|_| PhaseScanner::new()).collect(),
            corr: Vec::new(),
            pending: Vec::new(),
            results: Vec::new(),
            decoded_until: 0,
        }
    }

    /// Processes a block of input samples; any frames completed inside the
    /// buffered history are appended to the result list.
    ///
    /// Each call resamples its block to the chip rate on its own: no filter
    /// state carries across calls, so the chips at a call boundary differ
    /// from those of one uninterrupted call. A continuous capture's records
    /// therefore depend on how it is partitioned into calls; a caller that
    /// needs repeatable records must fix that partition.
    pub fn process(&mut self, samples: &[Complex32]) {
        let new_chips = if (self.input_rate - super::CHIP_RATE).abs() < 1.0 {
            samples.to_vec()
        } else {
            resample_windowed_sinc(samples, self.input_rate, super::CHIP_RATE, 8)
        };
        self.chips.extend_from_slice(&new_chips);

        // Extend the sliding despread correlation (corr[i] needs chips
        // through i+10).
        while self.corr.len() + 11 <= self.chips.len() {
            let i = self.corr.len();
            self.corr.push(despread_symbol(&self.chips[i..i + 11]));
        }

        // Scan each comb phase for SFDs at symbol cadence.
        let sfd = sfd_pattern_u16();
        for p in 0..11usize {
            loop {
                let s = self.phases[p].seen;
                let idx = s * 11 + p;
                if idx >= self.corr.len() {
                    break;
                }
                let cur = self.corr[idx];
                let scanner = &mut self.phases[p];
                let bit = (cur * scanner.prev_sym.conj()).re < 0.0;
                scanner.prev_sym = cur;
                let descrambled = scanner.descrambler.descramble_bit(bit);
                scanner.shift = (scanner.shift >> 1) | ((descrambled as u16) << 15);
                scanner.seen += 1;
                if scanner.shift == sfd {
                    // The SFD's last bit (packet bit 143) is decoded while
                    // processing packet symbol 143, so the preamble begins
                    // 143 symbols earlier.
                    let abs_start = (self.chip_base + idx as u64).saturating_sub(143 * 11);
                    if abs_start >= self.decoded_until
                        && !self.pending.iter().any(|&q| q.abs_diff(abs_start) < 22)
                    {
                        self.pending.push(abs_start);
                    }
                }
            }
        }

        self.drain_pending();
        self.trim_history();
    }

    /// Attempts to decode queued frame starts whose data has arrived.
    fn drain_pending(&mut self) {
        let mut keep = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for abs_start in pending {
            if abs_start < self.chip_base {
                continue; // evicted (should not happen; trim protects these)
            }
            if abs_start < self.decoded_until {
                continue; // duplicate of an already-decoded frame
            }
            let rel = (abs_start - self.chip_base) as usize;
            // Need the header (symbols 144..192 plus one despread window).
            if rel + 193 * 11 + 11 > self.chips.len() {
                keep.push(abs_start);
                continue;
            }
            match self.peek_header(rel) {
                None => continue, // false SFD hit; drop
                Some(header) => {
                    let frame_chips = frame_len_chips(&header);
                    if rel + frame_chips + 11 > self.chips.len() {
                        // Frame longer than what we will ever buffer? Give up.
                        if frame_chips > 4 * HISTORY_CHIPS {
                            continue;
                        }
                        keep.push(abs_start);
                        continue;
                    }
                    if let Some(mut r) = decode_from(&self.chips, rel) {
                        r.start_chip = abs_start as usize;
                        self.decoded_until = abs_start + frame_chips as u64;
                        self.results.push(r);
                    }
                }
            }
        }
        self.pending = keep;
    }

    /// Parses just the PLCP header of a frame starting at relative chip
    /// `rel`, without decoding the PSDU.
    fn peek_header(&self, rel: usize) -> Option<PlcpHeader> {
        // Despread symbols 143..192 (one reference + 48 header bits).
        let mut syms = Vec::with_capacity(49);
        for s in 143..192 {
            let a = rel + s * 11;
            syms.push(despread_symbol(&self.chips[a..a + 11]));
        }
        let mut raw = Vec::with_capacity(48);
        for w in syms.windows(2) {
            raw.push((w[1] * w[0].conj()).re < 0.0);
        }
        // Warm the descrambler with the 7 scrambled bits before the header
        // (despread symbols 136..144).
        let mut desc = Scrambler::new(0);
        let mut warm = Vec::new();
        for s in 135..144 {
            let a = rel + s * 11;
            warm.push(despread_symbol(&self.chips[a..a + 11]));
        }
        for w in warm.windows(2) {
            desc.descramble_bit((w[1] * w[0].conj()).re < 0.0);
        }
        let bits: Vec<bool> = raw.iter().map(|&b| desc.descramble_bit(b)).collect();
        PlcpHeader::from_bits(&bits)
    }

    fn trim_history(&mut self) {
        if self.chips.len() <= HISTORY_CHIPS {
            return;
        }
        let mut cut = self.chips.len() - HISTORY_CHIPS;
        // Never evict a pending frame start (keep a small preamble margin).
        if let Some(&min_pending) = self.pending.iter().min() {
            let rel = (min_pending.saturating_sub(self.chip_base)) as usize;
            cut = cut.min(rel.saturating_sub(11));
        }
        // Keep comb phases aligned: trim whole symbols only.
        cut -= cut % 11;
        if cut == 0 {
            return;
        }
        self.chips.drain(..cut);
        let ccut = cut.min(self.corr.len());
        self.corr.drain(..ccut);
        self.chip_base += cut as u64;
        let removed_syms = cut / 11;
        for ph in &mut self.phases {
            ph.seen = ph.seen.saturating_sub(removed_syms);
        }
    }

    /// The least `start_chip` a frame decoded from here on can have: a
    /// pending frame's, or that of an SFD found at the next scan position.
    pub fn horizon(&self) -> u64 {
        let scan = self
            .phases
            .iter()
            .enumerate()
            .map(|(p, ph)| ph.seen * 11 + p);
        let next = (self.chip_base + scan.min().unwrap_or(0) as u64).saturating_sub(143 * 11);
        self.pending.iter().copied().fold(next, u64::min)
    }

    /// Drains decoded frames.
    pub fn take_results(&mut self) -> Vec<WifiRxResult> {
        std::mem::take(&mut self.results)
    }
}

fn frame_len_chips(h: &PlcpHeader) -> usize {
    (192 + h.length_us as usize) * 11
}

fn sfd_pattern_u16() -> u16 {
    // The scanner shifts bits in from the top, so after 16 bits the register
    // holds b0 at bit 0 ... b15 at bit 15 == the LSB-first SFD value.
    super::plcp::SFD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
    use crate::wifi::modulator::{modulate, WifiTxConfig};
    use rfd_dsp::rng::GaussianGen;

    fn test_frame(len: usize) -> Vec<u8> {
        MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            42,
            icmp_echo_body(3, len),
        )
        .to_bytes()
    }

    fn pad(wave: &[Complex32], lead: usize, tail: usize) -> Vec<Complex32> {
        let mut v = vec![Complex32::ZERO; lead];
        v.extend_from_slice(wave);
        v.extend(vec![Complex32::ZERO; tail]);
        v
    }

    #[test]
    fn clean_1mbps_round_trip_at_chip_rate() {
        let psdu = test_frame(100);
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R1 });
        let rx = demodulate(&pad(&w.samples, 50, 50), super::super::CHIP_RATE).unwrap();
        assert_eq!(rx.header.rate, WifiRate::R1);
        assert!(rx.fcs_ok);
        assert_eq!(rx.psdu, psdu);
        assert!(rx.frame.is_some());
    }

    #[test]
    fn clean_2mbps_round_trip_at_chip_rate() {
        let psdu = test_frame(200);
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R2 });
        let rx = demodulate(&pad(&w.samples, 33, 60), super::super::CHIP_RATE).unwrap();
        assert_eq!(rx.header.rate, WifiRate::R2);
        assert!(rx.fcs_ok);
        assert_eq!(rx.psdu, psdu);
    }

    #[test]
    fn clean_cck_round_trips_at_chip_rate() {
        for rate in [WifiRate::R5_5, WifiRate::R11] {
            let psdu = test_frame(64);
            let w = modulate(&psdu, WifiTxConfig { rate });
            let rx = demodulate(&pad(&w.samples, 17, 40), super::super::CHIP_RATE)
                .unwrap_or_else(|| panic!("decode failed at {rate}"));
            assert_eq!(rx.header.rate, rate);
            assert!(rx.fcs_ok, "FCS at {rate}");
            assert_eq!(rx.psdu, psdu);
        }
    }

    #[test]
    fn round_trip_through_8msps_bottleneck_1mbps() {
        // The paper's USRP sees only 8 of the 22 MHz; 1 Mbps still decodes.
        let psdu = test_frame(80);
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R1 });
        let at8 = resample_windowed_sinc(&pad(&w.samples, 40, 40), 11e6, 8e6, 8);
        let rx = demodulate(&at8, 8e6).expect("1 Mbps must survive 8 Msps");
        assert!(rx.fcs_ok);
        assert_eq!(rx.psdu, psdu);
    }

    #[test]
    fn round_trip_with_noise_1mbps() {
        let psdu = test_frame(60);
        let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R1 });
        let mut sig = pad(&w.samples, 100, 100);
        GaussianGen::new(99).add_awgn(&mut sig, 0.05); // ~13 dB SNR
        let rx = demodulate(&sig, super::super::CHIP_RATE).expect("decode under noise");
        assert!(rx.fcs_ok);
        assert_eq!(rx.psdu, psdu);
    }

    #[test]
    fn pure_noise_decodes_nothing() {
        let mut sig = vec![Complex32::ZERO; 30_000];
        GaussianGen::new(5).add_awgn(&mut sig, 0.1);
        assert!(demodulate(&sig, super::super::CHIP_RATE).is_none());
    }

    #[test]
    fn too_short_input_is_rejected() {
        assert!(demodulate(&[Complex32::ONE; 100], super::super::CHIP_RATE).is_none());
    }

    #[test]
    fn continuous_rx_finds_multiple_frames() {
        let f1 = test_frame(40);
        let f2 = test_frame(70);
        let w1 = modulate(&f1, WifiTxConfig { rate: WifiRate::R1 });
        let w2 = modulate(&f2, WifiTxConfig { rate: WifiRate::R1 });
        let mut stream = vec![Complex32::ZERO; 500];
        stream.extend_from_slice(&w1.samples);
        stream.extend(vec![Complex32::ZERO; 2000]);
        stream.extend_from_slice(&w2.samples);
        stream.extend(vec![Complex32::ZERO; 500]);

        let mut rx = WifiRx::new(super::super::CHIP_RATE);
        for chunk in stream.chunks(4096) {
            rx.process(chunk);
        }
        let results = rx.take_results();
        assert_eq!(results.len(), 2, "found {}", results.len());
        assert_eq!(results[0].psdu, f1);
        assert_eq!(results[1].psdu, f2);
        assert!(results[0].start_chip < results[1].start_chip);
    }

    #[test]
    fn no_frame_decoded_later_starts_before_the_horizon() {
        let f1 = test_frame(40);
        let f2 = test_frame(70);
        let mut stream = vec![Complex32::ZERO; 700];
        stream.extend_from_slice(&modulate(&f1, WifiTxConfig { rate: WifiRate::R1 }).samples);
        stream.extend(vec![Complex32::ZERO; 300]);
        stream.extend_from_slice(&modulate(&f2, WifiTxConfig { rate: WifiRate::R2 }).samples);
        stream.extend(vec![Complex32::ZERO; 900]);
        let mut rx = WifiRx::new(super::super::CHIP_RATE);
        let (mut horizons, mut found) = (Vec::new(), 0);
        for piece in stream.chunks(1000) {
            rx.process(piece);
            for r in rx.take_results() {
                found += 1;
                for &h in &horizons {
                    assert!(r.start_chip as u64 >= h, "frame at {} < {h}", r.start_chip);
                }
            }
            horizons.push(rx.horizon());
        }
        assert_eq!(found, 2);
        // With both frames out, the horizon follows the scan: one
        // preamble behind the last despread symbol.
        assert!(rx.horizon() + 143 * 11 + 22 >= stream.len() as u64);
    }

    #[test]
    fn continuous_rx_at_8msps() {
        let f = test_frame(50);
        let w = modulate(&f, WifiTxConfig { rate: WifiRate::R1 });
        let mut stream = vec![Complex32::ZERO; 800];
        stream.extend_from_slice(&w.samples);
        stream.extend(vec![Complex32::ZERO; 800]);
        let at8 = resample_windowed_sinc(&stream, 11e6, 8e6, 8);
        let mut rx = WifiRx::new(8e6);
        for chunk in at8.chunks(2000) {
            rx.process(chunk);
        }
        let results = rx.take_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].psdu, f);
    }
}
