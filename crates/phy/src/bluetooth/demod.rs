//! Bluetooth receive chain.
//!
//! [`BtChannelRx`] is a single-channel receiver: frequency-translate the
//! channel to baseband, low-pass channelize (this FIR is the dominant cost,
//! exactly as in the paper's GNU Radio prototype), FM-discriminate,
//! slice symbols on all timing combs, and hunt for configured sync words
//! with a 64-bit correlator. When a sync word hits, the following bits are
//! collected and handed to the baseband packet parser.
//!
//! [`BtRxBank`] instantiates one receiver per channel inside the monitored
//! band — the paper's "8 Bluetooth demodulators (one for each channel) in
//! the 8 MHz we capture".

use super::access_code::{sync_word, SYNC_CORR_THRESHOLD};
use super::packet::{parse_after_access_code, ParsedBtPacket};
use rfd_dsp::fir::{lowpass, Fir};
use rfd_dsp::nco::Nco;
use rfd_dsp::phase::FmDiscriminator;
use rfd_dsp::window::Window;
use rfd_dsp::Complex32;

/// A piconet the receiver knows how to acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiconetId {
    /// Lower address part (drives the sync word).
    pub lap: u32,
    /// Upper address part (drives HEC/CRC checks).
    pub uap: u8,
}

/// One decoded (or at least acquired) Bluetooth packet.
#[derive(Debug, Clone)]
pub struct BtRxResult {
    /// Which piconet's sync word matched.
    pub piconet: PiconetId,
    /// Channel tag supplied by the caller (e.g. RF channel number).
    pub channel: u8,
    /// Approximate input-rate sample index of the packet start (preamble).
    pub start_sample: u64,
    /// Bit errors in the matched sync word.
    pub sync_errors: u32,
    /// The parsed baseband packet, when header/CRC decoding succeeded.
    pub parsed: Option<ParsedBtPacket>,
}

/// Intermediate rate the channelizer decimates to.
const CHAN_RATE: f64 = 4e6;
/// Samples per symbol at `CHAN_RATE` (also the number of timing combs).
const SPS: usize = 4;
/// Maximum bits after the sync word we ever need (trailer + header + DH5
/// payload) plus slack.
const MAX_PKT_BITS: usize = 4 + 54 + 16 + 339 * 8 + 16 + 8;
/// Symbol history kept per timing comb.
const BIT_HISTORY: usize = 3 * MAX_PKT_BITS;

struct Comb {
    bits: Vec<bool>,
    /// Absolute symbol index of `bits[0]`.
    base: u64,
    /// Sliding sync registers, one per configured piconet.
    regs: Vec<u64>,
}

#[derive(Clone, Copy)]
struct Candidate {
    comb: usize,
    /// Absolute symbol index of the first bit after the sync word.
    after_sync: u64,
    sync_errors: u32,
}

/// One packet acquisition: the same sync word typically clears the
/// correlation threshold on several timing combs (and at ±1-symbol offsets);
/// all candidates are kept and tried at decode time, best CRC wins.
struct Pending {
    piconet_idx: usize,
    candidates: Vec<Candidate>,
}

impl Pending {
    fn first_after_sync(&self) -> u64 {
        self.candidates
            .iter()
            .map(|c| c.after_sync)
            .min()
            .unwrap_or(0)
    }
}

/// Input samples [`BtChannelRx::process`] translates to baseband at a time.
const MIX_PIECE: usize = 1024;

/// A single-channel Bluetooth receiver.
pub struct BtChannelRx {
    channel_tag: u8,
    decim: usize,
    nco: Nco,
    fir: Fir,
    fir_phase: usize,
    /// Reused scratch: one piece of the input translated to baseband.
    mixed: Vec<Complex32>,
    disc: FmDiscriminator,
    /// Discriminator outputs not yet consumed into symbols.
    freq: Vec<f32>,
    /// Absolute index (at `CHAN_RATE`) of `freq[0]`.
    freq_base: u64,
    consumed: usize,
    combs: Vec<Comb>,
    piconets: Vec<PiconetId>,
    syncs: Vec<u64>,
    pending: Vec<Pending>,
    results: Vec<BtRxResult>,
    /// Absolute symbol index before which new sync hits are duplicates.
    acquired_until: u64,
}

impl BtChannelRx {
    /// Creates a receiver for the channel centered `offset_hz` away from the
    /// center of an input stream at `input_rate`, tagged `channel_tag`.
    ///
    /// `input_rate` must be an integer multiple of 4 MHz.
    pub fn new(channel_tag: u8, input_rate: f64, offset_hz: f64, piconets: Vec<PiconetId>) -> Self {
        let decim_f = input_rate / CHAN_RATE;
        let decim = decim_f.round() as usize;
        assert!(
            (decim_f - decim as f64).abs() < 1e-9 && decim >= 1,
            "input rate must be an integer multiple of 4 MHz"
        );
        let taps = lowpass(600e3, input_rate, 41.max(decim * 10 + 1), Window::Hamming);
        let syncs = piconets.iter().map(|p| sync_word(p.lap)).collect();
        Self {
            channel_tag,
            decim,
            nco: Nco::new(-offset_hz, input_rate),
            fir: Fir::new(taps),
            fir_phase: 0,
            mixed: Vec::new(),
            disc: FmDiscriminator::new(CHAN_RATE),
            freq: Vec::new(),
            freq_base: 0,
            consumed: 0,
            combs: (0..SPS).map(|_| Comb::new(piconets.len())).collect(),
            piconets,
            syncs,
            pending: Vec::new(),
            results: Vec::new(),
            acquired_until: 0,
        }
    }

    /// Processes a block of input samples.
    pub fn process(&mut self, samples: &[Complex32]) {
        // Translate + channelize + decimate; the filter computes only the
        // outputs it keeps. Mixing goes piece by piece, so the scratch
        // stays small however long the block.
        let mut chan = Vec::with_capacity(samples.len() / self.decim + 1);
        for piece in samples.chunks(MIX_PIECE) {
            self.mixed.clear();
            self.nco.mix(piece, &mut self.mixed);
            self.fir
                .process_decimate(&self.mixed, self.decim, &mut self.fir_phase, &mut chan);
        }
        // FM discriminate.
        self.disc.process(&chan, &mut self.freq);

        // Slice symbols on every timing comb: comb t's symbol k integrates
        // discriminator samples (SPS*k + t .. SPS*k + t + SPS - 1); it
        // completes at position SPS*k + t + SPS - 1.
        let sps = SPS as u64;
        loop {
            let n = self.consumed;
            if n + sps as usize > self.freq.len() {
                break;
            }
            // The window (n .. n + SPS) completes comb t where
            // pos = freq_base + n satisfies pos % SPS == t.
            let pos = self.freq_base + n as u64;
            let t = (pos % sps) as usize;
            let soft: f32 = self.freq[n..n + SPS].iter().sum();
            let bit = soft > 0.0;
            let sym_idx = pos / sps;
            self.push_bit(t, sym_idx, bit);
            self.consumed += 1;
        }

        self.drain_pending(false);
        self.trim();
    }

    fn push_bit(&mut self, comb_idx: usize, sym_idx: u64, bit: bool) {
        // Check sync correlation first (registers hold the last 64 bits,
        // oldest at bit 0 — matching the LSB-first sync word).
        let comb = &mut self.combs[comb_idx];
        if comb.bits.is_empty() {
            comb.base = sym_idx;
        }
        comb.bits.push(bit);
        let mut hits = Vec::new();
        for (pi, reg) in comb.regs.iter_mut().enumerate() {
            *reg = (*reg >> 1) | ((bit as u64) << 63);
            let errors = (*reg ^ self.syncs[pi]).count_ones();
            if errors <= 64 - SYNC_CORR_THRESHOLD && sym_idx + 1 > 64 {
                hits.push((pi, errors));
            }
        }
        for (pi, errors) in hits {
            let after_sync = sym_idx + 1;
            if after_sync < self.acquired_until {
                continue;
            }
            let cand = Candidate {
                comb: comb_idx,
                after_sync,
                sync_errors: errors,
            };
            // Hits within a few symbols are the same packet seen by another
            // comb or a ±1-symbol correlation offset; group them.
            if let Some(existing) = self
                .pending
                .iter_mut()
                .find(|p| p.piconet_idx == pi && p.first_after_sync().abs_diff(after_sync) < 8)
            {
                existing.candidates.push(cand);
                continue;
            }
            self.pending.push(Pending {
                piconet_idx: pi,
                candidates: vec![cand],
            });
        }
    }

    /// Attempts to decode pending acquisitions; with `flush` set, decodes
    /// with whatever bits are available (end of stream).
    fn drain_pending(&mut self, flush: bool) {
        let mut keep = Vec::new();
        let pending = std::mem::take(&mut self.pending);
        for mut p in pending {
            // Wait until the longest packet could have arrived on every
            // candidate comb.
            let ready = p.candidates.iter().all(|c| {
                let comb = &self.combs[c.comb];
                let start = c.after_sync.saturating_sub(comb.base);
                comb.bits.len() as u64 >= start + MAX_PKT_BITS as u64
            });
            if !flush && !ready {
                keep.push(p);
                continue;
            }
            // Try candidates cleanest-first; the first CRC-verified decode
            // wins, otherwise the best parse we saw.
            p.candidates.sort_by_key(|c| c.sync_errors);
            let mut chosen: Option<(Candidate, Option<ParsedBtPacket>)> = None;
            for c in &p.candidates {
                let comb = &self.combs[c.comb];
                let start = c.after_sync.saturating_sub(comb.base) as usize;
                if start >= comb.bits.len() {
                    continue;
                }
                let window = &comb.bits[start..];
                // Skip the 4 trailer bits; the rest is header + payload.
                let parsed = if window.len() > 4 {
                    parse_after_access_code(&window[4..], self.piconets[p.piconet_idx].uap)
                } else {
                    None
                };
                let crc_ok = parsed.as_ref().map(|x| x.crc_ok).unwrap_or(false);
                let better = match &chosen {
                    None => true,
                    Some((_, Some(prev))) => !prev.crc_ok && crc_ok,
                    Some((_, None)) => parsed.is_some(),
                };
                if better {
                    chosen = Some((*c, parsed));
                }
                if crc_ok {
                    break;
                }
            }
            let Some((c, parsed)) = chosen else { continue };
            let pkt_start_sym = c.after_sync.saturating_sub(68);
            self.acquired_until = c.after_sync + 54; // at least past the header
            self.results.push(BtRxResult {
                piconet: self.piconets[p.piconet_idx],
                channel: self.channel_tag,
                start_sample: pkt_start_sym * SPS as u64 * self.decim as u64,
                sync_errors: c.sync_errors,
                parsed,
            });
        }
        self.pending = keep;
    }

    fn trim(&mut self) {
        for comb in &mut self.combs {
            if comb.bits.len() > BIT_HISTORY {
                let min_pending = self
                    .pending
                    .iter()
                    .map(|p| p.first_after_sync())
                    .min()
                    .unwrap_or(u64::MAX);
                let mut cut = comb.bits.len() - BIT_HISTORY;
                if min_pending != u64::MAX {
                    let rel = (min_pending.saturating_sub(comb.base)) as usize;
                    cut = cut.min(rel);
                }
                comb.bits.drain(..cut);
                comb.base += cut as u64;
            }
        }
        // Bound the raw discriminator buffer too: nothing reads it behind
        // `consumed`.
        if self.consumed > 1 << 16 {
            let cut = self.consumed - 4;
            self.freq.drain(..cut);
            self.freq_base += cut as u64;
            self.consumed -= cut;
        }
    }

    /// Drains the results decoded so far; pending acquisitions stay pending.
    pub fn take_results(&mut self) -> Vec<BtRxResult> {
        std::mem::take(&mut self.results)
    }

    /// The least `start_sample` a result decoded from here on can have: a
    /// pending acquisition's, or that of a sync word ending at the next
    /// symbol.
    pub fn horizon(&self) -> u64 {
        let next = (self.freq_base + self.consumed as u64) / SPS as u64 + 1;
        let pending = self.pending.iter().map(Pending::first_after_sync);
        pending.fold(next, u64::min).saturating_sub(68) * (SPS * self.decim) as u64
    }

    /// Flushes pending decodes (call at end of stream) and drains results.
    pub fn finish(&mut self) -> Vec<BtRxResult> {
        self.drain_pending(true);
        self.take_results()
    }
}

impl Comb {
    fn new(npiconets: usize) -> Self {
        Self {
            bits: Vec::new(),
            base: 0,
            regs: vec![0; npiconets],
        }
    }
}

/// A bank of per-channel receivers covering a monitored band.
pub struct BtRxBank {
    /// The per-channel receivers.
    pub channels: Vec<BtChannelRx>,
}

impl BtRxBank {
    /// Builds one receiver per whole Bluetooth channel inside a monitored
    /// band.
    ///
    /// * `input_rate` — monitor sample rate (e.g. 8 MHz).
    /// * `band_center_hz` — center of the monitored band relative to the
    ///   2.4 GHz band start (the same coordinate system as
    ///   [`super::hop::channel_freq_hz`]).
    /// * `piconets` — piconets to acquire.
    pub fn for_band(input_rate: f64, band_center_hz: f64, piconets: Vec<PiconetId>) -> Self {
        let channels = super::covered_channels(input_rate, band_center_hz)
            .map(|(ch, offset)| BtChannelRx::new(ch, input_rate, offset, piconets.clone()))
            .collect();
        Self { channels }
    }

    /// Number of channels covered.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if the band covers no whole channel.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Feeds samples to every channel receiver.
    pub fn process(&mut self, samples: &[Complex32]) {
        for ch in &mut self.channels {
            ch.process(samples);
        }
    }

    /// Flushes and collects all results, sorted by start sample.
    pub fn finish(&mut self) -> Vec<BtRxResult> {
        let mut all: Vec<BtRxResult> = self.channels.iter_mut().flat_map(|c| c.finish()).collect();
        all.sort_by_key(|r| r.start_sample);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bluetooth::gfsk::{modulate, BtTxConfig};
    use crate::bluetooth::packet::{BtPacket, BtPacketType};
    use rfd_dsp::nco::frequency_shift;
    use rfd_dsp::rng::GaussianGen;

    const LAP: u32 = 0x9E8B33;
    const UAP: u8 = 0x47;

    fn piconet() -> PiconetId {
        PiconetId { lap: LAP, uap: UAP }
    }

    fn tx(ptype: BtPacketType, len: usize, clock: u32) -> Vec<Complex32> {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
        let pkt = BtPacket::new(LAP, UAP, 1, ptype, clock, payload);
        modulate(&pkt, BtTxConfig { sample_rate: 8e6 }).samples
    }

    fn lead_tail(sig: &[Complex32], lead: usize, tail: usize) -> Vec<Complex32> {
        let mut v = vec![Complex32::ZERO; lead];
        v.extend_from_slice(sig);
        v.extend(vec![Complex32::ZERO; tail]);
        v
    }

    #[test]
    fn decodes_dh1_at_band_center() {
        let sig = lead_tail(&tx(BtPacketType::Dh1, 20, 6), 500, 500);
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![piconet()]);
        rx.process(&sig);
        let results = rx.finish();
        assert_eq!(results.len(), 1, "got {}", results.len());
        let r = &results[0];
        assert_eq!(r.sync_errors, 0);
        let parsed = r.parsed.as_ref().expect("packet must parse");
        assert!(parsed.crc_ok);
        assert_eq!(parsed.ptype, BtPacketType::Dh1);
        assert_eq!(parsed.payload.len(), 20);
    }

    #[test]
    fn decodes_dh5_with_frequency_offset() {
        // Place the packet 2 MHz off center, receive with a matching
        // channel receiver.
        let base = tx(BtPacketType::Dh5, 225, 12);
        let shifted = frequency_shift(&lead_tail(&base, 300, 300), 2e6, 8e6);
        let mut rx = BtChannelRx::new(3, 8e6, 2e6, vec![piconet()]);
        rx.process(&shifted);
        let results = rx.finish();
        assert_eq!(results.len(), 1);
        let parsed = results[0].parsed.as_ref().unwrap();
        assert!(parsed.crc_ok);
        assert_eq!(parsed.payload.len(), 225);
    }

    #[test]
    fn decodes_under_noise() {
        let mut sig = lead_tail(&tx(BtPacketType::Dh1, 27, 3), 400, 400);
        GaussianGen::new(77).add_awgn(&mut sig, 0.05); // ~13 dB
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![piconet()]);
        rx.process(&sig);
        let results = rx.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].parsed.as_ref().unwrap().crc_ok);
    }

    #[test]
    fn ignores_wrong_lap() {
        let sig = lead_tail(&tx(BtPacketType::Dh1, 10, 0), 200, 200);
        let other = PiconetId {
            lap: 0x123456,
            uap: 0x11,
        };
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![other]);
        rx.process(&sig);
        assert!(rx.finish().is_empty());
    }

    #[test]
    fn pure_noise_produces_nothing() {
        let mut sig = vec![Complex32::ZERO; 100_000];
        GaussianGen::new(3).add_awgn(&mut sig, 0.2);
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![piconet()]);
        rx.process(&sig);
        assert!(rx.finish().is_empty());
    }

    #[test]
    fn two_packets_in_stream() {
        let a = tx(BtPacketType::Dh1, 8, 4);
        let b = tx(BtPacketType::Dh1, 16, 8);
        let mut sig = lead_tail(&a, 300, 5000);
        sig.extend_from_slice(&b);
        sig.extend(vec![Complex32::ZERO; 300]);
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![piconet()]);
        for chunk in sig.chunks(4096) {
            rx.process(chunk);
        }
        let results = rx.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].parsed.as_ref().unwrap().payload.len(), 8);
        assert_eq!(results[1].parsed.as_ref().unwrap().payload.len(), 16);
    }

    #[test]
    fn no_result_taken_later_starts_before_the_horizon() {
        let mut sig = lead_tail(&tx(BtPacketType::Dh1, 8, 4), 300, 5000);
        sig.extend_from_slice(&tx(BtPacketType::Dh3, 100, 8));
        sig.extend(vec![Complex32::ZERO; 30_000]);
        let mut rx = BtChannelRx::new(0, 8e6, 0.0, vec![piconet()]);
        let (mut horizons, mut found) = (Vec::new(), 0);
        for piece in sig.chunks(997) {
            rx.process(piece);
            for r in rx.take_results() {
                found += 1;
                for &h in &horizons {
                    assert!(r.start_sample >= h, "packet at {} < {h}", r.start_sample);
                }
            }
            horizons.push(rx.horizon());
        }
        // Both packets decode without a flush, and then the horizon
        // trails the input by no more than a sync word and access code.
        assert_eq!(found, 2);
        assert!(rx.finish().is_empty());
        assert!(rx.horizon() + 2 * 68 * 8 >= sig.len() as u64);
    }

    #[test]
    fn bank_covers_seven_channels_in_8mhz() {
        // Band centered between channels: 8 MHz holds 7 whole 1-MHz channels
        // with half-channel guard at each edge.
        let bank = BtRxBank::for_band(8e6, 5.5e6, vec![piconet()]);
        assert!(bank.len() >= 7, "covered {}", bank.len());
        assert!(bank.len() <= 8);
    }

    #[test]
    fn bank_decodes_packet_on_its_channel() {
        // Channel 3 sits at 5 MHz; band center 5.5 MHz -> offset -0.5 MHz.
        let base = tx(BtPacketType::Dh1, 12, 2);
        let shifted = frequency_shift(&lead_tail(&base, 250, 250), -0.5e6, 8e6);
        let mut bank = BtRxBank::for_band(8e6, 5.5e6, vec![piconet()]);
        bank.process(&shifted);
        let results = bank.finish();
        let ok: Vec<_> = results
            .iter()
            .filter(|r| r.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false))
            .collect();
        assert!(!ok.is_empty(), "no channel decoded the packet");
        assert!(
            ok.iter().any(|r| r.channel == 3),
            "wrong channel tags: {:?}",
            ok.iter().map(|r| r.channel).collect::<Vec<_>>()
        );
    }
}
