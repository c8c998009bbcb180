//! 802.11 DBPSK phase detector (§4.5).
//!
//! "Given the bandwidth limitation of USRP 1, only the 1 Mbps data rate can
//! be supported and it uses DBPSK. However, the channel width is 22 MHz due
//! to Barker chipping at 11 Mbps... the uneven 11:8 ratio means that the
//! Barker 'null' points do not align at sample boundaries. As a result, we
//! are forced to employ a somewhat inelegant solution and precompute the
//! sequence of phase changes across 8 samples expected due to Barker
//! chipping, and correlate this precomputed signal with the incoming
//! signal."
//!
//! We do exactly that: at construction the detector synthesizes a
//! Barker-spread DBPSK symbol at 11 Mchips/s, resamples it to the monitor
//! rate, and extracts the per-symbol pattern of absolute phase changes (an
//! 802.11b symbol is exactly 1 µs, so the pattern is periodic in
//! `sample_rate × 1 µs` samples — 8 at the paper's 8 Msps). Per peak it
//! correlates the measured |Δφ| sequence against the pattern window by
//! window; a matching prefix classifies the peak as 802.11 and bounds the
//! sample range worth forwarding (a CCK payload stops matching where DBPSK
//! ends, reproducing Table 4's selectivity).
//!
//! The per-peak work is batched eight windows at a time: the batch's |Δφ|
//! values are computed from its own samples into a scratch the detector
//! owns (no whole-peak buffer, nothing allocated but the vote), then
//! [`rfd_dsp::kernels::barker_scores`] scores all eight against every
//! cyclic offset of the pattern, one window per vector lane. The scan stops
//! at the third consecutive miss, dropping the scores of the batch past it,
//! so on a CCK frame at most the batch holding the end of the PLCP header
//! is read. On the seed-2009 `wifi_u60` trace this detector costs about a
//! quarter of the demodulator it gates (EXPERIMENTS.md, "Detector cost").

use super::{Classification, FastDetector};
use crate::chunk::PeakBlock;
use rfd_dsp::kernels::{barker_scores, BARKER_WINDOWS};
use rfd_dsp::phase::{phase_diff_abs_into_slice, wrap_phase};
use rfd_dsp::resample::resample_windowed_sinc;
use rfd_dsp::Complex32;
use rfd_phy::wifi::barker::BARKER11;
use rfd_phy::Protocol;

/// Consecutive non-matching windows that end the matched prefix (slack for
/// scrambler-flip noise at symbol boundaries).
const MAX_MISSES: usize = 3;

/// The phase detector.
pub struct WifiPhaseDetector {
    /// Samples per 802.11 symbol: the period of the |Δφ| pattern.
    sps: usize,
    /// The mean-removed |Δφ| pattern of one symbol, repeated over one window
    /// plus one period, so that cyclic offset `off` of the pattern against a
    /// window is the plain slice `tiled[off..off + wlen]`.
    tiled: Vec<f32>,
    /// Pattern energy (for normalization).
    pattern_norm: f32,
    /// Correlation threshold for a window to count as matching.
    pub window_threshold: f32,
    /// Windows (symbol periods) that must match to classify a peak.
    pub min_windows: usize,
    /// Symbols examined per correlation window.
    symbols_per_window: usize,
    /// Scratch: the |Δφ| values of the [`BARKER_WINDOWS`] windows being
    /// scored, window after window.
    dphi: Vec<f32>,
}

impl WifiPhaseDetector {
    /// Builds the detector for a stream at `sample_rate` (the pattern is
    /// precomputed for that rate — the paper's 8 Msps gives the classic
    /// 11:8 pattern).
    pub fn new(sample_rate: f64) -> Self {
        let sps = (sample_rate * 1e-6).round() as usize; // samples per symbol
        assert!(sps >= 4, "need at least 4 samples per 802.11 symbol");
        // Synthesize several identical DBPSK symbols at chip rate.
        let nsym = 64;
        let mut chips = Vec::with_capacity(nsym * 11);
        for _ in 0..nsym {
            for &c in BARKER11.iter() {
                chips.push(Complex32::new(c, 0.0));
            }
        }
        let at_rate = resample_windowed_sinc(&chips, rfd_phy::wifi::CHIP_RATE, sample_rate, 8);
        // |Δφ| sequence, folded to the symbol period, averaged (skip edges).
        let mut folded = vec![0.0f64; sps];
        let mut counts = vec![0u32; sps];
        for (i, w) in at_rate.windows(2).enumerate().skip(4 * sps) {
            if i >= (nsym - 4) * sps {
                break;
            }
            let d = wrap_phase((w[1] * w[0].conj()).arg()).abs();
            folded[i % sps] += d as f64;
            counts[i % sps] += 1;
        }
        let mut pattern: Vec<f32> = folded
            .iter()
            .zip(counts.iter())
            .map(|(s, c)| (*s / (*c).max(1) as f64) as f32)
            .collect();
        let mean = pattern.iter().sum::<f32>() / sps as f32;
        for p in &mut pattern {
            *p -= mean;
        }
        let pattern_norm = pattern.iter().map(|p| p * p).sum::<f32>().sqrt();
        let symbols_per_window = 4;
        let wlen = sps * symbols_per_window;
        Self {
            sps,
            tiled: (0..wlen + sps).map(|i| pattern[i % sps]).collect(),
            pattern_norm,
            window_threshold: 0.5,
            min_windows: 8,
            symbols_per_window,
            dphi: vec![0.0; BARKER_WINDOWS * wlen],
        }
    }

    /// Phase changes per correlation window.
    fn wlen(&self) -> usize {
        self.sps * self.symbols_per_window
    }

    /// Matches `samples` window by window from the start, scoring
    /// [`BARKER_WINDOWS`] windows at a time. Returns the number of matching
    /// windows, the |Δφ| index one past the last matching window, and how
    /// many windows were scored before the scan stopped (whole batches: the
    /// scores past the stop are dropped).
    fn match_prefix(&mut self, samples: &[Complex32]) -> (usize, usize, usize) {
        let wlen = self.wlen();
        // A window of `wlen` phase changes spans `wlen + 1` samples, and
        // consecutive windows share their boundary sample.
        let total = samples.len().saturating_sub(1) / wlen;
        let mut matched = 0usize;
        let mut misses = 0usize;
        let mut end_matched = 0usize;
        let mut scored = 0usize;
        let mut scores = [0.0f32; BARKER_WINDOWS];
        for first in (0..total).step_by(BARKER_WINDOWS) {
            // A short last batch scores all-zero windows in its spare lanes.
            let batch = (total - first).min(BARKER_WINDOWS);
            let (head, tail) = self.dphi.split_at_mut(batch * wlen);
            phase_diff_abs_into_slice(&samples[first * wlen..(first + batch) * wlen + 1], head);
            tail.fill(0.0);
            barker_scores(
                &self.dphi,
                &self.tiled,
                self.sps,
                self.pattern_norm,
                &mut scores,
            );
            scored += batch;
            for (wi, &score) in (first..first + batch).zip(&scores) {
                if score >= self.window_threshold {
                    matched += 1;
                    misses = 0;
                    end_matched = (wi + 1) * wlen;
                } else {
                    misses += 1;
                    if misses >= MAX_MISSES {
                        return (matched, end_matched, scored);
                    }
                }
            }
        }
        (matched, end_matched, scored)
    }
}

impl FastDetector for WifiPhaseDetector {
    fn name(&self) -> &str {
        "detect:wifi-dbpsk-phase"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Wifi
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let samples = pb.peak_samples();
        if samples.len() < self.wlen() * self.min_windows.min(4) {
            return Vec::new();
        }
        let (matched, end_matched, _) = self.match_prefix(samples);
        if matched >= self.min_windows {
            let range_end = pb.peak.start + end_matched as u64 + 1;
            vec![Classification {
                peak_id: pb.peak.id,
                protocol: Protocol::Wifi,
                confidence: 0.85,
                channel: None,
                range: Some((pb.peak.start, range_end.min(pb.peak.end))),
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Peak;
    use rfd_dsp::nco::frequency_shift;
    use rfd_dsp::rng::{GaussianGen, Xoshiro256};
    use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
    use rfd_phy::wifi::modulator::{modulate, WifiTxConfig};
    use rfd_phy::wifi::plcp::WifiRate;
    use std::sync::Arc;

    /// A peak spanning all of `samples`.
    fn block_of(samples: Vec<Complex32>, noise_floor: f32) -> PeakBlock {
        PeakBlock {
            peak: Peak {
                id: 0,
                start: 0,
                end: samples.len() as u64,
                mean_power: 1.0,
                noise_floor,
            },
            samples: Arc::new(samples),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    fn wifi_block(rate: WifiRate, payload: usize, snr_db: f32, seed: u64) -> PeakBlock {
        let psdu = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            0,
            icmp_echo_body(0, payload),
        )
        .to_bytes();
        let w = modulate(&psdu, WifiTxConfig { rate });
        let mut at8 = resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
        let noise = rfd_dsp::energy::db_to_power(-snr_db);
        GaussianGen::new(seed).add_awgn(&mut at8, noise);
        block_of(at8, noise)
    }

    fn bt_block(seed: u64) -> PeakBlock {
        use rfd_phy::bluetooth::gfsk::{modulate_bits, BtTxConfig};
        let bits: Vec<bool> = (0..2000)
            .map(|i| (i * 7 + seed as usize).is_multiple_of(3))
            .collect();
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        block_of(w.samples, 1e-4)
    }

    fn noise_block(seed: u64) -> PeakBlock {
        let mut sig = vec![Complex32::ZERO; 8000];
        GaussianGen::new(seed).add_awgn(&mut sig, 1.0);
        block_of(sig, 1.0)
    }

    /// The detector as it was before the fused window loop: `libm` |Δφ|
    /// over the whole peak into a fresh buffer, then per window one pass per
    /// cyclic offset through a modulo index. The oracle for the "faster, not
    /// different" tests below.
    struct Reference {
        pattern: Vec<f32>,
        pattern_norm: f32,
        window_threshold: f32,
        min_windows: usize,
        symbols_per_window: usize,
    }

    impl Reference {
        fn of(d: &WifiPhaseDetector) -> Self {
            Self {
                pattern: d.tiled[..d.sps].to_vec(),
                pattern_norm: d.pattern_norm,
                window_threshold: d.window_threshold,
                min_windows: d.min_windows,
                symbols_per_window: d.symbols_per_window,
            }
        }

        fn window_score(&self, dphi: &[f32]) -> f32 {
            let sps = self.pattern.len();
            let mean = dphi.iter().sum::<f32>() / dphi.len() as f32;
            let tiles = (dphi.len() as f32 / sps as f32).sqrt();
            let mut best = -1.0f32;
            for off in 0..sps {
                let mut dot = 0.0f32;
                let mut energy = 0.0f32;
                for (i, &d) in dphi.iter().enumerate() {
                    let c = d - mean;
                    let p = self.pattern[(i + off) % sps];
                    dot += c * p;
                    energy += c * c;
                }
                let denom = (self.pattern_norm * tiles * energy.sqrt()).max(1e-9);
                best = best.max(dot / denom);
            }
            best
        }

        fn on_peak(&self, pb: &PeakBlock) -> Vec<Classification> {
            let samples = pb.peak_samples();
            let wlen = self.pattern.len() * self.symbols_per_window;
            if samples.len() < wlen * self.min_windows.min(4) {
                return Vec::new();
            }
            let dphi: Vec<f32> = samples
                .windows(2)
                .map(|w| wrap_phase((w[1] * w[0].conj()).arg()).abs())
                .collect();
            let mut matched = 0usize;
            let mut misses = 0usize;
            let mut end_matched = 0usize;
            for (wi, win) in dphi.chunks(wlen).enumerate() {
                if win.len() < wlen {
                    break;
                }
                if self.window_score(win) >= self.window_threshold {
                    matched += 1;
                    misses = 0;
                    end_matched = (wi + 1) * wlen;
                } else {
                    misses += 1;
                    if misses >= 3 {
                        break;
                    }
                }
            }
            if matched >= self.min_windows {
                let range_end = pb.peak.start + end_matched as u64 + 1;
                vec![Classification {
                    peak_id: pb.peak.id,
                    protocol: Protocol::Wifi,
                    confidence: 0.85,
                    channel: None,
                    range: Some((pb.peak.start, range_end.min(pb.peak.end))),
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn window_score_is_bit_identical_to_the_per_offset_loop() {
        let d = WifiPhaseDetector::new(8e6);
        let reference = Reference::of(&d);
        let wlen = d.wlen();
        // Each window is scored in every lane of a batch, beside windows of
        // the other kinds.
        let mut batch = vec![1.0f32; BARKER_WINDOWS * wlen];
        let mut lane = 0;
        let mut check = |win: &[f32], what: &str| {
            lane = (lane + 1) % BARKER_WINDOWS;
            batch[lane * wlen..(lane + 1) * wlen].copy_from_slice(win);
            let mut scores = [0.0; BARKER_WINDOWS];
            barker_scores(&batch, &d.tiled, d.sps, d.pattern_norm, &mut scores);
            assert_eq!(
                scores[lane].to_bits(),
                reference.window_score(win).to_bits(),
                "{what}"
            );
        };
        // Windows at random (mostly symbol-unaligned) positions of real
        // DBPSK, CCK, GFSK and noise |Δφ|.
        let mut rng = Xoshiro256::new(0xBA2C);
        for (name, pb) in [
            ("dbpsk", wifi_block(WifiRate::R1, 300, 12.0, 1)),
            ("cck", wifi_block(WifiRate::R11, 1500, 20.0, 2)),
            ("gfsk", bt_block(3)),
            ("awgn", noise_block(4)),
        ] {
            let mut dphi = Vec::new();
            rfd_dsp::phase::phase_diff_abs_into(&pb.samples, &mut dphi);
            for _ in 0..2500 {
                let a = (rng.next_f32() * (dphi.len() - wlen) as f32) as usize;
                check(&dphi[a..a + wlen], name);
            }
        }
        // Degenerate windows: zero energy takes the 1e-9 denominator floor.
        check(&vec![0.0; wlen], "all zero");
        check(&vec![-0.0; wlen], "all negative zero");
        check(&vec![1.25; wlen], "all equal");
        check(&vec![std::f32::consts::PI; wlen], "all pi");
    }

    #[test]
    fn votes_equal_the_libm_whole_peak_detector() {
        let mut d = WifiPhaseDetector::new(8e6);
        let reference = Reference::of(&d);
        let mut blocks = vec![
            bt_block(5),
            bt_block(6),
            noise_block(9),
            noise_block(10),
            block_of(vec![Complex32::ZERO; 2000], 1e-4),
        ];
        // ACKs, and a 1 Mbps frame cut to every window count from the
        // shortest accepted peak up, each with a few spare samples.
        for snr_db in [6.0, 12.0, 25.0] {
            let psdu = MacFrame::ack(MacAddr::station(1)).to_bytes();
            let w = modulate(&psdu, WifiTxConfig { rate: WifiRate::R1 });
            let mut at8 = resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
            let noise = rfd_dsp::energy::db_to_power(-snr_db);
            GaussianGen::new(snr_db as u64).add_awgn(&mut at8, noise);
            blocks.push(block_of(at8, noise));
        }
        let long = wifi_block(WifiRate::R1, 300, 20.0, 11);
        for windows in 3..30 {
            let len = windows * d.wlen() + windows % 5;
            blocks.push(block_of(
                long.samples[..len].to_vec(),
                long.peak.noise_floor,
            ));
        }
        let mut voted = 0;
        for rate in [WifiRate::R1, WifiRate::R2, WifiRate::R5_5, WifiRate::R11] {
            for snr_step in 1..=10 {
                for seed in 0..4u64 {
                    let pb = wifi_block(rate, 200, 3.0 * snr_step as f32, 100 + seed);
                    let shifted = frequency_shift(&pb.samples, 30e3, 8e6);
                    blocks.push(PeakBlock {
                        samples: Arc::new(shifted),
                        ..pb.clone()
                    });
                    blocks.push(pb);
                }
            }
        }
        for (i, pb) in blocks.iter().enumerate() {
            let votes = d.on_peak(pb);
            assert_eq!(votes, reference.on_peak(pb), "block {i}");
            voted += votes.len();
        }
        // The sweep straddles the detection knee: both outcomes occur.
        assert!(voted > blocks.len() / 4 && voted < blocks.len());
    }

    #[test]
    fn cck_payload_is_not_read_past_the_third_miss() {
        // 1500 bytes at 11 Mbps: a 192 us DBPSK preamble + header (48
        // windows of 4 us) in front of ~1.1 ms of CCK.
        let mut d = WifiPhaseDetector::new(8e6);
        let pb = wifi_block(WifiRate::R11, 1500, 25.0, 8);
        let samples = pb.peak_samples();
        let (matched, _, scored) = d.match_prefix(samples);
        assert!(matched >= d.min_windows);
        // Windows are scored in whole batches from the start of the peak.
        let header_windows = 192 * 8 / d.wlen();
        assert!(
            scored <= (header_windows + MAX_MISSES).next_multiple_of(BARKER_WINDOWS),
            "phased {scored} of {} windows",
            samples.len() / d.wlen()
        );
    }

    #[test]
    fn detects_1mbps_at_high_snr() {
        let mut d = WifiPhaseDetector::new(8e6);
        let votes = d.on_peak(&wifi_block(WifiRate::R1, 200, 25.0, 1));
        assert_eq!(votes.len(), 1, "must classify 1 Mbps DBPSK");
        assert_eq!(votes[0].protocol, Protocol::Wifi);
    }

    #[test]
    fn detects_headers_of_cck_frames() {
        // 11 Mbps frame: the DBPSK preamble+header must still trigger.
        let mut d = WifiPhaseDetector::new(8e6);
        let pb = wifi_block(WifiRate::R11, 800, 25.0, 2);
        let votes = d.on_peak(&pb);
        assert_eq!(votes.len(), 1, "PLCP header is always DBPSK");
        // The matched range must not extend deep into the CCK payload:
        // header ends at 192 us = 1536 samples (the resampled stream starts
        // at the preamble). Allow slack of a few windows.
        let (s, e) = votes[0].range.unwrap();
        assert_eq!(s, 0);
        let frac = e as f64 / pb.peak.end as f64;
        assert!(frac < 0.7, "passed {frac} of a CCK frame");
    }

    #[test]
    fn passes_most_of_a_1mbps_frame() {
        let mut d = WifiPhaseDetector::new(8e6);
        let pb = wifi_block(WifiRate::R1, 300, 25.0, 3);
        let votes = d.on_peak(&pb);
        let (_, e) = votes[0].range.unwrap();
        let frac = e as f64 / pb.peak.end as f64;
        assert!(frac > 0.8, "only passed {frac} of a DBPSK frame");
    }

    #[test]
    fn rejects_gfsk() {
        let mut d = WifiPhaseDetector::new(8e6);
        assert!(
            d.on_peak(&bt_block(5)).is_empty(),
            "GFSK must not look like Barker DBPSK"
        );
    }

    #[test]
    fn rejects_noise() {
        let mut d = WifiPhaseDetector::new(8e6);
        assert!(d.on_peak(&noise_block(9)).is_empty());
    }

    #[test]
    fn survives_frequency_offset() {
        let mut d = WifiPhaseDetector::new(8e6);
        let pb = wifi_block(WifiRate::R1, 150, 25.0, 4);
        let shifted = frequency_shift(&pb.samples, 30e3, 8e6);
        let pb2 = PeakBlock {
            samples: Arc::new(shifted),
            ..pb
        };
        assert_eq!(
            d.on_peak(&pb2).len(),
            1,
            "30 kHz CFO must not defeat the detector"
        );
    }

    #[test]
    fn degrades_at_low_snr() {
        let mut d = WifiPhaseDetector::new(8e6);
        // At 0 dB (well below the paper's ~9 dB knee) detection should fail.
        let votes = d.on_peak(&wifi_block(WifiRate::R1, 200, 0.0, 6));
        assert!(
            votes.is_empty(),
            "0 dB SNR should defeat the phase detector"
        );
    }

    #[test]
    fn short_peaks_are_ignored() {
        let mut d = WifiPhaseDetector::new(8e6);
        let pb = wifi_block(WifiRate::R1, 200, 25.0, 7);
        let short = PeakBlock {
            peak: Peak {
                end: 100,
                ..pb.peak
            },
            samples: Arc::new(pb.samples[..100].to_vec()),
            ..pb
        };
        assert!(d.on_peak(&short).is_empty());
    }
}
