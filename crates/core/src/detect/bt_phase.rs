//! Bluetooth GFSK phase detector (§4.5).
//!
//! "Bluetooth uses a continuous-phase modulation technique called GMSK.
//! Thus, if the second derivative of the phase is equal to zero, the packet
//! is classified as Bluetooth. The first derivative identifies the channel.
//! This detection processing is inexpensive: computing phase change from one
//! sample to the next costs a complex conjugation, multiplication and
//! arctan() operation. Subtraction gives the second derivative."

use super::{Classification, FastDetector};
use crate::chunk::PeakBlock;
use rfd_phy::Protocol;

/// The GFSK phase detector.
pub struct BtPhaseDetector {
    /// Monitor band center (Hz relative to the 2.4 GHz band start); used to
    /// turn a measured carrier offset into an RF channel number.
    band_center_hz: f64,
    /// Samples examined per peak (the whole peak up to this bound).
    pub max_samples: usize,
    /// Margin added to the SNR-dependent |φ''| noise floor (rad/sample²):
    /// GFSK's intrinsic mean |φ''| at 8 Msps is ~0.02, Wi-Fi's Barker chip
    /// flips give ~1, so a small margin over the expected phase-noise floor
    /// separates them across the whole SNR range.
    pub d2_margin: f32,
    /// Minimum peak samples needed.
    pub min_samples: usize,
}

impl BtPhaseDetector {
    /// Creates the detector for a monitor band centered at `band_center_hz`.
    pub fn new(band_center_hz: f64) -> Self {
        Self {
            band_center_hz,
            max_samples: 4096,
            d2_margin: 0.05,
            min_samples: 200,
        }
    }
}

impl FastDetector for BtPhaseDetector {
    fn name(&self) -> &str {
        "detect:bt-gfsk-phase"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Bluetooth
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let samples = pb.peak_samples();
        if samples.len() < self.min_samples {
            return Vec::new();
        }
        // Bluetooth packets never exceed 5 slots.
        if pb.end_us() - pb.start_us() > 5.0 * rfd_phy::bluetooth::SLOT_US {
            return Vec::new();
        }
        let n = samples.len().min(self.max_samples);
        // Expected mean |φ''| from AWGN phase noise alone: per-sample phase
        // noise σ ≈ 1/sqrt(2·SNR); the second difference combines three
        // samples (variance ×6) and E[|N(0,σ)|] = 0.8·σ.
        let snr_lin = (pb.peak.mean_power / pb.peak.noise_floor.max(1e-12)).max(1.0);
        let noise_floor_d2 = 0.8 * (6.0f32 / (2.0 * snr_lin)).sqrt();
        // The cap keeps strongly-modulated signals out: Wi-Fi's Barker chip
        // flips give mean |φ''| ≳ 1 and raw noise ≈ 1.4, while GFSK + phase
        // noise stays below ~0.8 down to the peak detector's own SNR floor.
        let threshold = (noise_floor_d2 + self.d2_margin).min(0.8);
        let count_d2 = n.saturating_sub(2) as f64;
        let mean = |sum_abs_d2: f64| (sum_abs_d2 / count_d2) as f32;
        // First derivative (one conj-multiply + atan per sample) and running
        // second-derivative statistic, fused into a single vectorized pass
        // that stops at the first block whose partial |φ''| sum already
        // rejects: the sum never falls, so neither does its mean. (A NaN
        // product, which could leave a rejected sum NaN at the end, rejects
        // anyway: its first derivative is NaN, so the channel is none.)
        let Some(stats) = rfd_dsp::phase::phase_deriv_stats_until(&samples[..n], |s| {
            mean(s.sum_abs_d2) > threshold
        }) else {
            return Vec::new();
        };
        if stats.count_d2 == 0 {
            return Vec::new();
        }
        let mean_abs_d2 = mean(stats.sum_abs_d2);
        if mean_abs_d2 > threshold {
            return Vec::new();
        }
        // The first derivative identifies the channel.
        let fs = pb.sample_rate;
        let mean_d1 = stats.sum_d1 / (n - 1) as f64;
        let freq = mean_d1 * fs / rfd_dsp::TAU64; // offset from band center
        let abs_freq = self.band_center_hz + freq;
        // Nearest Bluetooth channel.
        let ch = ((abs_freq - 2e6) / 1e6).round();
        let channel = if (0.0..79.0).contains(&ch) {
            let center = rfd_phy::bluetooth::hop::channel_freq_hz(ch as u8);
            // The measured carrier must sit near a channel center.
            ((abs_freq - center).abs() < 0.35e6).then_some(ch as u8)
        } else {
            None
        };
        if channel.is_none() {
            return Vec::new();
        }
        // Confidence rises as the phase gets smoother.
        let confidence = (1.0 - mean_abs_d2 / threshold).clamp(0.1, 1.0) * 0.5 + 0.45;
        vec![Classification {
            peak_id: pb.peak.id,
            protocol: Protocol::Bluetooth,
            confidence,
            channel,
            range: None,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Peak;
    use rfd_dsp::nco::frequency_shift;
    use rfd_dsp::rng::GaussianGen;
    use rfd_dsp::Complex32;
    use rfd_phy::wifi::plcp::WifiRate;
    use std::sync::Arc;

    fn block_from(samples: Vec<Complex32>, noise_floor: f32) -> PeakBlock {
        let n = samples.len() as u64;
        PeakBlock {
            peak: Peak {
                id: 7,
                start: 0,
                end: n,
                mean_power: 1.0,
                noise_floor,
            },
            samples: Arc::new(samples),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    fn gfsk(nbits: usize, offset_hz: f64, snr_db: f32, seed: u64) -> PeakBlock {
        use rfd_phy::bluetooth::gfsk::{modulate_bits, BtTxConfig};
        let bits: Vec<bool> = (0..nbits).map(|i| (i * 13 + 5) % 3 == 0).collect();
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        let mut sig = frequency_shift(&w.samples, offset_hz, 8e6);
        let noise = rfd_dsp::energy::db_to_power(-snr_db);
        GaussianGen::new(seed).add_awgn(&mut sig, noise);
        block_from(sig, noise)
    }

    /// The detector as it was before the early rejection: the full
    /// first/second-derivative sums over the examined samples, one
    /// sequential `libm` pass, then the threshold test. The oracle for
    /// `votes_equal_the_full_sum_detector`.
    struct Reference {
        band_center_hz: f64,
        max_samples: usize,
        d2_margin: f32,
        min_samples: usize,
    }

    impl Reference {
        fn of(d: &BtPhaseDetector) -> Self {
            Self {
                band_center_hz: d.band_center_hz,
                max_samples: d.max_samples,
                d2_margin: d.d2_margin,
                min_samples: d.min_samples,
            }
        }

        fn on_peak(&self, pb: &PeakBlock) -> Vec<Classification> {
            let samples = pb.peak_samples();
            if samples.len() < self.min_samples
                || pb.end_us() - pb.start_us() > 5.0 * rfd_phy::bluetooth::SLOT_US
            {
                return Vec::new();
            }
            let n = samples.len().min(self.max_samples);
            let (mut sum_d1, mut sum_abs_d2, mut count_d2) = (0.0f64, 0.0f64, 0usize);
            let mut prev: Option<f32> = None;
            for w in samples[..n].windows(2) {
                let d1 = (w[1] * w[0].conj()).arg();
                sum_d1 += d1 as f64;
                if let Some(p) = prev {
                    sum_abs_d2 += rfd_dsp::phase::wrap_phase(d1 - p).abs() as f64;
                    count_d2 += 1;
                }
                prev = Some(d1);
            }
            if count_d2 == 0 {
                return Vec::new();
            }
            let mean_abs_d2 = (sum_abs_d2 / count_d2 as f64) as f32;
            let snr_lin = (pb.peak.mean_power / pb.peak.noise_floor.max(1e-12)).max(1.0);
            let noise_floor_d2 = 0.8 * (6.0f32 / (2.0 * snr_lin)).sqrt();
            let threshold = (noise_floor_d2 + self.d2_margin).min(0.8);
            if mean_abs_d2 > threshold {
                return Vec::new();
            }
            let mean_d1 = sum_d1 / (n - 1) as f64;
            let abs_freq = self.band_center_hz + mean_d1 * pb.sample_rate / rfd_dsp::TAU64;
            let ch = ((abs_freq - 2e6) / 1e6).round();
            let channel = if (0.0..79.0).contains(&ch) {
                let center = rfd_phy::bluetooth::hop::channel_freq_hz(ch as u8);
                ((abs_freq - center).abs() < 0.35e6).then_some(ch as u8)
            } else {
                None
            };
            if channel.is_none() {
                return Vec::new();
            }
            let confidence = (1.0 - mean_abs_d2 / threshold).clamp(0.1, 1.0) * 0.5 + 0.45;
            vec![Classification {
                peak_id: pb.peak.id,
                protocol: Protocol::Bluetooth,
                confidence,
                channel,
                range: None,
            }]
        }
    }

    fn wifi(
        frame: rfd_phy::wifi::frame::MacFrame,
        rate: WifiRate,
        snr_db: f32,
        seed: u64,
    ) -> PeakBlock {
        use rfd_phy::wifi::modulator::{modulate, WifiTxConfig};
        let w = modulate(&frame.to_bytes(), WifiTxConfig { rate });
        let mut at8 = rfd_dsp::resample::resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
        let noise = rfd_dsp::energy::db_to_power(-snr_db);
        GaussianGen::new(seed).add_awgn(&mut at8, noise);
        block_from(at8, noise)
    }

    #[test]
    fn votes_equal_the_full_sum_detector() {
        use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
        let mut d = BtPhaseDetector::new(37e6);
        let reference = Reference::of(&d);
        let mut blocks = Vec::new();
        for seed in 0..4u64 {
            let data = |len| {
                MacFrame::data(
                    MacAddr::station(1),
                    MacAddr::station(2),
                    MacAddr::station(0),
                    seed as u16,
                    icmp_echo_body(seed as u16, len),
                )
            };
            // 1 Mbps frames short enough to pass the 5-slot bound, ACKs,
            // and CCK frames.
            blocks.push(wifi(
                data(100 + 60 * seed as usize),
                WifiRate::R1,
                25.0,
                seed,
            ));
            blocks.push(wifi(
                MacFrame::ack(MacAddr::station(1)),
                WifiRate::R1,
                12.0 + 6.0 * seed as f32,
                seed,
            ));
            blocks.push(wifi(data(1500), WifiRate::R11, 20.0, seed));
            blocks.push(wifi(data(600), WifiRate::R5_5, 15.0, seed));
            // AWGN peaks, short and long.
            let mut sig = vec![Complex32::ZERO; 300 + 3000 * seed as usize];
            GaussianGen::new(40 + seed).add_awgn(&mut sig, 1.0);
            blocks.push(block_from(sig, 1.0));
        }
        // GFSK from 5 to 30 dB on and off the channel grid.
        for snr_db in [5.0, 8.0, 10.0, 12.0, 15.0, 20.0, 30.0] {
            for (i, off) in [-3e6, -1e6, 0.0, 0.25e6, 0.5e6, 2e6]
                .into_iter()
                .enumerate()
            {
                blocks.push(gfsk(300 + 250 * i, off, snr_db, i as u64));
            }
        }
        blocks.push(block_from(vec![Complex32::ZERO; 1000], 1e-4));
        let mut voted = 0;
        for (i, pb) in blocks.iter().enumerate() {
            let votes = d.on_peak(pb);
            assert_eq!(votes, reference.on_peak(pb), "block {i}");
            voted += votes.len();
        }
        // Both outcomes occur.
        assert!(
            voted > 10 && voted + 10 < blocks.len(),
            "{voted} of {}",
            blocks.len()
        );
    }

    #[test]
    fn detects_gfsk_at_band_center_channel() {
        // Band centered at 37 MHz; channel 35 sits exactly there.
        let mut d = BtPhaseDetector::new(37e6);
        let votes = d.on_peak(&gfsk(1000, 0.0, 30.0, 1));
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].channel, Some(35));
    }

    #[test]
    fn first_derivative_identifies_the_channel() {
        let mut d = BtPhaseDetector::new(37e6);
        for (off, ch) in [(-3e6, 32u8), (-1e6, 34), (2e6, 37), (3e6, 38)] {
            let votes = d.on_peak(&gfsk(800, off, 30.0, 2));
            assert_eq!(votes.len(), 1, "offset {off}");
            assert_eq!(votes[0].channel, Some(ch), "offset {off}");
        }
    }

    #[test]
    fn rejects_wifi_dbpsk() {
        use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
        use rfd_phy::wifi::modulator::{modulate, WifiTxConfig};
        let psdu = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            0,
            icmp_echo_body(0, 100),
        )
        .to_bytes();
        let w = modulate(&psdu, WifiTxConfig::default());
        let at8 = rfd_dsp::resample::resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
        let mut d = BtPhaseDetector::new(37e6);
        assert!(d.on_peak(&block_from(at8, 1e-4)).is_empty());
    }

    #[test]
    fn rejects_noise() {
        let mut sig = vec![Complex32::ZERO; 4000];
        GaussianGen::new(3).add_awgn(&mut sig, 1.0);
        let mut d = BtPhaseDetector::new(37e6);
        assert!(d.on_peak(&block_from(sig, 1.0)).is_empty());
    }

    #[test]
    fn rejects_low_snr_gfsk() {
        let mut d = BtPhaseDetector::new(37e6);
        assert!(
            d.on_peak(&gfsk(800, 0.0, 2.0, 4)).is_empty(),
            "2 dB should defeat phase detection"
        );
    }

    #[test]
    fn rejects_overlong_peaks() {
        // 30000 samples = 3.75 ms... under 5 slots; make it 30 ms worth by
        // faking the peak metadata.
        let pb0 = gfsk(2000, 0.0, 30.0, 5);
        let pb = PeakBlock {
            peak: Peak {
                end: pb0.peak.start + 8_000 * 30,
                ..pb0.peak
            },
            ..pb0
        };
        let mut d = BtPhaseDetector::new(37e6);
        assert!(d.on_peak(&pb).is_empty());
    }

    #[test]
    fn off_grid_carrier_is_rejected() {
        // A clean tone halfway between channels: smooth phase but no valid
        // channel.
        let mut d = BtPhaseDetector::new(37e6);
        let votes = d.on_peak(&gfsk(800, 0.5e6, 30.0, 6));
        assert!(
            votes.is_empty(),
            "carrier between channels must not classify"
        );
    }
}
