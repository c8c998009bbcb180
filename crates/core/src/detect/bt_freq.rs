//! Bluetooth frequency-domain detector (§4.6).
//!
//! "This module looks at chunks of samples from the input stream and
//! translates from time domain to frequency domain using an FFT. Since we
//! have 8 Bluetooth channels in the 8 MHz band we are monitoring, we divide
//! the FFT values into 8 bins. The module then finds the bins that are above
//! a threshold. If there is only one such bin, then it is identified as part
//! of a Bluetooth transmission."

use super::{Classification, FastDetector};
use crate::chunk::PeakBlock;
use rfd_dsp::fft::Fft;
use rfd_dsp::Complex32;
use rfd_phy::Protocol;

/// FFT size used per analysis window.
pub(crate) const FFT_SIZE: usize = 64;

/// The frequency detector.
pub(crate) struct BtFreqDetector {
    band_center_hz: f64,
    fft: Fft,
    /// Number of 1 MHz-wide bins across the band.
    nbins: usize,
    /// A bin must hold at least this fraction of total power to be "above
    /// threshold".
    pub bin_threshold: f32,
    /// Windows averaged per peak.
    pub windows: usize,
    /// Scratch: the window being transformed, in place.
    spectrum: Vec<Complex32>,
    /// Scratch: power spectrum summed over the windows of a peak.
    acc: Vec<f32>,
    /// Scratch: `acc` folded into 1 MHz channel bins.
    bins: Vec<f32>,
}

impl BtFreqDetector {
    /// Creates the detector for a band of `sample_rate` Hz centered at
    /// `band_center_hz`.
    pub fn new(sample_rate: f64, band_center_hz: f64) -> Self {
        // Bins centered at integer-MHz offsets from the band center:
        // offsets -K..=K with K = fs/2 MHz.
        let nbins = (sample_rate / 1e6).round() as usize + 1;
        assert!(nbins >= 3);
        Self {
            band_center_hz,
            fft: Fft::new(FFT_SIZE),
            nbins,
            bin_threshold: 0.6,
            windows: 8,
            spectrum: vec![Complex32::ZERO; FFT_SIZE],
            acc: vec![0.0; FFT_SIZE],
            bins: vec![0.0; nbins],
        }
    }
}

impl FastDetector for BtFreqDetector {
    fn name(&self) -> &str {
        "detect:bt-fft-freq"
    }

    fn protocol(&self) -> Protocol {
        Protocol::Bluetooth
    }

    fn on_peak(&mut self, pb: &PeakBlock) -> Vec<Classification> {
        let samples = pb.peak_samples();
        if samples.len() < FFT_SIZE {
            return Vec::new();
        }
        if pb.end_us() - pb.start_us() > 5.0 * rfd_phy::bluetooth::SLOT_US {
            return Vec::new();
        }
        // Average the power spectrum (|X_k|² / n) over a few windows spread
        // across the peak.
        self.acc.fill(0.0);
        let nwin = self.windows.min(samples.len() / FFT_SIZE).max(1);
        let stride = (samples.len() - FFT_SIZE) / nwin.max(1) + 1;
        let scale = 1.0 / FFT_SIZE as f32;
        for w in 0..nwin {
            let a = (w * stride).min(samples.len() - FFT_SIZE);
            self.spectrum.copy_from_slice(&samples[a..a + FFT_SIZE]);
            self.fft.forward(&mut self.spectrum);
            for (o, z) in self.acc.iter_mut().zip(self.spectrum.iter()) {
                *o += z.norm_sqr() * scale;
            }
        }
        // Fold FFT bins into 1-MHz channel bins centered on integer-MHz
        // offsets: offset o maps to bin round(o/1 MHz) + K.
        let fs = pb.sample_rate;
        let k_half = (self.nbins - 1) / 2;
        let bins = &mut self.bins;
        bins.fill(0.0);
        for (k, &p) in self.acc.iter().enumerate() {
            let f = rfd_dsp::fft::bin_frequency(k, FFT_SIZE, fs);
            let idx = ((f / 1e6).round() as isize + k_half as isize)
                .clamp(0, self.nbins as isize - 1) as usize;
            bins[idx] += p;
        }
        let total: f32 = bins.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        // Exactly one bin above threshold, or it is not Bluetooth.
        let mut hot = (0..self.nbins).filter(|&i| bins[i] / total >= self.bin_threshold);
        let (Some(hot_bin), None) = (hot.next(), hot.next()) else {
            return Vec::new();
        };
        // Map the bin back to an RF channel number via its center frequency.
        let f_center = self.band_center_hz + (hot_bin as f64 - k_half as f64) * 1e6;
        let ch = ((f_center - 2e6) / 1e6).round();
        let channel = (0.0..79.0).contains(&ch).then_some(ch as u8);
        vec![Classification {
            peak_id: pb.peak.id,
            protocol: Protocol::Bluetooth,
            confidence: 0.7,
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
    use std::sync::Arc;

    fn block_from(samples: Vec<Complex32>) -> PeakBlock {
        let n = samples.len() as u64;
        PeakBlock {
            peak: Peak {
                id: 0,
                start: 0,
                end: n,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(samples),
            sample_start: 0,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    fn gfsk_at(offset_hz: f64, snr_db: f32, seed: u64) -> PeakBlock {
        use rfd_phy::bluetooth::gfsk::{modulate_bits, BtTxConfig};
        let bits: Vec<bool> = (0..600).map(|i| i % 2 == 0 || i % 5 == 0).collect();
        let w = modulate_bits(&bits, BtTxConfig { sample_rate: 8e6 });
        let mut sig = frequency_shift(&w.samples, offset_hz, 8e6);
        GaussianGen::new(seed).add_awgn(&mut sig, rfd_dsp::energy::db_to_power(-snr_db));
        block_from(sig)
    }

    #[test]
    fn narrowband_signal_lands_in_one_bin_with_channel() {
        let mut d = BtFreqDetector::new(8e6, 37e6);
        // Channel 37 = 39 MHz = +2 MHz offset.
        let votes = d.on_peak(&gfsk_at(2e6, 25.0, 1));
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].channel, Some(37));
    }

    #[test]
    fn center_channel_detected() {
        let mut d = BtFreqDetector::new(8e6, 37e6);
        let votes = d.on_peak(&gfsk_at(0.0, 25.0, 2));
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].channel, Some(35));
    }

    #[test]
    fn wideband_wifi_occupies_many_bins_and_is_rejected() {
        use rfd_phy::wifi::frame::{icmp_echo_body, MacAddr, MacFrame};
        use rfd_phy::wifi::modulator::{modulate, WifiTxConfig};
        let psdu = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            0,
            icmp_echo_body(0, 64),
        )
        .to_bytes();
        let w = modulate(&psdu, WifiTxConfig::default());
        let at8 = rfd_dsp::resample::resample_windowed_sinc(&w.samples, 11e6, 8e6, 8);
        let mut d = BtFreqDetector::new(8e6, 37e6);
        assert!(d.on_peak(&block_from(at8)).is_empty());
    }

    #[test]
    fn flat_noise_is_rejected() {
        let mut sig = vec![Complex32::ZERO; 4000];
        GaussianGen::new(4).add_awgn(&mut sig, 1.0);
        let mut d = BtFreqDetector::new(8e6, 37e6);
        assert!(d.on_peak(&block_from(sig)).is_empty());
    }

    #[test]
    fn too_short_peak_is_skipped() {
        let sig = vec![Complex32::ONE; 32];
        let mut d = BtFreqDetector::new(8e6, 37e6);
        assert!(d.on_peak(&block_from(sig)).is_empty());
    }
}
