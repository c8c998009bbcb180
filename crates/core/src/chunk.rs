//! Sample chunks and peak metadata — the currency of the detection stage.

use rfd_dsp::Complex32;
use std::sync::Arc;
use std::time::Instant;

/// A fixed-size chunk of the sample stream (the paper uses 200 samples =
/// 25 µs). Samples are shared, never copied, as chunks move through the
/// flowgraph.
#[derive(Debug, Clone)]
pub struct SampleChunk {
    /// Chunk sequence number.
    pub seq: u64,
    /// Absolute sample index of `samples[0]`.
    pub start: u64,
    /// The samples (usually `CHUNK_SAMPLES` long; the final chunk of a trace
    /// may be shorter).
    pub samples: Arc<Vec<Complex32>>,
    /// Stream sample rate, Hz.
    pub sample_rate: f64,
    /// When this chunk entered the pipeline (stamped at the source when
    /// telemetry is on; `None` otherwise). Never serialized or compared —
    /// purely an observability side channel for stage-latency histograms.
    pub ingest: Option<Instant>,
}

impl SampleChunk {
    /// Chunks a trace into `chunk_len`-sample pieces.
    pub fn chunk_trace(
        samples: &[Complex32],
        sample_rate: f64,
        chunk_len: usize,
    ) -> Vec<SampleChunk> {
        assert!(chunk_len > 0);
        samples
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, c)| SampleChunk {
                seq: i as u64,
                start: (i * chunk_len) as u64,
                samples: Arc::new(c.to_vec()),
                sample_rate,
                ingest: None,
            })
            .collect()
    }
}

/// Metadata for one detected RF peak (one transmission burst).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Monotone peak id.
    pub id: u64,
    /// Absolute sample index where the peak starts.
    pub start: u64,
    /// One past the last sample of the peak.
    pub end: u64,
    /// Mean power over the peak (linear).
    pub mean_power: f32,
    /// Noise floor estimate at detection time (linear power).
    pub noise_floor: f32,
}

impl Peak {
    /// Peak length in samples.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for degenerate zero-length peaks (never emitted).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// SNR estimate in dB.
    pub(crate) fn snr_db(&self) -> f32 {
        rfd_dsp::energy::power_to_db(self.mean_power)
            - rfd_dsp::energy::power_to_db(self.noise_floor)
    }
}

/// A completed peak together with its samples (plus a small margin), as
/// handed from the protocol-agnostic stage to the fast detectors and, when
/// promising, to the analyzers.
#[derive(Debug, Clone)]
pub struct PeakBlock {
    /// The peak metadata.
    pub peak: Peak,
    /// Samples covering `[sample_start, sample_start + samples.len())`,
    /// which includes the peak and a margin on both sides.
    pub samples: Arc<Vec<Complex32>>,
    /// Absolute index of `samples[0]`.
    pub sample_start: u64,
    /// Stream sample rate.
    pub sample_rate: f64,
    /// Ingest stamp inherited from the earliest chunk contributing to this
    /// peak (`None` outside telemetry runs). See [`SampleChunk::ingest`].
    pub ingest: Option<Instant>,
}

impl PeakBlock {
    /// The slice of samples belonging to the peak proper.
    pub(crate) fn peak_samples(&self) -> &[Complex32] {
        let a = (self.peak.start - self.sample_start) as usize;
        let b = ((self.peak.end - self.sample_start) as usize).min(self.samples.len());
        &self.samples[a.min(b)..b]
    }

    /// Peak start time in microseconds.
    pub(crate) fn start_us(&self) -> f64 {
        self.peak.start as f64 / self.sample_rate * 1e6
    }

    /// Peak end time in microseconds.
    pub fn end_us(&self) -> f64 {
        self.peak.end as f64 / self.sample_rate * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_everything() {
        let sig: Vec<Complex32> = (0..1050).map(|i| Complex32::new(i as f32, 0.0)).collect();
        let chunks = SampleChunk::chunk_trace(&sig, 8e6, 200);
        assert_eq!(chunks.len(), 6);
        assert_eq!(chunks[5].samples.len(), 50);
        let total: usize = chunks.iter().map(|c| c.samples.len()).sum();
        assert_eq!(total, 1050);
        assert_eq!(chunks[3].start, 600);
        assert_eq!(chunks[3].samples[0].re, 600.0);
    }

    #[test]
    fn peak_geometry() {
        let p = Peak {
            id: 0,
            start: 800,
            end: 1600,
            mean_power: 1.0,
            noise_floor: 0.01,
        };
        assert_eq!(p.len(), 800);
        assert!((p.snr_db() - 20.0).abs() < 1e-4);
    }

    #[test]
    fn peak_block_slicing() {
        let samples: Vec<Complex32> = (0..100).map(|i| Complex32::new(i as f32, 0.0)).collect();
        let pb = PeakBlock {
            peak: Peak {
                id: 1,
                start: 1020,
                end: 1080,
                mean_power: 1.0,
                noise_floor: 0.1,
            },
            samples: Arc::new(samples),
            sample_start: 1000,
            sample_rate: 8e6,
            ingest: None,
        };
        let s = pb.peak_samples();
        assert_eq!(s.len(), 60);
        assert_eq!(s[0].re, 20.0);
        assert!((pb.start_us() - 127.5).abs() < 1e-9);
    }
}
