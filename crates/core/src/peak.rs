//! The protocol-agnostic peak detector with integrated energy filtering
//! (paper §4.2-§4.3).
//!
//! The detector re-blocks whatever chunking the pipeline delivers into
//! fixed [`DETECT_BLOCK`]-sample detection blocks before any decision is
//! made. Per block, it first checks whether the average energy of the last
//! window of samples clears the threshold (noise floor + 4 dB); only then
//! is the block examined sample-by-sample, using both the windowed average
//! (for robustness to fades inside a packet) and the instantaneous
//! magnitude (for precise peak-edge location). Completed peaks are emitted
//! as [`PeakBlock`]s carrying their samples; the peak history (start/end
//! timestamps) that the timing detectors search lives in the detectors
//! themselves, fed from these blocks.
//!
//! The internal re-blocking is what makes the pipeline's chunk size a pure
//! latency/throughput knob: the online noise floor (per-block averages),
//! the energy gate, the coarse hot scan and every per-sample decision see
//! identical block boundaries no matter how the stream was chunked, so the
//! emitted peaks — and therefore the records — are byte-identical across
//! chunk sizes (`tests/differential_scheduler.rs` proves it).

use crate::chunk::{Peak, PeakBlock, SampleChunk};
use rfd_dsp::energy::{db_to_power, RunningPower};
use rfd_dsp::Complex32;
use std::sync::Arc;

/// Detection-block length in samples: the paper's 200-sample (25 µs at
/// 8 Msps) granularity. Inbound chunks of any size are re-blocked to this
/// before detection, so detector state — and the records downstream — do
/// not depend on the pipeline's (possibly adaptive) chunk size.
pub const DETECT_BLOCK: usize = crate::CHUNK_SAMPLES;
// The fused pass splits a block into four equal quarters.
const _: () = assert!(DETECT_BLOCK.is_multiple_of(4));

/// Peak detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct PeakDetectorConfig {
    /// Averaging window, samples (paper: 20 = 2.5 µs at 8 Msps).
    pub avg_window: usize,
    /// Threshold over the noise floor, dB (paper: 4 dB).
    pub threshold_db: f32,
    /// Fixed noise floor (linear power). `None` enables online estimation
    /// (decaying minimum of chunk averages).
    pub noise_floor: Option<f32>,
    /// A peak ends after the windowed average stays below threshold for
    /// this many samples (prevents splitting packets on short fades;
    /// "filtering ... should not discard short bursts of low-energy samples
    /// that sit between two sample blocks of interest").
    pub hang_samples: usize,
    /// Margin of samples kept around each peak in its [`PeakBlock`].
    pub margin: usize,
    /// Minimum peak length in samples (drops glitches).
    pub min_peak: usize,
}

impl Default for PeakDetectorConfig {
    fn default() -> Self {
        Self {
            avg_window: crate::AVG_WINDOW,
            threshold_db: crate::PEAK_THRESHOLD_DB,
            noise_floor: None,
            hang_samples: 24, // 3 us at 8 Msps
            margin: 40,
            // 20 us: comfortably below the shortest real packet (a 126 us
            // Bluetooth POLL) but long enough to reject noise flickers.
            min_peak: 160,
        }
    }
}

/// Streaming peak detector.
pub struct PeakDetector {
    cfg: PeakDetectorConfig,
    avg: RunningPower,
    /// Current noise floor estimate (linear power).
    floor: f32,
    floor_fixed: bool,
    /// Minimum of the recent block-average powers (the online floor).
    recent_avgs: SlidingMin,
    /// State: samples accumulated for the current (open) peak.
    open: Option<OpenPeak>,
    /// Count of consecutive below-threshold samples while a peak is open.
    below: usize,
    /// Ring of recent raw samples for peak-start margin.
    tail: Vec<Complex32>,
    next_id: u64,
    /// Absolute index of the next sample to enter a detection block.
    cursor: u64,
    sample_rate: f64,
    /// Scratch for the fused pass: the block's instantaneous powers, then
    /// the averaging window's values in eviction order.
    ext: Vec<f32>,
    /// `db_to_power(threshold_db)`: the threshold over the floor, linear.
    threshold_gain: f32,
    /// Blocks run through the sequential pass ([`Self::sequential_blocks`]).
    sequential_blocks: u64,
    /// Samples awaiting a full [`DETECT_BLOCK`]; covers
    /// `[cursor, cursor + pend.len())`.
    pend: Vec<Complex32>,
    /// Ingest stamp of the most recent inbound chunk (stamps the final
    /// partial block at `finish`; telemetry only).
    last_ingest: Option<std::time::Instant>,
    /// Whether this stream is being driven through the unfused reference
    /// path (chosen by the first push; the partial final block in `finish`
    /// must use the same path).
    unfused_mode: bool,
}

/// Relative half-width of the band around a tie inside which a comparison
/// made on the sum side by a multiply defers to the detector's exact
/// `(sum / n) as f32` division: far wider than the ~`2^-24` by which that
/// division and its rounding can move a value.
const TIE_BAND: f64 = 1e-6;

/// Smallest threshold the windowed-average comparison is banded against; a
/// quotient below `2^-126` is subnormal, where rounding is not relative, so
/// smaller thresholds are compared by division.
const MIN_BANDED_THRESHOLD: f32 = 1e-30;

/// Sequential `f64` mean of instantaneous powers computed from samples —
/// the detector's historical averaging order (the sequential pass).
fn seq_mean_samples(samples: &[Complex32]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|z| z.norm_sqr() as f64).sum::<f64>() / samples.len() as f64) as f32
}

/// Detection blocks the online noise floor looks back over: longer than any
/// packet (20 ms at 8 Msps), so a long transmission cannot drag the floor
/// up.
const FLOOR_WINDOW_BLOCKS: usize = 800;

/// Minimum over the last `window` pushed values in amortized O(1) per push.
///
/// A monotonic deque: it keeps only the values that can still become the
/// minimum — each younger than, and greater than, the one before it — so
/// the front is the minimum of the window. That is the same `f32` a fold of
/// `f32::min` over the whole window returns, for any values that compare
/// (the detector pushes only positive averages, never NaN).
struct SlidingMin {
    window: usize,
    /// Values pushed so far; the next value's position.
    pushed: u64,
    /// `(position, value)`, positions and values both increasing.
    candidates: std::collections::VecDeque<(u64, f32)>,
}

impl SlidingMin {
    fn new(window: usize) -> Self {
        Self {
            window,
            pushed: 0,
            candidates: Default::default(),
        }
    }

    /// Adds `v` and returns the minimum of the last `window` values, `v`
    /// included.
    fn push(&mut self, v: f32) -> f32 {
        while self.candidates.back().is_some_and(|&(_, b)| b >= v) {
            self.candidates.pop_back();
        }
        self.candidates.push_back((self.pushed, v));
        self.pushed += 1;
        let oldest = self.pushed.saturating_sub(self.window as u64);
        while self.candidates.front().is_some_and(|&(at, _)| at < oldest) {
            self.candidates.pop_front();
        }
        self.candidates.front().expect("just pushed").1
    }
}

/// The exact sums a certified block's decisions read.
struct BlockSums {
    /// Of the block's powers (the noise-floor mean).
    total: f64,
    /// Of its trailing `avg_window` powers (the energy gate).
    tail: f64,
    /// Of the averaging window's values before the block.
    ring: f64,
    /// The largest of its `avg_window`-stride windows (the coarse scan).
    max_stride: f64,
}

struct OpenPeak {
    start: u64,
    /// Buffered samples from `buf_start`.
    buf: Vec<Complex32>,
    buf_start: u64,
    /// Last sample index that ended a run of ≥3 consecutive above-threshold
    /// samples (the noise-robust peak-end anchor: isolated noise spikes in
    /// the hang window must not stretch the peak, but real signal is hot on
    /// consecutive samples).
    last_hot: u64,
    /// Current run length of consecutive above-threshold samples.
    hot_run: u32,
    /// Running power sum/count over the open peak (drives the adaptive
    /// instantaneous threshold).
    power_acc: f64,
    n_acc: u64,
    /// Ingest stamp of the chunk that opened the peak (telemetry only).
    ingest: Option<std::time::Instant>,
}

impl OpenPeak {
    /// Instantaneous-power threshold for edge refinement: a fraction of the
    /// peak's own mean power, but never below the energy threshold.
    fn inst_threshold(&self, energy_threshold: f32) -> f32 {
        inst_threshold(self.power_acc, self.n_acc, energy_threshold)
    }

    /// Runs the open peak over the next samples of a certified block, given
    /// each one's power and whether its windowed average clears the
    /// threshold: the hot-run anchor and the running power sum, exactly as
    /// the sequential pass updates them. `p > inst_threshold` is decided by
    /// comparing `p·n_acc` with `0.15·power_acc`, dividing only within
    /// [`TIE_BAND`] of a tie. Sound for what the block certificate lets
    /// through: for a positive normal power the adaptive threshold's `f32`
    /// roundings are relative, or leave it subnormal and so below the
    /// power; a zero power is never over a positive share, and with a zero
    /// share the tie branch divides.
    fn walk(&mut self, power: &[f32], hot_avg: &[bool], first: u64, threshold: f32) {
        use std::hint::select_unpredictable as select;
        const SHARE: f64 = 0.15f32 as f64;
        let (mut acc, mut n_acc) = (self.power_acc, self.n_acc);
        let (mut hot_run, mut last_hot) = (self.hot_run, self.last_hot);
        // `n_acc` as an `f64`, exact below 2^53.
        let mut n = n_acc as f64;
        // Branch-free but for ties: busy-ether powers straddle the adaptive
        // threshold at random, so a branch on the comparison would
        // mispredict; the tie branch is almost never taken.
        for (j, (&p, &avg_hot)) in power.iter().zip(hot_avg).enumerate() {
            let share = SHARE * acc;
            let margin = p as f64 * n - share;
            let over_share = if margin.abs() > share * TIE_BAND {
                margin > 0.0
            } else {
                p > inst_threshold(acc, n_acc, threshold)
            };
            hot_run = select((p > threshold) & over_share, hot_run + 1, 0);
            last_hot = select(hot_run >= 3, first + j as u64, last_hot);
            // Adding +0.0 leaves a sum of non-negative powers bit for bit.
            acc += select(avg_hot, p as f64, 0.0);
            n_acc += avg_hot as u64;
            n += select(avg_hot, 1.0, 0.0);
        }
        (self.power_acc, self.n_acc) = (acc, n_acc);
        (self.hot_run, self.last_hot) = (hot_run, last_hot);
    }
}

/// [`OpenPeak::inst_threshold`] of a peak whose power sum is `power_acc`
/// over `n_acc` samples.
fn inst_threshold(power_acc: f64, n_acc: u64, energy_threshold: f32) -> f32 {
    if n_acc == 0 {
        return energy_threshold;
    }
    let mean = (power_acc / n_acc as f64) as f32;
    (0.15 * mean).max(energy_threshold)
}

impl PeakDetector {
    /// Creates a detector for a stream at `sample_rate`.
    pub fn new(cfg: PeakDetectorConfig, sample_rate: f64) -> Self {
        let floor = cfg.noise_floor.unwrap_or(1e-6);
        Self {
            avg: RunningPower::new(cfg.avg_window),
            floor,
            floor_fixed: cfg.noise_floor.is_some(),
            recent_avgs: SlidingMin::new(FLOOR_WINDOW_BLOCKS),
            open: None,
            below: 0,
            tail: Vec::new(),
            next_id: 0,
            cursor: 0,
            cfg,
            sample_rate,
            ext: Vec::new(),
            threshold_gain: db_to_power(cfg.threshold_db),
            sequential_blocks: 0,
            pend: Vec::new(),
            last_ingest: None,
            unfused_mode: false,
        }
    }

    /// Detection blocks run through the sequential per-block pass: every
    /// block of a stream driven by [`push_chunk_unfused`](Self::push_chunk_unfused),
    /// otherwise the blocks whose sums the fused pass could not certify
    /// exact, and a short final block.
    pub fn sequential_blocks(&self) -> u64 {
        self.sequential_blocks
    }

    /// Processes one chunk of any length; returns any peaks completed
    /// within it. Chunks must be contiguous, but their size is free: the
    /// detector re-blocks internally to [`DETECT_BLOCK`] samples, so output
    /// is byte-identical no matter how the stream was chunked (trailing
    /// samples short of a block are held until the next chunk or
    /// [`finish`](Self::finish)).
    ///
    /// The cheap path: if a detection block's trailing-window average is
    /// below threshold and no peak is open, the block is skipped without
    /// per-sample work (the paper's integrated energy filter).
    ///
    /// This is the **fused** pass: instantaneous power is materialized once
    /// per block through the vectorized [`rfd_dsp::kernels::power_into`]
    /// kernel, and one [`rfd_dsp::kernels::exact_window_sums`] pass over it
    /// yields the block mean (noise floor), the trailing-window mean (energy
    /// gate) and the coarse hot scan. Those sums, and the windowed averages
    /// of a busy block, come out in vector order, which matches the
    /// sequential `f64` chains bit for bit only because the block's values
    /// are certified to add exactly in any order. A block that fails the
    /// certificate runs through the sequential pass instead, so the output
    /// is bit-identical to [`PeakDetector::push_chunk_unfused`] always.
    pub fn push_chunk(&mut self, chunk: &SampleChunk, out: &mut Vec<PeakBlock>) {
        self.push_samples(chunk.start, &chunk.samples, chunk.ingest, out);
    }

    /// [`push_chunk`](Self::push_chunk) for a borrowed slice: `samples[0]`
    /// is absolute sample `start`, `ingest` the stamp the resulting peaks
    /// inherit. The streaming session feeds sub-slices of whatever buffer
    /// it was handed through this, so no chunk is ever allocated for it.
    pub fn push_samples(
        &mut self,
        start: u64,
        samples: &[Complex32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        self.unfused_mode = false;
        self.reblock(start, samples, ingest, out);
    }

    /// Feeds `s` through the fixed-size re-blocker, running each completed
    /// [`DETECT_BLOCK`] through the active (fused or unfused) per-block
    /// pass. Full blocks aligned with the inbound slice are processed
    /// straight from it — the default 200-sample chunking pays no copy.
    fn reblock(
        &mut self,
        start: u64,
        s: &[Complex32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        debug_assert_eq!(
            start,
            self.cursor + self.pend.len() as u64,
            "chunks must be contiguous"
        );
        self.last_ingest = ingest;
        let mut off = 0usize;
        if !self.pend.is_empty() {
            let need = DETECT_BLOCK - self.pend.len();
            let take = need.min(s.len());
            self.pend.extend_from_slice(&s[..take]);
            off = take;
            if self.pend.len() == DETECT_BLOCK {
                let full = std::mem::take(&mut self.pend);
                self.run_block(&full, ingest, out);
                self.pend = full;
                self.pend.clear();
            }
        }
        while s.len() - off >= DETECT_BLOCK {
            self.run_block(&s[off..off + DETECT_BLOCK], ingest, out);
            off += DETECT_BLOCK;
        }
        self.pend.extend_from_slice(&s[off..]);
    }

    /// Online noise floor: the minimum block-average power over a sliding
    /// window of blocks. Updated before thresholding so the very first block
    /// already has a sane floor. Blocks are fixed-size, so the floor
    /// trajectory is independent of the inbound chunking. Only positive
    /// averages count: an all-zero block would pin the floor at zero.
    fn track_floor(&mut self, block_avg: f32) {
        if block_avg > 0.0 {
            self.floor = self.recent_avgs.push(block_avg);
        }
    }

    /// Runs one detection block through whichever per-block pass this
    /// stream uses.
    fn run_block(
        &mut self,
        samples: &[Complex32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        if self.unfused_mode || !self.push_block_certified(samples, ingest, out) {
            self.sequential_blocks += 1;
            self.push_block_unfused(samples, ingest, out);
        }
    }

    /// The fused pass over one full block. Returns false, having changed
    /// nothing, unless the block's powers, the averaging window's values and
    /// its carried running sum are certified to add exactly in any order
    /// (see [`rfd_dsp::kernels::ExactSums`]); every sum below then has the
    /// bits of the sequential pass's chains.
    fn push_block_certified(
        &mut self,
        samples: &[Complex32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) -> bool {
        let (n, w) = (samples.len(), self.cfg.avg_window);
        if n != DETECT_BLOCK || w > n || !self.avg.is_full() {
            return false;
        }
        let mut ext = std::mem::take(&mut self.ext);
        // One allocation, on the first block, that both parts fit.
        ext.clear();
        ext.reserve(n + w);
        rfd_dsp::kernels::power_into(samples, &mut ext);
        self.avg.extend_history(&mut ext);
        // Sums of each whole `avg_window` stretch of `ext`: at most
        // DETECT_BLOCK + 1 of them, since `avg_window` is 1 to a block.
        let mut sums = [0.0; DETECT_BLOCK + 1];
        let sums = &mut sums[..ext.len() / w];
        let certified = match rfd_dsp::kernels::exact_window_sums(&ext, w, sums) {
            Some(cert) if cert.admits(self.avg.sum()) => {
                let (power, ring) = ext.split_at(n);
                let exact_sum = |xs: &[f32]| xs.iter().map(|&p| p as f64).sum::<f64>();
                // Block windows come first, so the trailing window and the
                // ring are whole windows whenever the block divides into
                // windows.
                let whole = n / w;
                let (tail, ring_sum) = if n % w == 0 {
                    (sums[whole - 1], sums[whole])
                } else {
                    (exact_sum(&power[n - w..]), exact_sum(ring))
                };
                let block = BlockSums {
                    total: cert.total() - ring_sum,
                    tail,
                    ring: ring_sum,
                    max_stride: sums[..whole].iter().fold(0.0, |m: f64, &s| m.max(s)),
                };
                self.run_certified(samples, power, ring, block, ingest, out);
                true
            }
            _ => false,
        };
        self.ext = ext;
        certified
    }

    /// [`push_block_certified`](Self::push_block_certified) once certified:
    /// `power` is the block's powers, `ring` the window's values in eviction
    /// order.
    fn run_certified(
        &mut self,
        samples: &[Complex32],
        power: &[f32],
        ring: &[f32],
        sums: BlockSums,
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        let (n, w) = (samples.len(), self.cfg.avg_window);
        if !self.floor_fixed {
            self.track_floor((sums.total / n as f64) as f32);
        }
        let threshold = self.floor * self.threshold_gain;
        let wf = w as f64;
        // Energy filter: the trailing window's mean, then — since a burst
        // that ends early in the block raises no trailing window — the
        // coarse-stride guard. `(s / w) as f32` never decreases as `s`
        // grows, so the largest stride decides whether any clears the
        // threshold.
        let quiet = self.open.is_none()
            && (sums.tail / wf) as f32 <= threshold
            && (sums.max_stride / wf) as f32 <= threshold;
        // The running sum after any push is `residual` plus the exact sum of
        // the window's values: the carried sum need not equal that sum (an
        // earlier sequential block may have rounded), only be exact from
        // here on, which the certificate ensures.
        let residual = self.avg.sum() - sums.ring;
        if quiet {
            // Keep the averaging window warm for edge precision.
            self.avg.refill(&power[n - w..], residual + sums.tail);
        } else {
            self.scan_certified(samples, power, ring, ingest, out);
            self.avg.refill(power, residual + sums.tail);
        }
        self.stash_tail(samples);
        self.cursor += n as u64;
    }

    /// The per-sample scan of a busy certified block; `ring` is the
    /// window's values in eviction order.
    fn scan_certified(
        &mut self,
        samples: &[Complex32],
        power: &[f32],
        ring: &[f32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        let (n, w) = (samples.len(), self.cfg.avg_window);
        let threshold = self.floor * self.threshold_gain;
        let wf = w as f64;
        // `(sum / w) as f32 > threshold`, decided by a multiply outside the
        // tie band.
        let (lo, hi) = if threshold >= MIN_BANDED_THRESHOLD {
            let t = threshold as f64 * wf;
            (t * (1.0 - TIE_BAND), t * (1.0 + TIE_BAND))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        // The running sum after each push, as the sequential chain has it:
        // the sum before the block plus the pushes' differences so far.
        // Every partial sum is exact under the certificate, so the block
        // runs as four quarters side by side, each from its own start.
        let mut diff = [0.0f64; DETECT_BLOCK];
        let evicted = ring.iter().chain(&power[..n - w]);
        for ((d, &p), &e) in diff.iter_mut().zip(power).zip(evicted) {
            *d = p as f64 - e as f64;
        }
        const QUARTER: usize = DETECT_BLOCK / 4;
        let mut sum = [self.avg.sum(); 4];
        for j in 1..4 {
            let before: f64 = diff[(j - 1) * QUARTER..j * QUARTER].iter().sum();
            sum[j] = sum[j - 1] + before;
        }
        let mut hot_avg = [false; DETECT_BLOCK];
        for t in 0..QUARTER {
            for (j, s) in sum.iter_mut().enumerate() {
                let k = j * QUARTER + t;
                *s += diff[k];
                let (above, below) = (*s > hi, *s < lo);
                hot_avg[k] = if above | below {
                    above
                } else {
                    (*s / wf) as f32 > threshold
                };
            }
        }

        let block_start = self.cursor;
        let mut k = 0;
        while k < n {
            let Some(op) = &mut self.open else {
                let Some(at) = hot_avg[k..].iter().position(|&h| h) else {
                    break;
                };
                k += at;
                let idx = block_start + k as u64;
                let start = self.refine_start(power, k, idx, threshold);
                let buf_start = start.saturating_sub(self.cfg.margin as u64);
                let mut buf = Vec::with_capacity(512);
                self.copy_history(buf_start, block_start, samples, k, &mut buf);
                self.open = Some(OpenPeak {
                    start,
                    buf,
                    buf_start,
                    last_hot: idx,
                    hot_run: 0,
                    power_acc: power[k] as f64,
                    n_acc: 1,
                    ingest,
                });
                self.below = 0;
                k += 1;
                continue;
            };
            // The peak runs to the sample that makes the below-threshold
            // streak reach the hang, or on past the block.
            let (mut end, mut closes) = (n, false);
            for (j, &h) in hot_avg.iter().enumerate().skip(k) {
                if h {
                    self.below = 0;
                } else {
                    self.below += 1;
                    if self.below >= self.cfg.hang_samples {
                        (end, closes) = (j + 1, true);
                        break;
                    }
                }
            }
            // Capacity doubles from 512 as per-sample pushes grew it: a run
            // is at most one block, far less than the capacity.
            op.buf.extend_from_slice(&samples[k..end]);
            op.walk(
                &power[k..end],
                &hot_avg[k..end],
                block_start + k as u64,
                threshold,
            );
            if closes {
                self.close_peak(out);
            }
            k = end;
        }
    }

    /// The pre-fusion reference pass: walks each block's samples once per
    /// consumer (noise floor, energy gate, per-sample scan), recomputing
    /// `|z|²` at each use. Kept verbatim as the differential oracle for the
    /// fused [`PeakDetector::push_chunk`] — `tests/pipeline_properties.rs`
    /// drives both over adversarial chunkings and requires identical output
    /// — and as the sequential pass the fused one falls back to for a block
    /// it cannot certify. Re-blocks exactly like the fused path.
    pub fn push_chunk_unfused(&mut self, chunk: &SampleChunk, out: &mut Vec<PeakBlock>) {
        self.unfused_mode = true;
        self.reblock(chunk.start, &chunk.samples, chunk.ingest, out);
    }

    fn push_block_unfused(
        &mut self,
        samples: &[Complex32],
        ingest: Option<std::time::Instant>,
        out: &mut Vec<PeakBlock>,
    ) {
        let block_start = self.cursor;

        if !self.floor_fixed {
            self.track_floor(seq_mean_samples(samples));
        }
        let threshold = self.floor * db_to_power(self.cfg.threshold_db);

        let w = self.cfg.avg_window.min(samples.len());
        let tail_avg = if w == 0 {
            0.0
        } else {
            seq_mean_samples(&samples[samples.len() - w..])
        };

        if self.open.is_none() && tail_avg <= threshold {
            let mut hot = false;
            let stride = self.cfg.avg_window.max(1);
            let mut i = 0;
            while i + stride <= samples.len() {
                if seq_mean_samples(&samples[i..i + stride]) > threshold {
                    hot = true;
                    break;
                }
                i += stride;
            }
            if !hot {
                self.stash_tail(samples);
                self.cursor += samples.len() as u64;
                for &z in &samples[samples.len().saturating_sub(self.cfg.avg_window)..] {
                    self.avg.push(z);
                }
                return;
            }
        }

        for (k, &z) in samples.iter().enumerate() {
            let avg = self.avg.push(z);
            let idx = block_start + k as u64;
            match &mut self.open {
                None => {
                    if avg > threshold {
                        let start = self.refine_start_unfused(samples, k, idx, threshold);
                        let buf_start = start.saturating_sub(self.cfg.margin as u64);
                        let mut buf = Vec::with_capacity(512);
                        self.copy_history(buf_start, block_start, samples, k, &mut buf);
                        self.open = Some(OpenPeak {
                            start,
                            buf,
                            buf_start,
                            last_hot: idx,
                            hot_run: 0,
                            power_acc: z.norm_sqr() as f64,
                            n_acc: 1,
                            ingest,
                        });
                        self.below = 0;
                    }
                }
                Some(op) => {
                    op.buf.push(z);
                    let p = z.norm_sqr();
                    if p > op.inst_threshold(threshold) {
                        op.hot_run += 1;
                        if op.hot_run >= 3 {
                            op.last_hot = idx;
                        }
                    } else {
                        op.hot_run = 0;
                    }
                    if avg > threshold {
                        self.below = 0;
                        op.power_acc += p as f64;
                        op.n_acc += 1;
                    } else {
                        self.below += 1;
                        if self.below >= self.cfg.hang_samples {
                            self.close_peak(out);
                        }
                    }
                }
            }
        }
        self.stash_tail(samples);
        self.cursor += samples.len() as u64;
    }

    /// Flushes the trailing partial detection block and any open peak at
    /// end of stream.
    pub fn finish(&mut self, out: &mut Vec<PeakBlock>) {
        if !self.pend.is_empty() {
            let rest = std::mem::take(&mut self.pend);
            let ingest = self.last_ingest;
            self.run_block(&rest, ingest, out);
        }
        if self.open.is_some() {
            self.close_peak(out);
        }
    }

    fn refine_start(&self, power: &[f32], k: usize, idx: u64, threshold: f32) -> u64 {
        // Walk back while the instantaneous power stays above threshold —
        // a contiguous run bounded by one averaging window, so isolated
        // noise spikes before the packet cannot drag the start earlier.
        // In-chunk lookups come from the fused power array; the margin tail
        // (raw samples from previous chunks) recomputes `|z|²` on the spot.
        let lookback = self.cfg.avg_window;
        let mut best = idx;
        for back in 1..=lookback {
            let inst = if back <= k {
                power[k - back]
            } else {
                let t = back - k;
                if t <= self.tail.len() {
                    self.tail[self.tail.len() - t].norm_sqr()
                } else {
                    break;
                }
            };
            if inst > threshold {
                best = idx - back as u64;
            } else {
                break;
            }
        }
        best
    }

    fn refine_start_unfused(
        &self,
        samples: &[Complex32],
        k: usize,
        idx: u64,
        threshold: f32,
    ) -> u64 {
        let lookback = self.cfg.avg_window;
        let mut best = idx;
        for back in 1..=lookback {
            let inst = if back <= k {
                samples[k - back].norm_sqr()
            } else {
                let t = back - k;
                if t <= self.tail.len() {
                    self.tail[self.tail.len() - t].norm_sqr()
                } else {
                    break;
                }
            };
            if inst > threshold {
                best = idx - back as u64;
            } else {
                break;
            }
        }
        best
    }

    /// Copies `[buf_start, chunk_start + k]` into `buf` using the margin
    /// tail and the current chunk: zeros before recorded history, then the
    /// tail ring (the last `tail.len()` samples before `chunk_start`), then
    /// the chunk.
    fn copy_history(
        &self,
        buf_start: u64,
        chunk_start: u64,
        samples: &[Complex32],
        k: usize,
        buf: &mut Vec<Complex32>,
    ) {
        let back = chunk_start.saturating_sub(buf_start) as usize;
        let from_tail = back.min(self.tail.len());
        buf.resize(back - from_tail, Complex32::ZERO);
        buf.extend_from_slice(&self.tail[self.tail.len() - from_tail..]);
        let first = buf_start.saturating_sub(chunk_start) as usize;
        buf.extend_from_slice(&samples[first..=k]);
    }

    fn stash_tail(&mut self, samples: &[Complex32]) {
        let keep = self.cfg.margin + self.cfg.avg_window;
        if samples.len() >= keep {
            self.tail.clear();
            self.tail
                .extend_from_slice(&samples[samples.len() - keep..]);
        } else {
            let overflow = (self.tail.len() + samples.len()).saturating_sub(keep);
            self.tail.drain(..overflow);
            self.tail.extend_from_slice(samples);
        }
    }

    fn close_peak(&mut self, out: &mut Vec<PeakBlock>) {
        let op = self.open.take().expect("close_peak with open peak");
        self.below = 0;
        // The peak ends at the last sample whose instantaneous power cleared
        // the threshold.
        let end = (op.last_hot + 1).max(op.start + 1);
        let len = end.saturating_sub(op.start);
        if (len as usize) < self.cfg.min_peak {
            return;
        }
        let from = (op.start - op.buf_start) as usize;
        let to = ((end - op.buf_start) as usize).min(op.buf.len());
        let mean_power = if to > from {
            (op.buf[from..to]
                .iter()
                .map(|z| z.norm_sqr() as f64)
                .sum::<f64>()
                / (to - from) as f64) as f32
        } else {
            0.0
        };
        let peak = Peak {
            id: self.next_id,
            start: op.start,
            end,
            mean_power,
            noise_floor: self.floor,
        };
        self.next_id += 1;
        out.push(PeakBlock {
            peak,
            samples: Arc::new(op.buf),
            sample_start: op.buf_start,
            sample_rate: self.sample_rate,
            ingest: op.ingest,
        });
    }
}

/// Convenience: run the detector over a whole trace.
pub fn detect_peaks(
    samples: &[Complex32],
    sample_rate: f64,
    cfg: PeakDetectorConfig,
) -> Vec<PeakBlock> {
    let chunks = SampleChunk::chunk_trace(samples, sample_rate, crate::CHUNK_SAMPLES);
    let mut det = PeakDetector::new(cfg, sample_rate);
    let mut out = Vec::new();
    for c in &chunks {
        det.push_chunk(c, &mut out);
    }
    det.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::rng::GaussianGen;

    fn cfg_with_floor(floor: f32) -> PeakDetectorConfig {
        PeakDetectorConfig {
            noise_floor: Some(floor),
            ..Default::default()
        }
    }

    /// Builds noise with bursts at given (start, len) positions.
    fn bursty(
        n: usize,
        bursts: &[(usize, usize)],
        noise: f32,
        amp: f32,
        seed: u64,
    ) -> Vec<Complex32> {
        let mut sig = vec![Complex32::ZERO; n];
        for &(s, l) in bursts {
            for (i, z) in sig.iter_mut().enumerate().take((s + l).min(n)).skip(s) {
                *z = Complex32::cis(i as f32 * 0.7).scale(amp);
            }
        }
        GaussianGen::new(seed).add_awgn(&mut sig, noise);
        sig
    }

    #[test]
    fn finds_single_burst_with_accurate_edges() {
        let sig = bursty(8000, &[(2000, 1500)], 1e-4, 1.0, 1);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 1);
        let p = peaks[0].peak;
        assert!((p.start as i64 - 2000).abs() <= 24, "start {}", p.start);
        assert!((p.end as i64 - 3500).abs() <= 48, "end {}", p.end);
        assert!((p.mean_power - 1.0).abs() < 0.1);
        assert!(p.snr_db() > 30.0);
    }

    #[test]
    fn finds_multiple_bursts() {
        let sig = bursty(
            40_000,
            &[(2000, 800), (10_000, 1200), (30_000, 500)],
            1e-4,
            0.5,
            2,
        );
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 3);
        assert!(peaks.windows(2).all(|w| w[0].peak.end <= w[1].peak.start));
    }

    #[test]
    fn peaks_do_not_overlap_and_are_ordered() {
        let sig = bursty(
            60_000,
            &[
                (100, 900),
                (1500, 300),
                (9000, 2000),
                (20_000, 80),
                (50_000, 4000),
            ],
            2e-4,
            0.8,
            3,
        );
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(2e-4));
        for w in peaks.windows(2) {
            assert!(w[0].peak.end <= w[1].peak.start);
            assert!(w[0].peak.id < w[1].peak.id);
        }
    }

    #[test]
    fn pure_noise_yields_no_peaks() {
        let sig = bursty(100_000, &[], 1e-3, 0.0, 4);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-3));
        assert!(peaks.is_empty(), "{} false peaks", peaks.len());
    }

    #[test]
    fn short_fade_does_not_split_packet() {
        // A 1500-sample burst with a 10-sample fade in the middle.
        let mut sig = bursty(10_000, &[(3000, 1500)], 1e-4, 1.0, 5);
        for z in sig.iter_mut().skip(3700).take(10) {
            *z = Complex32::ZERO;
        }
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 1, "fade split the packet");
    }

    #[test]
    fn long_gap_does_split() {
        let sig = bursty(20_000, &[(3000, 800), (4200, 800)], 1e-4, 1.0, 6);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 2);
        // Gap between peaks ~400 samples = 50 us.
        let gap = peaks[1].peak.start - peaks[0].peak.end;
        assert!((350..=450).contains(&gap), "gap {gap}");
    }

    #[test]
    fn glitches_below_min_peak_are_dropped() {
        let sig = bursty(10_000, &[(5000, 8)], 1e-4, 1.0, 7);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert!(peaks.is_empty(), "8-sample glitch must be dropped");
        let sig = bursty(10_000, &[(5000, 100)], 1e-4, 1.0, 7);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert!(peaks.is_empty(), "100-sample glitch must be dropped");
        let sig = bursty(10_000, &[(5000, 400)], 1e-4, 1.0, 7);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 1, "400-sample burst must survive");
    }

    #[test]
    fn weak_burst_below_threshold_is_missed() {
        // -4 dB SNR: total in-burst power is floor + 1.5 dB, well below the
        // 4 dB threshold -> missed (this is the SNR knee of the paper's
        // Figs. 6-8).
        let floor = 1e-2f32;
        let amp = (floor * rfd_dsp::energy::db_to_power(-4.0)).sqrt();
        let sig = bursty(20_000, &[(8000, 1500)], floor, amp, 8);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(floor));
        assert!(peaks.is_empty());
    }

    #[test]
    fn strong_burst_above_threshold_is_found() {
        let floor = 1e-2f32;
        let amp = (floor * rfd_dsp::energy::db_to_power(9.0)).sqrt();
        let sig = bursty(20_000, &[(8000, 1500)], floor, amp, 9);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(floor));
        assert_eq!(peaks.len(), 1);
        assert!((peaks[0].peak.snr_db() - 9.0).abs() < 2.0);
    }

    #[test]
    fn peak_block_contains_margin_and_samples() {
        let sig = bursty(10_000, &[(4000, 1000)], 1e-4, 1.0, 10);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        let pb = &peaks[0];
        assert!(pb.sample_start <= pb.peak.start);
        assert!(pb.samples.len() as u64 >= pb.peak.len());
        // The copied samples must equal the originals.
        let a = (pb.peak.start - pb.sample_start) as usize;
        for i in 0..20 {
            assert_eq!(pb.samples[a + i], sig[pb.peak.start as usize + i]);
        }
    }

    #[test]
    fn online_noise_floor_converges() {
        let sig = bursty(200_000, &[(100_000, 2000)], 1e-3, 1.0, 11);
        let cfg = PeakDetectorConfig {
            noise_floor: None,
            ..Default::default()
        };
        let chunks = SampleChunk::chunk_trace(&sig, 8e6, crate::CHUNK_SAMPLES);
        let mut det = PeakDetector::new(cfg, 8e6);
        let mut out = Vec::new();
        for c in &chunks {
            det.push_chunk(c, &mut out);
        }
        det.finish(&mut out);
        let floor = det.floor;
        assert!(
            (rfd_dsp::energy::power_to_db(floor) - (-30.0)).abs() < 3.0,
            "floor {floor}"
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sliding_min_equals_the_naive_fold_after_every_push() {
        // The fold this replaced: min over a VecDeque of the last 800 values.
        let naive = |recent: &std::collections::VecDeque<f32>| {
            recent.iter().fold(f32::INFINITY, |m, &v| m.min(v))
        };
        for seed in [1u64, 2, 3] {
            let mut rng = rfd_dsp::rng::Xoshiro256::new(seed);
            let mut sliding = SlidingMin::new(FLOOR_WINDOW_BLOCKS);
            let mut recent = std::collections::VecDeque::new();
            let mut pushes = 0usize;
            while pushes < 10 * FLOOR_WINDOW_BLOCKS {
                // Runs of equal values (a steady noise floor), some longer
                // than the window, drawn from a few levels so that minima
                // repeat, expire and return; plus a slow upward drift so
                // the minimum is often the oldest value in the window.
                let level = 1e-4 * (1 + (rng.next_f32() * 6.0) as u32) as f32
                    + 1e-7 * (pushes / 500) as f32;
                let run = match (rng.next_f32() * 8.0) as u32 {
                    0..=2 => 1,
                    3..=4 => 1 + (rng.next_f32() * 40.0) as usize,
                    5..=6 => 1 + (rng.next_f32() * 400.0) as usize,
                    _ => FLOOR_WINDOW_BLOCKS + 7,
                };
                for _ in 0..run {
                    if recent.len() >= FLOOR_WINDOW_BLOCKS {
                        recent.pop_front();
                    }
                    recent.push_back(level);
                    let got = sliding.push(level);
                    assert_eq!(
                        got.to_bits(),
                        naive(&recent).to_bits(),
                        "seed {seed}, push {pushes}"
                    );
                    pushes += 1;
                }
            }
            assert!(sliding.candidates.len() <= FLOOR_WINDOW_BLOCKS);
        }
    }

    #[test]
    fn streaming_flush_emits_trailing_peak() {
        // Burst running to the very end of the trace.
        let sig = bursty(8000, &[(6000, 2000)], 1e-4, 1.0, 12);
        let peaks = detect_peaks(&sig, 8e6, cfg_with_floor(1e-4));
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].peak.end, 8000);
    }
}
