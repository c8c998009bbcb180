//! The three comparable monitoring architectures (paper Figures 1 and 2,
//! evaluated in Figure 9):
//!
//! * **Naïve** — every demodulator runs over every sample: a continuous
//!   802.11 receiver plus one Bluetooth receiver per covered channel.
//! * **Naïve + energy detection** — an energy gate first discards quiet
//!   regions, then *all* demodulators process every busy region.
//! * **RFDump** — the energy-integrated peak detector feeds protocol-
//!   specific fast detectors (timing and/or phase/frequency); a dispatcher
//!   forwards only classified peaks to the per-protocol analyzers.
//!
//! All three run behind one incremental [`Session`] — `open`, `push`
//! samples as they arrive, `finish` — and [`run_architecture`] is that loop
//! over a slice. Each push returns the records it made final, in final
//! order, and what a session keeps between pushes is bounded, so a file, a
//! socket and a fleet of sockets are the same code and memory is constant
//! in stream length. RFDump's records are final as their dispatches merge;
//! the naïve baselines' wait behind a watermark (continuous receivers) or
//! for their peak to close (energy gate). Every architecture reports
//! per-stage CPU time through the same [`RunStats`] rows, and each can run
//! with or without the demodulation stage (the paper's "no demodulation"
//! curves isolate detection cost).

use crate::analyze::{Analyzer, BtAnalyzer, MicrowaveAnalyzer, WifiAnalyzer, ZigbeeAnalyzer};
use crate::chunk::PeakBlock;
use crate::detect::bt_freq::BtFreqDetector;
use crate::detect::zigbee::{ZigbeePhaseDetector, ZigbeeTimingDetector};
use crate::detect::{
    BtPhaseDetector, BtTimingDetector, Classification, FastDetector, MicrowaveTimingDetector,
    WifiDifsDetector, WifiPhaseDetector, WifiSifsDetector,
};
use crate::dispatch::{AnalysisPool, Dispatch, DispatchConfig, DispatchStats, Dispatcher};
use crate::eval::ClassifiedPeak;
use crate::governor::{GovernorConfig, GovernorReport, LoadGovernor};
use crate::peak::{PeakDetector, PeakDetectorConfig};
use crate::records::{PacketInfo, PacketRecord};
use rfd_dsp::Complex32;
use rfd_ether::Band;
use rfd_fault::{Action, FaultPlan, FaultStats};
use rfd_flowgraph::{BlockStats, RunStats};
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_phy::bluetooth::{covered_channels, BtRxBank, BtRxResult};
use rfd_phy::wifi::demod::WifiRxResult;
use rfd_phy::Protocol;
use rfd_telemetry::{Counter, Histogram, Registry};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which fast detectors the RFDump detection stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorSet {
    /// Timing detectors only (peak metadata).
    Timing,
    /// Phase detectors only (peak samples).
    Phase,
    /// Both timing and phase.
    TimingAndPhase,
    /// Timing + phase + FFT frequency detection.
    All,
}

/// Architecture choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// All demodulators over all samples (Figure 1).
    Naive,
    /// Energy gate, then all demodulators over busy regions.
    NaiveEnergy,
    /// The RFDump architecture (Figure 2).
    RfDump(DetectorSet),
}

/// Full architecture configuration.
#[derive(Debug, Clone)]
pub struct ArchConfig {
    /// Which architecture.
    pub kind: ArchKind,
    /// Run the analysis/demodulation stage (false isolates detection cost).
    pub demodulate: bool,
    /// Monitored band.
    pub band: Band,
    /// Piconets the Bluetooth receivers acquire.
    pub piconets: Vec<PiconetId>,
    /// Fixed noise floor for the energy/peak stage (None = online).
    pub noise_floor: Option<f32>,
    /// Include the ZigBee detectors/analyzer.
    pub zigbee: bool,
    /// Include the microwave detector/analyzer.
    pub microwave: bool,
    /// Collect unified telemetry (metrics registry + span trace) during the
    /// run. Off measures the pipeline's bare cost; the delta between the
    /// two settings is the observability overhead.
    pub telemetry: bool,
    /// Worker threads for the RFDump analysis stage. `0` = the pool's
    /// tasks run on the pushing thread; `N >= 1` runs them on a pool of
    /// `N` threads sharing one queue. Either way results pass through
    /// the same deterministic merge, so the record output is byte-identical
    /// at any count. Ignored by the naïve architectures.
    pub workers: usize,
    /// Chaos fault plan threaded through the pipeline's injection sites.
    /// The constructors default it to [`FaultPlan::ambient`] (the
    /// `RFD_FAULTS` environment variable), so a whole test suite can run
    /// under chaos without touching any call site.
    pub faults: Option<Arc<FaultPlan>>,
    /// Graceful-degradation governor (RFDump only). `None` — the default —
    /// never sheds, preserving the byte-identical determinism contract;
    /// `Some` lets the `LoadGovernor` shed demodulation first and weak
    /// detectors second, at a pinned level or when the latency budget is
    /// violated.
    pub governor: Option<GovernorConfig>,
    /// Ingest chunk size, samples (default [`crate::CHUNK_SAMPLES`]): the
    /// step a session walks each push in, one ingest stamp per step.
    /// Nothing resizes it at run time. The peak detector re-blocks
    /// internally at a fixed [`crate::peak::DETECT_BLOCK`], so the record
    /// stream is byte-identical at any chunk size. The one exception is
    /// the naïve baseline, whose continuous receivers are fed pieces cut
    /// from this size, and whose 802.11 records depend on the cut (see
    /// `NaiveStage::Continuous`).
    pub chunk_samples: usize,
    /// Crash-safe durability (RFDump only): journal emitted records and
    /// commit watermarks under a directory, and optionally resume from them.
    /// `None` — the default — journals nothing. See [`crate::durability`].
    pub durability: Option<crate::durability::DurabilityConfig>,
}

/// The default analysis worker count: the `RFD_WORKERS` environment
/// variable when set to a non-negative integer, else `0` (analysis inline).
/// Letting the environment pick means an entire test suite can be rerun
/// against the pool without touching any call site.
pub fn default_workers() -> usize {
    std::env::var("RFD_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

impl ArchConfig {
    /// RFDump with both detector families on the paper's band.
    pub fn rfdump(piconets: Vec<PiconetId>) -> Self {
        Self {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: true,
            band: Band::usrp_8mhz(),
            piconets,
            noise_floor: None,
            zigbee: false,
            microwave: true,
            telemetry: true,
            workers: default_workers(),
            faults: FaultPlan::ambient(),
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        }
    }

    /// The naïve baseline on the paper's band.
    pub fn naive(piconets: Vec<PiconetId>) -> Self {
        Self {
            kind: ArchKind::Naive,
            demodulate: true,
            band: Band::usrp_8mhz(),
            piconets,
            noise_floor: None,
            zigbee: false,
            microwave: false,
            telemetry: true,
            workers: default_workers(),
            faults: FaultPlan::ambient(),
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        }
    }
}

/// Per-protocol record totals: `(records, of which demodulated)`.
pub(crate) type RecordCounts = std::collections::BTreeMap<Protocol, (u64, u64)>;

/// Everything an architecture run produces.
#[derive(Debug, Default)]
pub struct ArchOutput {
    /// Packet records (decoded or detected).
    pub records: Vec<PacketRecord>,
    /// Classified peaks (detection-stage output; for naïve architectures
    /// these are synthesized from decoded packets).
    pub classified: Vec<ClassifiedPeak>,
    /// How many records the run released, per protocol. Kept by the session
    /// as it goes, so the stats document can report it for a `serve`
    /// session that retained no record.
    pub record_counts: RecordCounts,
    /// Dispatcher statistics (RFDump only).
    pub dispatch_stats: Option<DispatchStats>,
    /// Per-block CPU accounting.
    pub stats: RunStats,
    /// Trace duration in seconds.
    pub trace_seconds: f64,
    /// Sample rate of the processed trace, Hz.
    pub sample_rate: f64,
    /// The telemetry registry, when [`ArchConfig::telemetry`] was set:
    /// counters, gauges, histograms and the span trace from the run.
    pub registry: Option<Arc<Registry>>,
    /// Analysis-pool statistics (RFDump with [`ArchConfig::workers`] ≥ 1
    /// only): per-worker executed counts, busy and stall time.
    pub pool_stats: Option<rfd_flowgraph::pool::PoolStats>,
    /// Fault-injection counters, when [`ArchConfig::faults`] was set.
    pub faults: Option<FaultStats>,
    /// Degradation report, when [`ArchConfig::governor`] was set.
    pub governor: Option<GovernorReport>,
    /// Bounded-latency mode report, when a latency budget was set.
    pub latency: Option<crate::governor::LatencyReport>,
    /// Analyzer panics caught by the supervisor (RFDump only).
    pub panics: u64,
    /// Analyzers quarantined after repeated panics, by name (RFDump only).
    pub quarantined: Vec<String>,
    /// Durability/recovery report, when [`ArchConfig::durability`] was set.
    pub recovery: Option<crate::durability::RecoveryReport>,
}

impl ArchOutput {
    /// The paper's headline efficiency metric.
    pub fn cpu_over_realtime(&self) -> f64 {
        self.stats.total_cpu().as_secs_f64() / self.trace_seconds
    }
}

/// Runs an architecture over a whole trace: open a [`Session`], push
/// everything, finish. What tests, examples, the paper-figure harnesses and
/// the benchmark call.
pub fn run_architecture(cfg: &ArchConfig, samples: &[Complex32], fs: f64) -> ArchOutput {
    run_architecture_with_registry(cfg, samples, fs, None)
}

/// Like [`run_architecture`], but accumulating telemetry into `shared`
/// (see [`Session::open`]).
pub fn run_architecture_with_registry(
    cfg: &ArchConfig,
    samples: &[Complex32],
    fs: f64,
    shared: Option<Arc<Registry>>,
) -> ArchOutput {
    let mut session = Session::open(cfg, fs, Some(samples.len() as u64), shared);
    let mut all = Released::default();
    for piece in samples.chunks(PUSH_SAMPLES) {
        all.append(session.push(piece));
    }
    let (last, mut out) = session.finish();
    all.append(last);
    out.records = all.records;
    out.classified = all.classified;
    out
}

/// What one [`Session::push`] (or the closing [`Session::finish`]) made
/// final. A session keeps neither: what it returns here it has forgotten.
#[derive(Debug, Default)]
pub struct Released {
    /// Records in their final order: each batch continues the one before,
    /// so the batches concatenated are the run's record stream.
    pub records: Vec<PacketRecord>,
    /// Peaks whose classification became final (detection-stage output).
    pub classified: Vec<ClassifiedPeak>,
}

impl Released {
    fn append(&mut self, mut more: Released) {
        self.records.append(&mut more.records);
        self.classified.append(&mut more.classified);
    }
}

/// Samples [`run_architecture`] (and `rfdump -r`) hand a session at a time:
/// 64 chunks, the cadence at which a journaled run has always committed.
pub const PUSH_SAMPLES: usize = 64 * crate::CHUNK_SAMPLES;

/// One architecture run, driven incrementally: samples in through
/// [`push`](Self::push) as they arrive, records out as soon as they are
/// final, everything else at [`finish`](Self::finish). Every front end is
/// this loop — a trace file, a socket, a fleet of sockets, and
/// [`run_architecture`] over a slice.
///
/// Under every architecture nothing waits for the last sample and memory
/// does not grow with the stream: see the ordering argument at
/// `RfDump::store`, and `Naive` for the baselines' watermark.
pub struct Session {
    cfg: ArchConfig,
    registry: Option<Arc<Registry>>,
    counts: RecordCounts,
    kind: SessionKind,
}

enum SessionKind {
    RfDump(Box<RfDump>),
    Naive(Box<Naive>),
}

impl Session {
    /// Opens a run of `cfg` over a stream at `fs`. `declared_len` is the
    /// stream's length in samples when the source states one up front (a
    /// trace file's header); it goes into the journal fingerprint, and a
    /// stream that cannot say (a socket) fingerprints as open-ended.
    /// Telemetry accumulates into `shared` when provided (and
    /// [`ArchConfig::telemetry`] is on) instead of a fresh per-run
    /// registry: this is how `rfdump serve --metrics-addr` exposes one
    /// long-lived registry across every capture session.
    pub fn open(
        cfg: &ArchConfig,
        fs: f64,
        declared_len: Option<u64>,
        shared: Option<Arc<Registry>>,
    ) -> Self {
        let registry = cfg
            .telemetry
            .then(|| shared.unwrap_or_else(|| Arc::new(Registry::new())));
        if let Some(reg) = &registry {
            // Which DSP kernel backend this run executes with (scrapes as
            // `rfd_kernel_backend`; values match `kernels::Backend as u8`).
            reg.gauge("kernel.backend")
                .set(i64::from(rfd_dsp::kernels::active() as u8));
        }
        let kind = match cfg.kind {
            ArchKind::RfDump(set) => SessionKind::RfDump(Box::new(RfDump::open(
                cfg,
                set,
                fs,
                declared_len,
                &registry,
            ))),
            ArchKind::Naive | ArchKind::NaiveEnergy => {
                SessionKind::Naive(Box::new(Naive::open(cfg, fs)))
            }
        };
        Self {
            cfg: cfg.clone(),
            registry,
            counts: RecordCounts::new(),
            kind,
        }
    }

    /// What a `--resume` recovered from the journal, known as soon as the
    /// session is open (`None` when journaling is off).
    pub fn recovery(&self) -> Option<crate::durability::RecoveryReport> {
        match &self.kind {
            SessionKind::RfDump(r) => r.journal.as_ref().map(|j| j.report()),
            SessionKind::Naive(_) => None,
        }
    }

    /// Feeds the next contiguous samples and returns what they made final.
    /// On a resumed run the first push also releases the recovered records.
    pub fn push(&mut self, samples: &[Complex32]) -> Released {
        if let Some(reg) = &self.registry {
            reg.counter("trace.samples").add(samples.len() as u64);
        }
        let mut out = Released::default();
        match &mut self.kind {
            SessionKind::RfDump(r) => r.push(samples, &mut out),
            SessionKind::Naive(n) => n.advance(samples, false, &mut out),
        }
        tally(&mut self.counts, &out.records);
        out
    }

    /// Ends the stream: flushes every stage and returns the last records
    /// together with the run's accounting. `records` and `classified` of
    /// the returned [`ArchOutput`] are empty — they went out through
    /// [`Released`].
    pub fn finish(mut self) -> (Released, ArchOutput) {
        let mut last = Released::default();
        let mut out = match self.kind {
            SessionKind::RfDump(r) => r.finish(&mut last),
            SessionKind::Naive(n) => n.finish(&mut last, &self.registry),
        };
        tally(&mut self.counts, &last.records);
        out.record_counts = self.counts;
        out.registry = self.registry;
        out.faults = self.cfg.faults.as_ref().map(|p| p.snapshot());
        (last, out)
    }
}

fn tally(counts: &mut RecordCounts, records: &[PacketRecord]) {
    for r in records {
        let (total, decoded) = counts.entry(r.protocol).or_default();
        *total += 1;
        if !matches!(r.info, PacketInfo::DetectedOnly { .. }) {
            *decoded += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The naïve baselines: every demodulator over every sample, or every busy one
// ---------------------------------------------------------------------------

/// Runs `f`, charging its CPU time to `row`.
fn timed<T>(row: &mut BlockStats, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    row.cpu += t0.elapsed();
    out
}

/// A decoded 802.11 frame as a record.
fn wifi_record(rx: &WifiRxResult, (start_us, end_us, snr_db): (f64, f64, f32)) -> PacketRecord {
    let frame = rx.frame.as_ref();
    PacketRecord {
        protocol: Protocol::Wifi,
        start_us,
        end_us,
        snr_db,
        channel: None,
        info: PacketInfo::Wifi {
            rate: rx.header.rate,
            kind: frame.map(|f| f.kind),
            src: frame.and_then(|f| f.addr2),
            dst: frame.map(|f| f.addr1),
            seq: frame.map(|f| f.seq),
            psdu_len: rx.psdu.len(),
            fcs_ok: rx.fcs_ok,
        },
    }
}

/// A Bluetooth receiver result as a record.
fn bt_record(rx: &BtRxResult, (start_us, end_us, snr_db): (f64, f64, f32)) -> PacketRecord {
    let parsed = rx.parsed.as_ref();
    PacketRecord {
        protocol: Protocol::Bluetooth,
        start_us,
        end_us,
        snr_db,
        channel: Some(rx.channel),
        info: PacketInfo::Bluetooth {
            lap: rx.piconet.lap,
            ptype: parsed.map(|p| p.ptype),
            payload_len: parsed.map_or(0, |p| p.payload.len()),
            crc_ok: parsed.is_some_and(|p| p.crc_ok),
        },
    }
}

/// A naïve baseline as an incremental state machine. Records wait in
/// `held` until no receiver can still emit one that starts earlier, then
/// leave by start time, 802.11 before Bluetooth channels in ascending order,
/// then in emission order: the order a stable sort of the whole run's
/// records by start time gives.
struct Naive {
    cfg: ArchConfig,
    fs: f64,
    /// Samples pushed so far.
    pos: u64,
    /// Time spent inside `advance`.
    wall: Duration,
    /// The 802.11 receiver's row then one per Bluetooth channel, or the
    /// energy gate's then the demodulators'.
    rows: Vec<BlockStats>,
    held: Vec<PacketRecord>,
    stage: NaiveStage,
}

enum NaiveStage {
    /// The naïve architecture (Figure 1): a continuous 802.11 receiver and
    /// a continuous Bluetooth receiver per covered channel. `WifiRx`
    /// resamples each call on its own, so its records depend on where the
    /// stream is cut: every receiver is fed whole chunks batched to at
    /// least 8192 samples from sample 0, the partition the naïve goldens
    /// pin, and `unfed` holds the samples of the piece still filling.
    Continuous {
        wifi: rfd_phy::wifi::WifiRx,
        bank: BtRxBank,
        unfed: Vec<Complex32>,
    },
    /// Naïve + energy detection: the peak detector gates the stream, then
    /// every demodulator runs over each peak as it closes.
    Gated(PeakDetector),
}

impl Naive {
    fn open(cfg: &ArchConfig, fs: f64) -> Self {
        let (rows, stage) = if cfg.kind == ArchKind::NaiveEnergy {
            let config = PeakDetectorConfig {
                noise_floor: cfg.noise_floor,
                ..Default::default()
            };
            let rows = vec!["detect:peak/energy".into(), "demod:all-on-busy".into()];
            (rows, NaiveStage::Gated(PeakDetector::new(config, fs)))
        } else {
            let bank = BtRxBank::for_band(fs, cfg.band.center_hz, cfg.piconets.clone());
            let mut rows = vec!["demod:wifi-continuous".to_string()];
            for (ch, _) in covered_channels(fs, cfg.band.center_hz) {
                rows.push(format!("demod:bt-ch{ch}-continuous"));
            }
            let (wifi, unfed) = (rfd_phy::wifi::WifiRx::new(fs), Vec::new());
            (rows, NaiveStage::Continuous { wifi, bank, unfed })
        };
        Self {
            cfg: cfg.clone(),
            fs,
            pos: 0,
            wall: Duration::ZERO,
            rows: rows
                .into_iter()
                .map(|name| BlockStats {
                    name,
                    ..Default::default()
                })
                .collect(),
            held: Vec::new(),
            stage,
        }
    }

    /// Feeds `samples` to the receivers and releases what that made final;
    /// with `last`, flushes every receiver and releases everything.
    fn advance(&mut self, samples: &[Complex32], last: bool, out: &mut Released) {
        let t0 = Instant::now();
        let (cfg, fs, rows, held) = (&self.cfg, self.fs, &mut self.rows, &mut self.held);
        let c = cfg.chunk_samples.max(1);
        let pos = self.pos;
        self.pos += samples.len() as u64;
        let watermark = match &mut self.stage {
            NaiveStage::Continuous { wifi, bank, unfed } => {
                unfed.extend_from_slice(samples);
                let piece = 8192usize.div_ceil(c) * c;
                let whole = unfed.len() / piece * piece;
                let fed = if last { unfed.len() } else { whole };
                for p in unfed[..fed].chunks(piece) {
                    timed(&mut rows[0], || wifi.process(p));
                    for (rx, row) in bank.channels.iter_mut().zip(&mut rows[1..]) {
                        timed(row, || p.chunks(c).for_each(|q| rx.process(q)));
                    }
                }
                unfed.drain(..fed);
                rows.iter_mut()
                    .for_each(|r| r.items_in += fed.div_ceil(c) as u64);
                let results = wifi.take_results();
                let mut watermark = wifi.horizon() as f64 / rfd_phy::wifi::CHIP_RATE * 1e6;
                rows[0].items_out += results.len() as u64;
                held.extend(results.iter().map(|r| {
                    let start_us = r.start_chip as f64 / rfd_phy::wifi::CHIP_RATE * 1e6;
                    let end_us = start_us + 192.0 + r.header.length_us as f64;
                    wifi_record(r, (start_us, end_us, f32::NAN))
                }));
                for (rx, row) in bank.channels.iter_mut().zip(&mut rows[1..]) {
                    let results = timed(row, || if last { rx.finish() } else { rx.take_results() });
                    watermark = watermark.min(rx.horizon() as f64 / fs * 1e6);
                    row.items_out += results.len() as u64;
                    held.extend(results.iter().map(|r| {
                        let start_us = r.start_sample as f64 / fs * 1e6;
                        let bits = r.parsed.as_ref().map(|p| p.payload.len() as f64 * 8.0);
                        let end_us = start_us + bits.map_or(366.0, |bits| 126.0 + bits);
                        bt_record(r, (start_us, end_us, f32::NAN))
                    }));
                }
                watermark
            }
            NaiveStage::Gated(det) => {
                let mut peaks = Vec::new();
                timed(&mut rows[0], || {
                    det.push_samples(pos, samples, None, &mut peaks);
                    if last {
                        det.finish(&mut peaks);
                    }
                });
                rows[0].items_in = self.pos.div_ceil(c as u64);
                rows[0].items_out += peaks.len() as u64;
                rows[1].items_in += peaks.len() as u64;
                let before = held.len();
                timed(&mut rows[1], || {
                    for pk in peaks.iter().filter(|_| cfg.demodulate) {
                        // Every record of a peak spans the peak.
                        let span = (pk.start_us(), pk.end_us(), pk.peak.snr_db());
                        if let Some(rx) = rfd_phy::wifi::demodulate(&pk.samples, fs) {
                            held.push(wifi_record(&rx, span));
                        }
                        let piconets = cfg.piconets.clone();
                        let mut bank = BtRxBank::for_band(fs, cfg.band.center_hz, piconets);
                        for rx in &mut bank.channels {
                            rx.process(&pk.samples);
                            held.extend(rx.finish().iter().map(|r| bt_record(r, span)));
                        }
                    }
                });
                rows[1].items_out += (held.len() - before) as u64;
                // Peaks close in start order: each one's records are final.
                f64::INFINITY
            }
        };
        held.sort_by(|a, b| {
            // 802.11's `None` sorts before every Bluetooth channel.
            let by_channel = a.channel.cmp(&b.channel);
            a.start_us.total_cmp(&b.start_us).then(by_channel)
        });
        let n = held.partition_point(|r| last || r.start_us < watermark);
        out.records.extend(held.drain(..n));
        out.classified = classified_from_records(&out.records, fs);
        self.wall += t0.elapsed();
    }

    fn finish(mut self, out: &mut Released, registry: &Option<Arc<Registry>>) -> ArchOutput {
        self.advance(&[], true, out);
        let stats = RunStats {
            blocks: self.rows,
            wall: self.wall,
        };
        if let Some(reg) = registry {
            if let NaiveStage::Gated(det) = &self.stage {
                reg.counter("peaks.detected").add(stats.blocks[0].items_out);
                reg.counter("peaks.sequential_blocks")
                    .add(det.sequential_blocks());
            }
            stats.publish(reg);
        }
        ArchOutput {
            stats,
            trace_seconds: self.pos as f64 / self.fs,
            sample_rate: self.fs,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------------
// RFDump: the streaming session
// ---------------------------------------------------------------------------

/// The session's stages, in pipeline order, under the row names `-s`,
/// stats-json and the `flowgraph.block.<name>.*` counters have always
/// read. The rows of the last two carry only their own bookkeeping:
/// detector and analyzer CPU is carved out of them into one pseudo-row
/// each (see `RfDump::finish`).
const STAGE_NAMES: [&str; 4] = [
    "source:trace",
    "detect:peak/energy",
    "detect:fast-detectors+dispatch",
    "analyze:pool",
];
const SOURCE: usize = 0;
const PEAK: usize = 1;
const DETECT: usize = 2;
const ANALYZE: usize = 3;

/// One stage's accounting: CPU is timed once per push, not per chunk.
#[derive(Default)]
struct Stage {
    cpu: Duration,
    items_in: u64,
    items_out: u64,
}

/// Registry handles the session records into (telemetry runs only; see
/// [`crate::latency`] for the stamp-point conventions).
struct SessionTelemetry {
    registry: Arc<Registry>,
    peaks: Arc<Counter>,
    detect: Arc<Histogram>,
    dispatch: Arc<Histogram>,
    /// `latency.journal_us`, on journaled runs.
    journal: Option<Arc<Histogram>>,
    e2e: Arc<Histogram>,
    /// `session.release_lag_us`: at release, how far the pushed stream
    /// had run past the record's start. Signal time on both sides, so at
    /// workers 0 it is exact and repeats for a given trace and partition;
    /// what it measures is the dispatcher's hold plus the peak itself.
    release_lag: Arc<Histogram>,
    /// `records.<protocol>`, one per output port.
    records: Vec<Arc<Counter>>,
    /// Per-detector (vote counter, confidence histogram), parallel to the
    /// detector bank.
    detectors: Vec<(Arc<Counter>, Arc<Histogram>)>,
}

/// The RFDump architecture as an incremental state machine: the peak
/// detector, the fast-detector bank and dispatcher, and the analysis pool
/// with its journal, each carrying state from one push to the next.
struct RfDump {
    det: PeakDetector,
    detectors: Vec<Box<dyn FastDetector>>,
    /// Per-detector CPU, parallel to `detectors` (reported as pseudo-rows).
    detector_cpu: Vec<Duration>,
    dispatcher: Dispatcher,
    /// `None` only once `finish` has taken it.
    pool: Option<AnalysisPool>,
    /// Durability: the detect stage notes every emitted dispatch sequence
    /// (the end-of-run commit value) and skips forwarding dispatches the
    /// journal already holds records for; the analysis stage journals
    /// records as they merge out of the reorderer and then commits the
    /// pool's merge watermark.
    journal: Option<Arc<crate::durability::JournalState>>,
    /// Records recovered from the journal, not yet released. They belong to
    /// the dispatches below the recovered watermark, so they precede
    /// everything this run produces; the first push releases them.
    recovered: Vec<PacketRecord>,
    /// Degradation ladder. The detection stage is where load is observed
    /// (peak end time = signal progress) and where levels ≥ 2 shed the
    /// expensive phase/frequency detectors and raise the confidence floor;
    /// under a latency budget the measured p99 walks those levels.
    governor: Option<Arc<LoadGovernor>>,
    /// Chaos injection site `detect` (honours the delay actions and `kill`
    /// — the protocol-agnostic stage is never failed or shed, so `panic`
    /// and `io` rules aimed here are deliberately inert).
    faults: Option<Arc<FaultPlan>>,
    tel: Option<SessionTelemetry>,
    /// Stamp each chunk's ingest time (telemetry or budget runs only, so
    /// plain runs pay zero clock reads per chunk).
    stamp: bool,
    /// Configured chunk size, fixed for the run, budget or not.
    chunk_samples: usize,
    fs: f64,
    /// Samples pushed so far.
    pos: u64,
    stages: [Stage; 4],
    /// Time spent inside `push`/`finish`.
    wall: Duration,
    /// Start time of the last released record: the ordering contract.
    last_start_us: f64,
}

impl RfDump {
    fn open(
        cfg: &ArchConfig,
        set: DetectorSet,
        fs: f64,
        declared_len: Option<u64>,
        registry: &Option<Arc<Registry>>,
    ) -> Self {
        let governor = cfg.governor.map(|g| Arc::new(LoadGovernor::new(g)));
        if let (Some(g), Some(reg)) = (&governor, registry) {
            g.set_registry(reg.clone());
        }
        // Bounded-latency mode needs ingest stamps even with telemetry off:
        // the budget loop is fed by sample->record latencies.
        let budgeted = governor
            .as_ref()
            .is_some_and(|g| g.latency_budget_us().is_some());

        // The analysis stage: one pool at any worker count (its tasks run
        // on the pushing thread at workers 0), each executor building its
        // own analyzer lineup.
        let factory_cfg = cfg.clone();
        let pool = AnalysisPool::new(
            cfg.workers,
            move || make_analyzers(&factory_cfg, fs),
            cfg.demodulate,
            registry.clone(),
            cfg.faults.clone(),
            governor.clone(),
        );
        let ports: Vec<Protocol> = pool.protocols().to_vec();

        // Crash-safe durability: open (or recover) the journal first, so
        // the recovered commit watermark can gate dispatch forwarding. A
        // stream of undeclared length fingerprints as open-ended. An IO
        // error here degrades to a non-durable run rather than failing it.
        let mut recovered = Vec::new();
        let journal = cfg.durability.as_ref().and_then(|d| {
            let fingerprint =
                crate::durability::config_fingerprint(cfg, declared_len.unwrap_or(u64::MAX), fs);
            match crate::durability::JournalState::prepare(
                d,
                &fingerprint,
                ports.len(),
                governor.clone(),
                cfg.faults.clone(),
                registry.clone(),
            ) {
                Ok((js, rec)) => {
                    // Recovered state resumes exactly where the crashed run
                    // left it: the shed level, the strike ledger, and the
                    // records already durable.
                    if let Some(r) = rec {
                        if let Some(g) = &governor {
                            g.restore_level(r.governor_level);
                        }
                        pool.restore_supervision(&r.strikes);
                        recovered = r.into_release_order();
                    }
                    Some(js)
                }
                Err(e) => {
                    let _ = writeln!(std::io::stderr(), "rfdump: journaling disabled: {e}");
                    None
                }
            }
        });

        let detectors = build_detectors(cfg, set, fs);
        let tel = registry.as_ref().map(|reg| SessionTelemetry {
            registry: reg.clone(),
            peaks: reg.counter("peaks.detected"),
            detect: crate::latency::stage_histogram(reg, crate::latency::DETECT),
            dispatch: crate::latency::stage_histogram(reg, crate::latency::DISPATCH),
            journal: journal
                .as_ref()
                .map(|_| crate::latency::stage_histogram(reg, crate::latency::JOURNAL)),
            e2e: crate::latency::stage_histogram(reg, crate::latency::E2E),
            release_lag: reg.histogram("session.release_lag_us", || {
                Histogram::exponential(100.0, 1e7, 50)
            }),
            records: ports
                .iter()
                .map(|p| reg.counter(&format!("records.{}", p.name())))
                .collect(),
            detectors: detectors
                .iter()
                .map(|d| {
                    (
                        reg.counter(&format!("detector.{}.votes", d.name())),
                        reg.histogram(&format!("detector.{}.confidence", d.name()), || {
                            Histogram::linear(0.0, 1.0, 20)
                        }),
                    )
                })
                .collect(),
        });
        let dispatcher = match registry {
            Some(reg) => Dispatcher::with_telemetry(DispatchConfig::default(), reg),
            None => Dispatcher::new(DispatchConfig::default()),
        };
        Self {
            det: PeakDetector::new(
                PeakDetectorConfig {
                    noise_floor: cfg.noise_floor,
                    ..Default::default()
                },
                fs,
            ),
            detector_cpu: vec![Duration::ZERO; detectors.len()],
            detectors,
            dispatcher,
            pool: Some(pool),
            journal,
            recovered,
            governor,
            faults: cfg.faults.clone(),
            stamp: tel.is_some() || budgeted,
            tel,
            chunk_samples: cfg.chunk_samples.max(1),
            fs,
            pos: 0,
            stages: Default::default(),
            wall: Duration::ZERO,
            last_start_us: f64::NEG_INFINITY,
        }
    }

    /// Three phases over one push: peaks for all of it, detect + dispatch
    /// for each peak, then submit each dispatch and take one ordered drain.
    fn push(&mut self, samples: &[Complex32], out: &mut Released) {
        let t0 = Instant::now();
        self.release_recovered(out);

        // Walk the push in chunk-size steps — sub-slices, never copies —
        // cut at multiples of the chunk size so a push boundary inside a
        // detection block costs one partial block, not a copy of every
        // block after it. A step is what gets an ingest stamp.
        let mut peaks = Vec::new();
        let mut rest = samples;
        let mut steps = 0u64;
        let size = self.chunk_samples;
        while !rest.is_empty() {
            let to_boundary = size - (self.pos % size as u64) as usize;
            let (step, tail) = rest.split_at(to_boundary.min(rest.len()));
            let ingest = self.stamp.then(Instant::now);
            self.det.push_samples(self.pos, step, ingest, &mut peaks);
            self.pos += step.len() as u64;
            rest = tail;
            steps += 1;
        }
        if let Some(j) = &self.journal {
            j.note_samples(samples.len() as u64);
        }
        self.stages[SOURCE].items_out += steps;
        self.stages[PEAK].items_in += steps;
        self.note_peaks(&peaks);
        self.stages[PEAK].cpu += t0.elapsed();

        let dispatches = self.detect(peaks, out);
        self.analyze(dispatches, out);
        self.wall += t0.elapsed();
    }

    fn release_recovered(&mut self, out: &mut Released) {
        out.records.extend(std::mem::take(&mut self.recovered));
    }

    fn note_peaks(&mut self, peaks: &[PeakBlock]) {
        self.stages[PEAK].items_out += peaks.len() as u64;
        if let Some(t) = &self.tel {
            t.peaks.add(peaks.len() as u64);
            for pk in peaks {
                crate::latency::record_since(&t.detect, pk.ingest);
            }
        }
    }

    /// Detection + dispatch: runs the fast-detector bank over each peak and
    /// returns the dispatches whose classification that made final.
    fn detect(&mut self, peaks: Vec<PeakBlock>, out: &mut Released) -> Vec<Dispatch> {
        let t0 = Instant::now();
        self.stages[DETECT].items_in += peaks.len() as u64;
        let mut forwarded = Vec::new();
        for pk in peaks {
            if let Some(plan) = &self.faults {
                match plan.decide("detect") {
                    Some(Action::Slow(d)) => std::thread::sleep(d),
                    Some(Action::Spin(d)) => rfd_fault::spin_for(d),
                    Some(Action::Kill) => std::process::abort(),
                    _ => {}
                }
            }
            let mut votes: Vec<Classification> = Vec::new();
            for (i, det) in self.detectors.iter_mut().enumerate() {
                if let Some(g) = &self.governor {
                    if !g.detector_allowed(det.name()) {
                        g.note_shed_detector();
                        continue;
                    }
                }
                let t0 = Instant::now();
                let before = votes.len();
                votes.extend(det.on_peak(&pk));
                self.detector_cpu[i] += t0.elapsed();
                if let Some(t) = &self.tel {
                    let (counter, hist) = &t.detectors[i];
                    counter.add((votes.len() - before) as u64);
                    for v in &votes[before..] {
                        hist.record(v.confidence as f64);
                    }
                }
            }
            if let Some(g) = &self.governor {
                if let Some(floor) = g.confidence_floor() {
                    votes.retain(|c| {
                        let keep = c.confidence >= floor;
                        if !keep {
                            g.note_shed_vote();
                        }
                        keep
                    });
                }
            }
            let dispatches = self.dispatcher.on_peak(pk, votes);
            self.route(dispatches, &mut forwarded, out);
        }
        self.stages[DETECT].cpu += t0.elapsed();
        forwarded
    }

    fn route(
        &mut self,
        dispatches: Vec<Dispatch>,
        forwarded: &mut Vec<Dispatch>,
        out: &mut Released,
    ) {
        for d in dispatches {
            for v in &d.votes {
                let (a, b) = match v.range {
                    Some(r) => r,
                    None => (d.block.peak.start, d.block.peak.end),
                };
                out.classified.push(ClassifiedPeak {
                    protocol: v.protocol,
                    start_sample: a,
                    end_sample: b,
                });
            }
            if let Some(j) = &self.journal {
                j.note_emitted(d.seq);
                if j.should_skip(d.seq) {
                    // Deterministic redo: this dispatch's records were
                    // recovered from the journal; detection bookkeeping
                    // above still ran so `classified` stays identical.
                    continue;
                }
            }
            if let Some(t) = &self.tel {
                crate::latency::record_since(&t.dispatch, d.block.ingest);
            }
            self.stages[DETECT].items_out += 1;
            forwarded.push(d);
        }
    }

    /// The analysis stage: submit, then release whatever the reorderer has
    /// in sequence. The drain never blocks, so a record a worker finishes
    /// later leaves with the next push (or at `finish`).
    fn analyze(&mut self, dispatches: Vec<Dispatch>, out: &mut Released) {
        let t0 = Instant::now();
        self.stages[ANALYZE].items_in += dispatches.len() as u64;
        let pool = self.pool.as_mut().expect("pool lives until finish");
        for d in dispatches {
            // With worker threads, blocks while the pool queue is full:
            // backpressure toward whoever is pushing. With none, runs the
            // task right here.
            pool.submit(d);
        }
        let ready = pool.drain_ordered();
        self.store(ready, out);
        // One commit rule at any worker count: submissions are the dense
        // dispatch sequence minus the recovered prefix, so pool-local merge
        // position `k` means absolute dispatch `base + k` is durable now
        // that the drain is journaled.
        if let (Some(j), Some(pool)) = (&self.journal, &self.pool) {
            j.set_strikes(&pool.strike_counts());
            j.commit(j.base() + pool.merged_seq());
        }
        self.stages[ANALYZE].cpu += t0.elapsed();
    }

    fn store(&mut self, recs: Vec<(usize, PacketRecord, Option<Instant>)>, out: &mut Released) {
        if recs.is_empty() {
            return;
        }
        let now_us = self.pos as f64 / self.fs * 1e6;
        for (port, r, ingest) in recs {
            // What lets a push release records for good: every record of a
            // dispatch starts where its peak starts, peaks are disjoint
            // and ordered, and the reorderer releases dispatches in
            // sequence — so release order is the final, start-time order.
            debug_assert!(
                r.start_us >= self.last_start_us,
                "record released out of start-time order"
            );
            self.last_start_us = r.start_us;
            if let Some(j) = &self.journal {
                j.journal_record(port, &r);
            }
            if let Some(t) = &self.tel {
                if let Some(h) = &t.journal {
                    crate::latency::record_since(h, ingest);
                }
                t.records[port].inc();
                crate::latency::record_since(&t.e2e, ingest);
                t.release_lag.record(now_us - r.start_us);
            }
            if let Some(g) = &self.governor {
                g.record_e2e(ingest);
            }
            out.records.push(r);
        }
        if let Some(g) = &self.governor {
            g.latency_tick();
        }
    }

    /// End of stream: flush the peak detector, the dispatcher's hold and
    /// the pool, in that order, then make the journal durable.
    fn finish(mut self, out: &mut Released) -> ArchOutput {
        let t0 = Instant::now();
        self.release_recovered(out);
        let mut peaks = Vec::new();
        self.det.finish(&mut peaks);
        self.note_peaks(&peaks);
        if let Some(t) = &self.tel {
            t.registry
                .counter("peaks.sequential_blocks")
                .add(self.det.sequential_blocks());
        }
        self.stages[PEAK].cpu += t0.elapsed();
        let dispatches = self.detect(peaks, out);
        self.analyze(dispatches, out);

        let t1 = Instant::now();
        for det in self.detectors.iter_mut() {
            // Late votes cannot be absorbed without a peak; flush pending.
            let _ = det.finish();
        }
        let tail = self.dispatcher.finish();
        let mut dispatches = Vec::new();
        self.route(tail, &mut dispatches, out);
        self.stages[DETECT].cpu += t1.elapsed();
        self.analyze(dispatches, out);

        let t2 = Instant::now();
        let pool = self.pool.take().expect("finish runs once");
        let (rest, result) = pool.finish();
        self.store(rest, out);
        self.stages[ANALYZE].cpu += t2.elapsed();
        // Everything emitted is now merged and released: commit it,
        // checkpoint, and make the journal durable before reporting.
        if let Some(j) = &self.journal {
            j.finalize_run();
        }
        self.wall += t0.elapsed();

        let mut stats = RunStats {
            blocks: STAGE_NAMES
                .iter()
                .zip(&self.stages)
                .map(|(name, s)| BlockStats {
                    name: name.to_string(),
                    cpu: s.cpu,
                    items_in: s.items_in,
                    items_out: s.items_out,
                })
                .collect(),
            wall: self.wall,
        };
        if let Some(t) = &self.tel {
            stats.publish(&t.registry);
        }
        let blocks = &mut stats.blocks;
        // Break out per-detector and per-analyzer CPU as pseudo-rows. That
        // time was spent inside the detect stage (and, at workers 0, inside
        // the analysis stage's `submit`) and is already counted there, so
        // move it out of those rows rather than adding it twice —
        // `total_cpu()` must stay <= wall on a single thread.
        blocks[DETECT].cpu = blocks[DETECT]
            .cpu
            .saturating_sub(self.detector_cpu.iter().sum());
        blocks[ANALYZE].cpu = blocks[ANALYZE]
            .cpu
            .saturating_sub(result.analyzers.iter().map(|a| a.cpu).sum());
        for (det, cpu) in self.detectors.iter().zip(&self.detector_cpu) {
            blocks.push(BlockStats {
                name: det.name().to_string(),
                cpu: *cpu,
                items_in: 0,
                items_out: 0,
            });
        }
        for a in &result.analyzers {
            blocks.push(BlockStats {
                name: a.name.clone(),
                cpu: a.cpu,
                items_in: a.items_in,
                items_out: a.items_out,
            });
        }
        ArchOutput {
            dispatch_stats: Some(self.dispatcher.stats().clone()),
            stats,
            trace_seconds: self.pos as f64 / self.fs,
            sample_rate: self.fs,
            // Worker statistics describe threads; with none there is no section.
            pool_stats: (!result.pool.workers.is_empty()).then_some(result.pool),
            governor: self.governor.as_ref().map(|g| g.report()),
            latency: self.governor.as_ref().and_then(|g| g.latency_report()),
            panics: result.panics,
            quarantined: result.quarantined,
            recovery: self.journal.as_ref().map(|j| j.report()),
            ..Default::default()
        }
    }
}

/// The analyzer lineup for an RFDump run, in output-port order. Every pool
/// worker (and the inline executor) builds its lineup through this one
/// function, so the per-port analyzers — and therefore the records they
/// emit — cannot diverge between worker counts.
fn make_analyzers(cfg: &ArchConfig, fs: f64) -> Vec<Box<dyn Analyzer>> {
    let mut analyzers: Vec<Box<dyn Analyzer>> = vec![
        Box::new(WifiAnalyzer),
        Box::new(BtAnalyzer::new(
            fs,
            cfg.band.center_hz,
            cfg.piconets.clone(),
        )),
    ];
    if cfg.zigbee {
        analyzers.push(Box::new(ZigbeeAnalyzer::new(
            cfg.band.center_hz,
            cfg.band.center_hz,
        )));
    }
    if cfg.microwave {
        analyzers.push(Box::new(MicrowaveAnalyzer));
    }
    analyzers
}

fn build_detectors(cfg: &ArchConfig, set: DetectorSet, fs: f64) -> Vec<Box<dyn FastDetector>> {
    let timing = matches!(
        set,
        DetectorSet::Timing | DetectorSet::TimingAndPhase | DetectorSet::All
    );
    let phase = matches!(
        set,
        DetectorSet::Phase | DetectorSet::TimingAndPhase | DetectorSet::All
    );
    let freq = matches!(set, DetectorSet::All);
    let mut v: Vec<Box<dyn FastDetector>> = Vec::new();
    if timing {
        v.push(Box::new(WifiSifsDetector::new()));
        v.push(Box::new(WifiDifsDetector::new()));
        v.push(Box::new(BtTimingDetector::new()));
        if cfg.microwave {
            v.push(Box::new(MicrowaveTimingDetector::new()));
        }
        if cfg.zigbee {
            v.push(Box::new(ZigbeeTimingDetector::new()));
        }
    }
    if phase {
        v.push(Box::new(WifiPhaseDetector::new(fs)));
        v.push(Box::new(BtPhaseDetector::new(cfg.band.center_hz)));
        if cfg.zigbee {
            v.push(Box::new(ZigbeePhaseDetector::new()));
        }
    }
    if freq {
        v.push(Box::new(BtFreqDetector::new(fs, cfg.band.center_hz)));
    }
    v
}

/// Synthesizes classified peaks from decoded records (for the naïve
/// baselines, whose only "classification" is successful demodulation).
fn classified_from_records(records: &[PacketRecord], fs: f64) -> Vec<ClassifiedPeak> {
    records
        .iter()
        .map(|r| ClassifiedPeak {
            protocol: r.protocol,
            start_sample: (r.start_us * 1e-6 * fs).max(0.0) as u64,
            end_sample: (r.end_us * 1e-6 * fs).max(0.0) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_ether::scene::Scene;
    use rfd_mac::{L2PingConfig, L2PingSim};

    const LAP: u32 = 0x9E8B33;
    const UAP: u8 = 0x47;

    fn piconets() -> Vec<PiconetId> {
        vec![PiconetId { lap: LAP, uap: UAP }]
    }

    /// A short mixed trace: a few wifi pings + a few l2pings.
    fn mixed_trace() -> rfd_ether::scene::EtherTrace {
        let mut wifi = rfd_mac::WifiDcfSim::new(rfd_mac::DcfConfig::default());
        wifi.queue_ping_flow(1, 2, 3, 120, 9_000.0, 0.0);
        let wifi_ev = wifi.run();
        let mut bt = L2PingSim::new(L2PingConfig {
            count: 12,
            ptype: rfd_phy::bluetooth::packet::BtPacketType::Dh1,
            size_base: 20,
            size_span: 7,
            gap_slots: 2,
            ..Default::default()
        });
        let bt_ev = bt.run();
        let events = rfd_mac::merge_schedules(vec![wifi_ev, bt_ev]);
        let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 500.0;
        let mut scene = Scene::new(1e-4, 77);
        for n in 0..16 {
            scene.set_node(n, 0.0, 0.0);
        }
        scene.render(&events, horizon)
    }

    #[test]
    fn rfdump_classifies_wifi_and_bluetooth() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let wifi_found = out
            .classified
            .iter()
            .filter(|c| c.protocol == Protocol::Wifi)
            .count();
        let bt_found = out
            .classified
            .iter()
            .filter(|c| c.protocol == Protocol::Bluetooth)
            .count();
        // 3 ping exchanges = 12 wifi packets (req+rep+2 acks each).
        assert!(wifi_found >= 9, "wifi classified {wifi_found}");
        let bt_inband = trace
            .truth
            .iter()
            .filter(|t| t.protocol == Protocol::Bluetooth && t.in_band)
            .count();
        assert!(
            bt_found + 1 >= bt_inband,
            "bt classified {bt_found} of {bt_inband} in-band"
        );
        // Demodulated records decode real frames.
        let decoded_wifi = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(decoded_wifi >= 9, "decoded {decoded_wifi} wifi frames");
        assert!(out.dispatch_stats.is_some());
    }

    #[test]
    fn session_releases_records_while_the_stream_is_still_coming() {
        let trace = mixed_trace();
        let fs = trace.band.sample_rate;
        let ambient = ArchConfig::rfdump(piconets());
        let inline = ArchConfig {
            workers: 0,
            ..ambient.clone()
        };
        for cfg in [inline, ambient] {
            let whole = run_architecture(&cfg, &trace.samples, fs);

            let mut session = Session::open(&cfg, fs, None, None);
            let mut early = Released::default();
            for piece in trace.samples.chunks(4096) {
                early.append(session.push(piece));
            }
            let (last, out) = session.finish();
            // Only inline analysis promises a release before `finish`: with
            // pool workers a push takes a non-blocking drain, so whether a
            // dispatch has finished by then is up to the scheduler.
            if cfg.workers == 0 {
                assert!(
                    !early.records.is_empty() && !last.records.is_empty(),
                    "{} before finish, {} at it",
                    early.records.len(),
                    last.records.len()
                );
            }
            early.append(last);
            assert_eq!(early.records, whole.records);
            assert_eq!(early.classified, whole.classified);
            // The output keeps the counts, not the records.
            assert!(out.records.is_empty() && out.classified.is_empty());
            assert_eq!(out.record_counts, whole.record_counts);
            let total: u64 = out.record_counts.values().map(|(total, _)| total).sum();
            assert_eq!(total, whole.records.len() as u64);
        }
    }

    #[test]
    fn release_lag_is_signal_time_and_pinned_on_the_golden_wifi_trace() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/wifi.rfdt");
        let (header, samples) = rfd_ether::trace::read_trace(std::path::Path::new(path)).unwrap();
        let mut cfg = ArchConfig::rfdump(piconets());
        cfg.band = rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        };
        cfg.workers = 0;
        let lag = |samples: &[Complex32]| {
            let out = run_architecture(&cfg, samples, header.sample_rate);
            let snap = out.registry.as_ref().unwrap().snapshot();
            let h = snap.histograms["session.release_lag_us"].clone();
            assert_eq!(h.count, out.records.len() as u64);
            h
        };
        // Eight packets in 14.5 ms: no more peaks than the dispatcher
        // holds, so every record leaves at `finish` and lags by its
        // distance from the end of the trace — the first (at 0.55 ms) most.
        let once = lag(&samples);
        assert_eq!(once.max, 13_970.125);
        assert!(
            (12_000.0..=16_000.0).contains(&once.p95),
            "p95 {} us",
            once.p95
        );
        // Played three times over, all but the last eight peaks leave once
        // eight later peaks have been seen, which on this trace is one
        // pass: the hold, not the length of the stream, sets the lag.
        let thrice = lag(&[&samples[..], &samples[..], &samples[..]].concat());
        assert!(
            (14_000.0..=20_000.0).contains(&thrice.p95),
            "p95 {} us",
            thrice.p95
        );
        // No clock is read: the same trace gives the same histogram.
        assert_eq!(lag(&samples).counts, once.counts);
    }

    #[test]
    fn telemetry_registry_captures_the_pipeline() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let reg = out.registry.as_ref().expect("telemetry on by default");
        let snap = reg.snapshot();
        // The peak stage counted peaks and the dispatcher mirrored stats.
        assert_eq!(snap.counters["trace.samples"], trace.samples.len() as u64);
        let ds = out.dispatch_stats.as_ref().unwrap();
        assert_eq!(snap.counters["peaks.detected"], ds.total_peaks);
        assert_eq!(snap.counters["dispatch.total_peaks"], ds.total_peaks);
        // Every detector has a vote counter and confidence histogram.
        for name in ["detect:wifi-sifs-timing", "detect:bt-slot-timing"] {
            assert!(
                snap.counters
                    .contains_key(&format!("detector.{name}.votes")),
                "missing vote counter for {name}"
            );
            assert!(
                snap.histograms
                    .contains_key(&format!("detector.{name}.confidence")),
                "missing confidence histogram for {name}"
            );
        }
        // Scheduler metrics and analyzer latency histograms are present.
        assert!(snap.counters["flowgraph.runs"] >= 1);
        assert!(snap.histograms["analyze.802.11.latency_us"].count > 0);
        // Spans were recorded for analyzer work.
        assert!(reg.tracer().events().iter().any(|e| e.cat == "analyze"));

        // With telemetry off, no registry is produced.
        let mut cfg2 = ArchConfig::rfdump(piconets());
        cfg2.telemetry = false;
        let out2 = run_architecture(&cfg2, &trace.samples, trace.band.sample_rate);
        assert!(out2.registry.is_none());
    }

    #[test]
    fn stats_json_round_trips_for_a_real_run() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let text = crate::stats::stats_json(&out, None).to_json();
        let doc = rfd_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rfd-stats"));
        let blocks = doc.get("blocks").unwrap().as_arr().unwrap();
        assert!(
            blocks.len() >= 4,
            "expected full pipeline, got {}",
            blocks.len()
        );
        assert!(doc.get("stages").unwrap().get("detect").is_some());
        assert!(doc.get("dispatch").unwrap().get("per_protocol").is_some());
    }

    #[test]
    fn naive_decodes_the_same_trace() {
        let trace = mixed_trace();
        let cfg = ArchConfig::naive(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let wifi_ok = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(wifi_ok >= 10, "naive decoded {wifi_ok} wifi");
        let bt_ok = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Bluetooth { crc_ok: true, .. }))
            .count();
        let bt_inband = trace
            .truth
            .iter()
            .filter(|t| t.protocol == Protocol::Bluetooth && t.in_band)
            .count();
        assert!(
            bt_ok + 1 >= bt_inband,
            "naive decoded {bt_ok}/{bt_inband} bt"
        );
    }

    #[test]
    fn rfdump_is_cheaper_than_naive() {
        let trace = mixed_trace();
        let naive = run_architecture(&ArchConfig::naive(piconets()), &trace.samples, 8e6);
        let rfdump = run_architecture(&ArchConfig::rfdump(piconets()), &trace.samples, 8e6);
        let a = naive.cpu_over_realtime();
        let b = rfdump.cpu_over_realtime();
        assert!(
            b < a,
            "RFDump ({b:.3}x) must beat naive ({a:.3}x) on a mostly-idle trace"
        );
    }

    #[test]
    fn detection_only_is_cheaper_than_with_demod() {
        let trace = mixed_trace();
        let mut cfg = ArchConfig::rfdump(piconets());
        let with = run_architecture(&cfg, &trace.samples, 8e6);
        cfg.demodulate = false;
        let without = run_architecture(&cfg, &trace.samples, 8e6);
        assert!(without.cpu_over_realtime() <= with.cpu_over_realtime());
        // Detection-only still yields records.
        assert!(without
            .records
            .iter()
            .all(|r| matches!(r.info, PacketInfo::DetectedOnly { .. })));
        assert!(!without.records.is_empty());
    }

    /// The exact form of the comparison above: without demodulation no
    /// demodulator runs — not one record is demodulated and no
    /// `analyze:*-demod` row books any CPU, input or output — while with it
    /// some records are.
    #[test]
    fn detection_only_runs_no_demodulator() {
        let demodulated =
            |out: &ArchOutput| -> u64 { out.record_counts.values().map(|c| c.1).sum() };
        let demod_rows = |out: &ArchOutput| -> Vec<(String, Duration, u64, u64)> {
            out.stats
                .blocks
                .iter()
                .filter(|b| b.name.starts_with("analyze:") && b.name.ends_with("-demod"))
                .map(|b| (b.name.clone(), b.cpu, b.items_in, b.items_out))
                .collect()
        };
        let trace = mixed_trace();
        let mut cfg = ArchConfig::rfdump(piconets());
        let with = run_architecture(&cfg, &trace.samples, 8e6);
        cfg.demodulate = false;
        let without = run_architecture(&cfg, &trace.samples, 8e6);
        assert!(demodulated(&with) > 0, "{:?}", with.record_counts);
        assert_eq!(demodulated(&without), 0, "{:?}", without.record_counts);
        let rows = demod_rows(&without);
        assert!(!rows.is_empty(), "{:?}", without.stats.blocks);
        for (name, cpu, items_in, items_out) in &rows {
            assert_eq!(
                (*cpu, *items_in, *items_out),
                (Duration::ZERO, 0, 0),
                "{name}: {rows:?}"
            );
        }
    }

    #[test]
    fn naive_energy_sits_between() {
        let trace = mixed_trace();
        let naive = run_architecture(&ArchConfig::naive(piconets()), &trace.samples, 8e6);
        let mut cfg = ArchConfig::naive(piconets());
        cfg.kind = ArchKind::NaiveEnergy;
        let gated = run_architecture(&cfg, &trace.samples, 8e6);
        assert!(
            gated.cpu_over_realtime() < naive.cpu_over_realtime(),
            "energy gating must help on an idle-heavy trace"
        );
        let wifi_ok = gated
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(wifi_ok >= 9, "gated naive decoded {wifi_ok} wifi");
    }
}
