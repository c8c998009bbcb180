//! The staged replay: the offline pipeline called stage by stage through
//! each crate's public entry points, with a span around every call.
//!
//! It must do the same work as `run_architecture` on the RFDump architecture
//! with the CLI's defaults (timing + phase detectors, microwave on, ZigBee
//! off, workers 0) — `main` asserts its record lines equal the flowgraph's —
//! so that the per-layer self times decompose the real thing. The record
//! egress stages a live server adds (journal, RFDN framing, hub) run on the
//! same records after it.

use rfd_net::{Frame, FrameDecoder, HubMsg, RecordHub, RecordMsg};
use rfd_perfbench::alloc::{snapshot, AllocCount};
use rfd_perfbench::spans::Recorder;
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_phy::Protocol;
use rfdump::analyze::{Analyzer, BtAnalyzer, MicrowaveAnalyzer, WifiAnalyzer};
use rfdump::arch::{run_architecture, ArchConfig, ArchOutput};
use rfdump::chunk::SampleChunk;
use rfdump::detect::{
    BtPhaseDetector, BtTimingDetector, FastDetector, MicrowaveTimingDetector, WifiDifsDetector,
    WifiPhaseDetector, WifiSifsDetector,
};
use rfdump::dispatch::{Dispatch, DispatchConfig, Dispatcher};
use rfdump::durability::ENTRY_RECORD;
use rfdump::peak::{PeakDetector, PeakDetectorConfig};
use rfdump::records::{PacketInfo, PacketRecord};
use std::path::Path;
use std::time::Instant;

/// The piconet every run acquires (`-p 9E8B33:47`).
pub fn piconet() -> PiconetId {
    PiconetId {
        lap: 0x9E8B33,
        uap: 0x47,
    }
}

/// Counts taken at the stage boundaries of one replay.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Samples decoded from the trace.
    pub samples: u64,
    /// Peak blocks the peak detector emitted.
    pub peaks: u64,
    /// Samples inside those peaks.
    pub peak_samples: u64,
    /// Votes the fast detectors cast.
    pub votes: u64,
    /// Peak → analyzer forwardings (one per dispatch and matching protocol).
    pub dispatched: u64,
    /// Samples forwarded to the Wi-Fi analyzer.
    pub fwd_wifi_samples: u64,
    /// Samples forwarded to the Bluetooth analyzer.
    pub fwd_bt_samples: u64,
    /// Samples forwarded to any analyzer.
    pub fwd_samples: u64,
    /// Records the analyzers emitted.
    pub records: u64,
    /// Of those, fully demodulated ones (not `DetectedOnly`).
    pub decoded: u64,
    /// Bytes the journal segment files hold for those records.
    pub journal_bytes: u64,
    /// Entries `recover` read back.
    pub journal_recovered: u64,
}

/// One replay's output.
pub struct Replay {
    /// The record lines, in final order.
    pub lines: Vec<String>,
    /// Boundary counts.
    pub counts: Counts,
}

fn route(
    rec: &mut Recorder,
    d: &Dispatch,
    analyzers: &mut [(&'static str, Box<dyn Analyzer>)],
    per_port: &mut [Vec<PacketRecord>],
    counts: &mut Counts,
) {
    for (port, (span, az)) in analyzers.iter_mut().enumerate() {
        if d.vote_for(az.protocol()).is_some() {
            counts.dispatched += 1;
            rec.enter(span);
            let recs = az.analyze(d);
            rec.exit();
            per_port[port].extend(recs);
        }
    }
}

/// Replays the encoded trace `bytes` through every stage. `journal_dir` is
/// emptied and refilled.
pub fn replay(rec: &mut Recorder, bytes: &[u8], journal_dir: &Path) -> Replay {
    let mut counts = Counts::default();
    rec.enter("replay");

    rec.enter("ether.decode");
    let (header, samples) =
        rfd_ether::trace::decode_trace(bytes).expect("the trace was encoded by this process");
    rec.exit();
    let fs = header.sample_rate;
    counts.samples = samples.len() as u64;

    rec.enter("chunk.split");
    let chunks = SampleChunk::chunk_trace(&samples, fs, rfdump::CHUNK_SAMPLES);
    rec.exit();

    let mut peaks = Vec::new();
    let mut det = PeakDetector::new(PeakDetectorConfig::default(), fs);
    for c in &chunks {
        rec.enter("peak.push_chunk");
        det.push_chunk(c, &mut peaks);
        rec.exit();
    }
    rec.enter("peak.finish");
    det.finish(&mut peaks);
    rec.exit();
    drop(chunks);
    counts.peaks = peaks.len() as u64;
    counts.peak_samples = peaks.iter().map(|p| p.peak.len()).sum();

    // `rfdump -r` defaults: timing + phase detectors, microwave on.
    let mut detectors: Vec<Box<dyn FastDetector>> = vec![
        Box::new(WifiSifsDetector::new()),
        Box::new(WifiDifsDetector::new()),
        Box::new(BtTimingDetector::new()),
        Box::new(MicrowaveTimingDetector::new()),
        Box::new(WifiPhaseDetector::new(fs)),
        Box::new(BtPhaseDetector::new(header.center_hz)),
    ];
    let mut analyzers: Vec<(&'static str, Box<dyn Analyzer>)> = vec![
        ("analyze.wifi", Box::new(WifiAnalyzer)),
        (
            "analyze.bt",
            Box::new(BtAnalyzer::new(fs, header.center_hz, vec![piconet()])),
        ),
        ("analyze.microwave", Box::new(MicrowaveAnalyzer)),
    ];
    let mut dispatcher = Dispatcher::new(DispatchConfig::default());
    let mut per_port: Vec<Vec<PacketRecord>> = vec![Vec::new(); analyzers.len()];
    for pk in peaks {
        let mut votes = Vec::new();
        for d in detectors.iter_mut() {
            rec.enter("detect.on_peak");
            votes.extend(d.on_peak(&pk));
            rec.exit();
        }
        counts.votes += votes.len() as u64;
        rec.enter("dispatch.on_peak");
        let dispatches = dispatcher.on_peak(pk, votes);
        rec.exit();
        for d in &dispatches {
            route(rec, d, &mut analyzers, &mut per_port, &mut counts);
        }
    }
    rec.enter("dispatch.finish");
    let tail = dispatcher.finish();
    rec.exit();
    for d in &tail {
        route(rec, d, &mut analyzers, &mut per_port, &mut counts);
    }
    let stats = dispatcher.stats();
    let fwd = |p: Protocol| stats.forwarded_samples.get(&p).copied().unwrap_or(0);
    counts.fwd_wifi_samples = fwd(Protocol::Wifi);
    counts.fwd_bt_samples = fwd(Protocol::Bluetooth);
    counts.fwd_samples = stats.forwarded_samples.values().sum();

    // Port order, then a stable sort by start time: as the flowgraph does.
    rec.enter("records.sort");
    let mut records: Vec<PacketRecord> = per_port.into_iter().flatten().collect();
    records.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    rec.exit();
    counts.records = records.len() as u64;
    counts.decoded = records
        .iter()
        .filter(|r| !matches!(r.info, PacketInfo::DetectedOnly { .. }))
        .count() as u64;

    let mut lines = Vec::with_capacity(records.len());
    for r in &records {
        rec.enter("records.format");
        lines.push(r.format_line());
        rec.exit();
    }

    // ---- record egress, as a journaling live server adds it ----
    let mut journal =
        rfd_journal::JournalWriter::create(journal_dir).expect("journal directory is writable");
    for r in &records {
        rec.enter("records.encode");
        let payload = r.encode();
        rec.exit();
        rec.enter("journal.append");
        journal
            .append(ENTRY_RECORD, &payload)
            .expect("journal append");
        rec.exit();
    }
    rec.enter("journal.sync");
    journal.sync().expect("journal sync");
    rec.exit();
    drop(journal);
    counts.journal_bytes = std::fs::read_dir(journal_dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    rec.enter("journal.recover");
    let recovered = rfd_journal::recover(journal_dir).expect("journal recover");
    rec.exit();
    counts.journal_recovered = recovered.entries.len() as u64;
    for (entry, original) in recovered.entries.iter().zip(&records) {
        rec.enter("records.decode");
        let back = PacketRecord::decode(&entry.payload);
        rec.exit();
        assert_eq!(
            back.as_ref(),
            Some(original),
            "a journaled record must decode to itself"
        );
    }

    let hub = RecordHub::new(records.len().max(1));
    let sub = hub.subscribe();
    let mut decoder = FrameDecoder::new();
    for (seq, (r, line)) in records.iter().zip(&lines).enumerate() {
        let msg = RecordMsg {
            start_us: r.start_us,
            end_us: r.end_us,
            line: line.clone(),
        };
        rec.enter("net.record_encode");
        let wire = rfd_net::frame::encode_frame(&Frame::Record(msg), seq as u32);
        rec.exit();
        rec.enter("net.record_decode");
        decoder.push(&wire);
        let frame = decoder
            .next_frame()
            .expect("own frame decodes")
            .expect("whole frame pushed");
        rec.exit();
        let Frame::Record(back) = frame.frame else {
            panic!("a Record frame decoded as {}", frame.frame.type_name());
        };
        rec.enter("net.hub_publish");
        hub.publish(HubMsg::Record(back));
        rec.exit();
    }
    drop(sub);

    rec.exit();
    Replay { lines, counts }
}

/// One in-process end-to-end run, timed part by part.
pub struct FlowRun {
    /// What `run_architecture` returned.
    pub out: ArchOutput,
    /// Its record lines.
    pub lines: Vec<String>,
    /// `decode_trace`, seconds.
    pub decode_s: f64,
    /// `run_architecture`, seconds.
    pub arch_s: f64,
    /// `format_line` over every record, seconds.
    pub format_s: f64,
    /// What this thread allocated inside `run_architecture`.
    pub arch_allocs: AllocCount,
}

impl FlowRun {
    /// Decode + analysis + formatting: what `rfdump -r` does between
    /// reading the file and printing.
    pub fn e2e_s(&self) -> f64 {
        self.decode_s + self.arch_s + self.format_s
    }
}

/// The CLI's configuration for `rfdump -r FILE --workers N -p 9E8B33:47`.
pub fn cli_config(band: rfd_ether::Band, workers: usize, telemetry: bool) -> ArchConfig {
    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.band = band;
    cfg.workers = workers;
    cfg.telemetry = telemetry;
    cfg.faults = None;
    cfg
}

/// In-process end to end as `rfdump -r` does it: decode, `run_architecture`,
/// format every record.
pub fn flowgraph(bytes: &[u8], workers: usize, telemetry: bool) -> FlowRun {
    let t = Instant::now();
    let (header, samples) =
        rfd_ether::trace::decode_trace(bytes).expect("the trace was encoded by this process");
    let decode_s = t.elapsed().as_secs_f64();
    let band = rfd_ether::Band {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
    };
    let cfg = cli_config(band, workers, telemetry);
    let before = snapshot();
    let t = Instant::now();
    let out = run_architecture(&cfg, &samples, header.sample_rate);
    let arch_s = t.elapsed().as_secs_f64();
    let arch_allocs = snapshot().since(before);
    let t = Instant::now();
    let lines = out.records.iter().map(|r| r.format_line()).collect();
    let format_s = t.elapsed().as_secs_f64();
    FlowRun {
        out,
        lines,
        decode_s,
        arch_s,
        format_s,
        arch_allocs,
    }
}
