//! Crash-safe processing: the glue between the pipeline and `rfd-journal`.
//!
//! An always-on monitor cannot afford to lose hours of classified records to
//! one process death. With `--journal DIR` every emitted [`PacketRecord`] is
//! appended to a write-ahead journal together with periodic *commit* markers,
//! and `--resume` turns that journal back into the exact state the crashed
//! run had durably reached.
//!
//! # Recovery model: deterministic redo above a durable floor
//!
//! The peak detector is deeply stateful (an online noise floor over a long
//! chunk window, open peaks, a tail ring), so its state is never serialized.
//! Instead, recovery re-runs the *cheap* detection stage from sample zero —
//! the paper's own economics: detection is orders of magnitude cheaper than
//! analysis — and skips the *expensive* analysis stage for every dispatch
//! whose records the journal already holds. This is sound because analyzers
//! are pure per-dispatch (their state is configuration only), so dispatch
//! `seq` always produces the same records; and it is exact because the
//! dispatcher assigns dense sequence numbers in emission order, so "skip all
//! dispatches below the committed watermark, replay their journaled records"
//! reconstructs per-port record streams byte-for-byte.
//!
//! # Journal layout
//!
//! Four entry kinds, all CRC-framed by `rfd-journal`:
//!
//! * `META` — a fingerprint of the trace and configuration (sample count,
//!   rate, architecture, analyzer lineup — everything that shapes the record
//!   stream, deliberately *excluding* the worker count, so a journal written
//!   at `--workers 0` resumes under `--workers 4` and vice versa).
//! * `RECORD` — one emitted record: output port + the exact binary encoding.
//! * `COMMIT` — a watermark `C`: every dispatch with `seq < C` has *all* of
//!   its records appended before this entry. Recovery replays records up to
//!   the last commit and discards the uncommitted tail (the redo regenerates
//!   it deterministically).
//! * `RESUME` — written as a resumed writer's first entry: the per-port
//!   record counts that survived replay. A later recovery truncates back to
//!   these counts, so records that were journaled after the last commit by a
//!   previous incarnation can never be double-counted.
//!
//! There is one commit rule, at any worker count: after journaling each
//! ordered drain, the analysis block commits `base + merged_seq()` — the
//! pool's reorder watermark *is* the durability watermark. At workers 0 the
//! pool's tasks run inline in `submit`, so every drain is complete and the
//! watermark equals the submitted count. The end-of-run commit covers
//! whatever was emitted last.
//!
//! fsync cadence is a durability/latency knob, not a correctness one:
//! recovery trusts only what it can read back, and anything lost past the
//! last readable commit is simply re-analyzed.

use crate::arch::ArchConfig;
use crate::records::PacketRecord;
use rfd_fault::{Action, FaultPlan};
use rfd_flowgraph::sync::Mutex;
use rfd_journal::{
    get_bytes, get_u64, put_bytes, put_u64, read_checkpoint, recover, write_checkpoint, Entry,
    JournalWriter,
};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Journal entry kind: configuration/trace fingerprint.
pub(crate) const ENTRY_META: u16 = 1;
/// Journal entry kind: one emitted record (`u16` port + encoded record).
pub const ENTRY_RECORD: u16 = 2;
/// Journal entry kind: commit watermark (`u64` dispatches durable).
pub(crate) const ENTRY_COMMIT: u16 = 3;
/// Journal entry kind: resume boundary (per-port surviving record counts).
pub(crate) const ENTRY_RESUME: u16 = 4;

/// Checkpoint file name inside the journal directory.
pub(crate) const CHECKPOINT_FILE: &str = "checkpoint.rfdc";

/// Commits between journal fsyncs. A cadence knob, not a correctness one:
/// recovery trusts only what reads back, and a process crash (as opposed to
/// power loss) loses nothing that reached the page cache. Kept wide because
/// every checkpoint costs an fsync + rename + directory fsync.
const SYNC_EVERY_COMMITS: u64 = 256;
/// Commits between checkpoint rewrites.
const CHECKPOINT_EVERY_COMMITS: u64 = 64;

/// Durability knobs carried in [`ArchConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Journal directory (created if missing; wiped on a fresh run).
    pub dir: PathBuf,
    /// Recover from the journal instead of starting fresh.
    pub resume: bool,
}

/// What the `recovery` stats section reports about a journaled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether this run recovered prior state (`--resume` with a journal).
    pub resumed: bool,
    /// Journal entries replayed during recovery.
    pub entries_replayed: u64,
    /// Records recovered from the journal — emissions the redo pass skipped,
    /// i.e. records deduplicated against the previous incarnation.
    pub records_recovered: u64,
    /// Commit markers appended by this run.
    pub commits_written: u64,
    /// Checkpoints written by this run.
    pub checkpoints_written: u64,
    /// Wall time spent scanning the journal and rebuilding state, µs.
    pub resume_latency_us: u64,
}

/// Fingerprints everything that shapes the record stream: the trace and the
/// analysis configuration, excluding execution details (worker count,
/// scheduler, telemetry) so a journal resumes under a different parallelism.
pub fn config_fingerprint(cfg: &ArchConfig, n_samples: u64, fs: f64) -> Vec<u8> {
    use crate::arch::{ArchKind, DetectorSet};
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"RFDM");
    put_u64(&mut out, 1); // fingerprint version
    put_u64(&mut out, n_samples);
    put_u64(&mut out, fs.to_bits());
    let kind = match cfg.kind {
        ArchKind::Naive => 0u8,
        ArchKind::NaiveEnergy => 1,
        ArchKind::RfDump(set) => {
            10 + match set {
                DetectorSet::Timing => 0u8,
                DetectorSet::Phase => 1,
                DetectorSet::TimingAndPhase => 2,
                DetectorSet::All => 3,
            }
        }
    };
    out.push(kind);
    out.push(cfg.demodulate as u8);
    out.push(cfg.zigbee as u8);
    out.push(cfg.microwave as u8);
    put_u64(&mut out, cfg.band.center_hz.to_bits());
    match cfg.noise_floor {
        Some(f) => {
            out.push(1);
            put_u64(&mut out, u64::from(f.to_bits()));
        }
        None => out.push(0),
    }
    put_u64(&mut out, cfg.piconets.len() as u64);
    for p in &cfg.piconets {
        put_u64(&mut out, u64::from(p.lap));
        out.push(p.uap);
    }
    match &cfg.governor {
        Some(g) => {
            out.push(1);
            out.push(g.force_level.map(|l| l + 1).unwrap_or(0));
        }
        None => out.push(0),
    }
    out
}

/// State a `--resume` run recovered from the journal directory.
#[derive(Debug, Default)]
pub(crate) struct RecoveredRun {
    /// Per-port record streams, exactly as the crashed run had durably
    /// emitted them (in port order, each in emission order).
    pub per_port: Vec<Vec<PacketRecord>>,
    /// Per-analyzer panic strike counts from the last checkpoint.
    pub strikes: Vec<u64>,
    /// Governor shed level from the last checkpoint.
    pub governor_level: u8,
}

impl RecoveredRun {
    /// The recovered records in the order the crashed run released them.
    /// Records are journaled in release order — start time, a dispatch's
    /// protocols in port order — but [`replay`] has to keep them per port
    /// (the `RESUME` truncation rule is per port), so the order is rebuilt
    /// here the way it is defined.
    pub(crate) fn into_release_order(self) -> Vec<PacketRecord> {
        let mut all: Vec<PacketRecord> = self.per_port.into_iter().flatten().collect();
        all.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        all
    }
}

/// Replays a recovered entry list into per-port record streams.
///
/// Returns `(per_port, base, meta_payload)`. Stops quietly at the first
/// structurally invalid entry (the CRC framing already passed, so this only
/// guards against version drift) — everything after it is treated like an
/// uncommitted tail.
fn replay(entries: &[Entry], n_ports: usize) -> (Vec<Vec<PacketRecord>>, u64, Option<Vec<u8>>) {
    let mut per_port: Vec<Vec<PacketRecord>> = vec![Vec::new(); n_ports];
    let mut meta = None;
    let mut base = 0u64;
    let mut cut = vec![0usize; n_ports];
    for e in entries {
        match e.kind {
            ENTRY_META => {
                if meta.is_none() {
                    meta = Some(e.payload.clone());
                }
            }
            ENTRY_RECORD => {
                let Some(port) = e.payload.get(..2) else {
                    break;
                };
                let port = u16::from_le_bytes(port.try_into().expect("2 bytes")) as usize;
                let Some(rec) = PacketRecord::decode(&e.payload[2..]) else {
                    break;
                };
                if port >= n_ports {
                    break;
                }
                per_port[port].push(rec);
            }
            ENTRY_COMMIT => {
                let mut pos = 0;
                let Some(c) = get_u64(&e.payload, &mut pos) else {
                    break;
                };
                base = c;
                for (i, lens) in cut.iter_mut().enumerate() {
                    *lens = per_port[i].len();
                }
            }
            ENTRY_RESUME => {
                let mut pos = 0;
                let Some(n) = get_u64(&e.payload, &mut pos) else {
                    break;
                };
                for port in per_port.iter_mut().take((n as usize).min(n_ports)) {
                    let Some(keep) = get_u64(&e.payload, &mut pos) else {
                        break;
                    };
                    port.truncate(keep as usize);
                }
            }
            _ => break,
        }
    }
    for (i, &c) in cut.iter().enumerate() {
        per_port[i].truncate(c);
    }
    (per_port, base, meta)
}

/// Validates `--resume` preconditions before the pipeline is built: the
/// journal, if it has any history, must carry a `META` fingerprint matching
/// this trace and configuration. An empty or absent journal is fine (the run
/// starts fresh); a mismatched one is an error the CLI surfaces cleanly
/// instead of silently re-analyzing the wrong trace.
pub fn preflight(dcfg: &DurabilityConfig, fingerprint: &[u8]) -> io::Result<()> {
    if !dcfg.resume {
        return Ok(());
    }
    let rec = recover(&dcfg.dir)?;
    match rec.entries.first() {
        None => Ok(()),
        Some(e) if e.kind == ENTRY_META && e.payload == fingerprint => Ok(()),
        Some(e) if e.kind == ENTRY_META => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal was written for a different trace or configuration \
             (fingerprint mismatch); re-run without --resume to start over",
        )),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal does not start with a META entry; re-run without --resume",
        )),
    }
}

/// Live journaling state threaded through the pipeline blocks.
///
/// All methods are infallible at the call site: the first IO error degrades
/// journaling (with one stderr warning) rather than failing the run — the
/// same graceful-degradation posture the rest of the pipeline takes.
#[derive(Debug)]
pub(crate) struct JournalState {
    writer: Mutex<JournalWriter>,
    checkpoint_path: PathBuf,
    /// Commit watermark recovered from the journal; dispatches below it are
    /// skipped and their records come from [`RecoveredRun::per_port`].
    base: u64,
    /// Highest dispatch `seq + 1` the detect stage has routed (including
    /// skipped ones), i.e. the end-of-run commit value.
    emitted: AtomicU64,
    /// Last commit value appended (or recovered).
    committed: AtomicU64,
    consumed_samples: AtomicU64,
    strikes: Vec<AtomicU64>,
    governor: Option<Arc<crate::governor::LoadGovernor>>,
    faults: Option<Arc<FaultPlan>>,
    degraded: AtomicBool,
    /// Event sink for [`EventKind::JournalDegrade`] / [`EventKind::Checkpoint`]
    /// (telemetry runs only).
    registry: Option<Arc<rfd_telemetry::Registry>>,
    commits_written: AtomicU64,
    checkpoints_written: AtomicU64,
    entries_replayed: u64,
    records_recovered: u64,
    resume_latency_us: u64,
    resumed: bool,
}

impl JournalState {
    /// Opens (or recovers) the journal for a run. Returns the shared state
    /// plus, on resume, the recovered record streams and supervision state.
    pub(crate) fn prepare(
        dcfg: &DurabilityConfig,
        fingerprint: &[u8],
        n_ports: usize,
        governor: Option<Arc<crate::governor::LoadGovernor>>,
        faults: Option<Arc<FaultPlan>>,
        registry: Option<Arc<rfd_telemetry::Registry>>,
    ) -> io::Result<(Arc<JournalState>, Option<RecoveredRun>)> {
        let t0 = Instant::now();
        let checkpoint_path = dcfg.dir.join(CHECKPOINT_FILE);
        let mut recovered_run = None;
        let mut entries_replayed = 0u64;
        let mut records_recovered = 0u64;
        let mut base = 0u64;
        let mut resumed = false;

        let writer = if dcfg.resume {
            let rec = recover(&dcfg.dir)?;
            if rec.entries.is_empty() {
                JournalWriter::create(&dcfg.dir)?
            } else {
                let (per_port, c, meta) = replay(&rec.entries, n_ports);
                if meta.as_deref() != Some(fingerprint) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "journal fingerprint mismatch",
                    ));
                }
                entries_replayed = rec.entries.len() as u64;
                records_recovered = per_port.iter().map(|p| p.len() as u64).sum();
                base = c;
                resumed = true;
                let mut w =
                    JournalWriter::resume(&dcfg.dir, rec.entries.len() as u64, rec.next_segment)?;
                // The resume boundary: later recoveries truncate back to the
                // record counts that survived this replay.
                let mut payload = Vec::with_capacity(8 + 8 * n_ports);
                put_u64(&mut payload, n_ports as u64);
                for p in &per_port {
                    put_u64(&mut payload, p.len() as u64);
                }
                w.append(ENTRY_RESUME, &payload)?;
                w.sync()?;

                // Supervision state rides the checkpoint; a missing or
                // corrupt checkpoint degrades to journal-only recovery.
                let mut strikes = Vec::new();
                let mut governor_level = 0u8;
                if let Some(ck) = read_checkpoint(&checkpoint_path)? {
                    if let Some(decoded) = decode_checkpoint(&ck) {
                        strikes = decoded.strikes;
                        governor_level = decoded.governor_level;
                    }
                }
                recovered_run = Some(RecoveredRun {
                    per_port,
                    strikes,
                    governor_level,
                });
                w
            }
        } else {
            JournalWriter::create(&dcfg.dir)?
        };

        let state = JournalState {
            writer: Mutex::new(writer),
            checkpoint_path,
            base,
            emitted: AtomicU64::new(base),
            committed: AtomicU64::new(base),
            consumed_samples: AtomicU64::new(0),
            strikes: (0..n_ports).map(|_| AtomicU64::new(0)).collect(),
            governor,
            faults,
            degraded: AtomicBool::new(false),
            registry,
            commits_written: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            entries_replayed,
            records_recovered,
            resume_latency_us: t0.elapsed().as_micros() as u64,
            resumed,
        };
        if !resumed {
            // Fresh journal: the fingerprint is entry 0.
            let mut w = state.writer.lock();
            w.append(ENTRY_META, fingerprint)?;
            w.sync()?;
        }
        if let Some(r) = &recovered_run {
            state.set_strikes(&r.strikes);
        }
        Ok((Arc::new(state), recovered_run))
    }

    /// The recovered commit watermark (0 on a fresh run).
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// True when the dispatch's records are already durable — the redo pass
    /// skips its analysis entirely.
    pub(crate) fn should_skip(&self, seq: u64) -> bool {
        seq < self.base
    }

    /// Notes that the detect stage has routed (or skipped) the dispatch with
    /// this `seq` — `seq + 1` is what [`finalize_run`](Self::finalize_run)
    /// commits once everything emitted is merged.
    pub(crate) fn note_emitted(&self, seq: u64) {
        self.emitted.fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// Notes consumed input (checkpointed as the sample offset).
    pub(crate) fn note_samples(&self, n: u64) {
        self.consumed_samples.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors the analyzers' strike counts into the checkpointed state.
    pub(crate) fn set_strikes(&self, strikes: &[u64]) {
        for (cell, &s) in self.strikes.iter().zip(strikes) {
            cell.store(s, Ordering::Relaxed);
        }
    }

    /// Appends one emitted record to the journal.
    pub(crate) fn journal_record(&self, port: usize, rec: &PacketRecord) {
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let encoded = rec.encode();
        let mut payload = Vec::with_capacity(2 + encoded.len());
        payload.extend_from_slice(&(port as u16).to_le_bytes());
        payload.extend_from_slice(&encoded);
        let mut w = self.writer.lock();
        if let Err(e) = w.append(ENTRY_RECORD, &payload) {
            self.degrade(&e);
        }
    }

    /// Commits the watermark: everything below `value` has been merged out
    /// of the reorderer and journaled.
    pub(crate) fn commit(&self, value: u64) {
        if self.degraded.load(Ordering::Relaxed) || value <= self.committed.load(Ordering::Relaxed)
        {
            return;
        }
        let mut payload = Vec::with_capacity(8);
        put_u64(&mut payload, value);
        let mut w = self.writer.lock();
        if let Some(plan) = &self.faults {
            if plan.decide("journal.commit") == Some(Action::Kill) {
                // Die mid-append: leave a torn tail on disk, exactly the
                // artifact recovery must tolerate.
                let _ = w.append_torn(ENTRY_COMMIT, &payload);
                let _ = w.sync();
                std::process::abort();
            }
        }
        if let Err(e) = w.append(ENTRY_COMMIT, &payload) {
            self.degrade(&e);
            return;
        }
        self.committed.store(value, Ordering::Relaxed);
        let commits = self.commits_written.fetch_add(1, Ordering::Relaxed) + 1;
        if commits.is_multiple_of(SYNC_EVERY_COMMITS) {
            if let Err(e) = w.sync() {
                self.degrade(&e);
                return;
            }
        }
        if commits.is_multiple_of(CHECKPOINT_EVERY_COMMITS) {
            let next_seq = w.next_seq();
            drop(w);
            self.write_checkpoint_now(next_seq);
        }
    }

    /// End of run: commit everything emitted, checkpoint, and fsync.
    pub(crate) fn finalize_run(&self) {
        self.commit(self.emitted.load(Ordering::Relaxed));
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let next_seq = {
            let mut w = self.writer.lock();
            if let Err(e) = w.sync() {
                self.degrade(&e);
                return;
            }
            w.next_seq()
        };
        self.write_checkpoint_now(next_seq);
    }

    fn write_checkpoint_now(&self, journal_entries: u64) {
        let payload = encode_checkpoint(&CheckpointData {
            consumed_samples: self.consumed_samples.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            journal_entries,
            governor_level: self.governor.as_ref().map(|g| g.level()).unwrap_or(0),
            strikes: self
                .strikes
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        });
        match write_checkpoint(&self.checkpoint_path, &payload) {
            Ok(()) => {
                let n = self.checkpoints_written.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(reg) = &self.registry {
                    reg.emit_event(
                        rfd_telemetry::event::EventKind::Checkpoint,
                        format!(
                            "checkpoint {n} at commit {}",
                            self.committed.load(Ordering::Relaxed)
                        ),
                    );
                }
            }
            Err(e) => self.degrade(&e),
        }
    }

    fn degrade(&self, err: &io::Error) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            let _ = writeln!(
                io::stderr(),
                "rfdump: journaling degraded (continuing without durability): {err}"
            );
            if let Some(reg) = &self.registry {
                reg.emit_event(
                    rfd_telemetry::event::EventKind::JournalDegrade,
                    format!("continuing without durability: {err}"),
                );
            }
        }
    }

    /// The run's recovery/durability report for stats.
    pub(crate) fn report(&self) -> RecoveryReport {
        RecoveryReport {
            resumed: self.resumed,
            entries_replayed: self.entries_replayed,
            records_recovered: self.records_recovered,
            commits_written: self.commits_written.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            resume_latency_us: self.resume_latency_us,
        }
    }
}

struct CheckpointData {
    consumed_samples: u64,
    committed: u64,
    journal_entries: u64,
    governor_level: u8,
    strikes: Vec<u64>,
}

fn encode_checkpoint(d: &CheckpointData) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + 8 * d.strikes.len());
    put_u64(&mut out, d.consumed_samples);
    put_u64(&mut out, d.committed);
    put_u64(&mut out, d.journal_entries);
    out.push(d.governor_level);
    let mut strikes = Vec::with_capacity(8 * d.strikes.len());
    for &s in &d.strikes {
        put_u64(&mut strikes, s);
    }
    put_bytes(&mut out, &strikes);
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Option<CheckpointData> {
    let mut pos = 0;
    let consumed_samples = get_u64(bytes, &mut pos)?;
    let committed = get_u64(bytes, &mut pos)?;
    let journal_entries = get_u64(bytes, &mut pos)?;
    let governor_level = *bytes.get(pos)?;
    pos += 1;
    let raw = get_bytes(bytes, &mut pos)?;
    if raw.len() % 8 != 0 {
        return None;
    }
    let strikes = raw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    Some(CheckpointData {
        consumed_samples,
        committed,
        journal_entries,
        governor_level,
        strikes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::PacketInfo;
    use rfd_journal::encode_entry;

    fn rec(start: f64) -> PacketRecord {
        PacketRecord {
            protocol: rfd_phy::Protocol::Microwave,
            start_us: start,
            end_us: start + 100.0,
            snr_db: 20.0,
            channel: None,
            info: PacketInfo::Microwave,
        }
    }

    fn record_entry(seq: u64, port: u16, r: &PacketRecord) -> Entry {
        let mut payload = port.to_le_bytes().to_vec();
        payload.extend_from_slice(&r.encode());
        let bytes = encode_entry(ENTRY_RECORD, seq, &payload);
        Entry {
            kind: ENTRY_RECORD,
            seq,
            payload: bytes[rfd_journal::ENTRY_HEADER_LEN..].to_vec(),
        }
    }

    fn commit_entry(seq: u64, c: u64) -> Entry {
        let mut payload = Vec::new();
        put_u64(&mut payload, c);
        Entry {
            kind: ENTRY_COMMIT,
            seq,
            payload,
        }
    }

    #[test]
    fn replay_keeps_only_committed_records() {
        let entries = vec![
            Entry {
                kind: ENTRY_META,
                seq: 0,
                payload: b"fp".to_vec(),
            },
            record_entry(1, 0, &rec(1.0)),
            record_entry(2, 1, &rec(2.0)),
            commit_entry(3, 2),
            record_entry(4, 0, &rec(3.0)), // uncommitted tail: discarded
        ];
        let (per_port, base, meta) = replay(&entries, 2);
        assert_eq!(base, 2);
        assert_eq!(meta.as_deref(), Some(&b"fp"[..]));
        assert_eq!(per_port[0], vec![rec(1.0)]);
        assert_eq!(per_port[1], vec![rec(2.0)]);
    }

    #[test]
    fn replay_resume_boundary_truncates_stale_tail() {
        // Incarnation 1 journaled a record past its last commit; incarnation
        // 2's RESUME entry marks it stale; its own records then count.
        let mut resume_payload = Vec::new();
        put_u64(&mut resume_payload, 2); // ports
        put_u64(&mut resume_payload, 1); // port 0 keeps 1
        put_u64(&mut resume_payload, 0); // port 1 keeps 0
        let entries = vec![
            Entry {
                kind: ENTRY_META,
                seq: 0,
                payload: b"fp".to_vec(),
            },
            record_entry(1, 0, &rec(1.0)),
            commit_entry(2, 1),
            record_entry(3, 1, &rec(2.0)), // stale: next incarnation redid it
            Entry {
                kind: ENTRY_RESUME,
                seq: 4,
                payload: resume_payload,
            },
            record_entry(5, 1, &rec(2.0)),
            commit_entry(6, 2),
        ];
        let (per_port, base, _) = replay(&entries, 2);
        assert_eq!(base, 2);
        assert_eq!(per_port[0], vec![rec(1.0)]);
        assert_eq!(
            per_port[1],
            vec![rec(2.0)],
            "exactly once despite the stale copy"
        );
    }

    #[test]
    fn replay_stops_at_undecodable_record() {
        let entries = vec![
            Entry {
                kind: ENTRY_META,
                seq: 0,
                payload: b"fp".to_vec(),
            },
            record_entry(1, 0, &rec(1.0)),
            commit_entry(2, 1),
            Entry {
                kind: ENTRY_RECORD,
                seq: 3,
                payload: vec![0, 0, 99], // garbage record body
            },
            commit_entry(4, 9),
        ];
        let (per_port, base, _) = replay(&entries, 1);
        assert_eq!(base, 1, "commit after the bad entry must not apply");
        assert_eq!(per_port[0].len(), 1);
    }

    #[test]
    fn checkpoint_payload_round_trips() {
        let d = CheckpointData {
            consumed_samples: 1_600_000,
            committed: 42,
            journal_entries: 99,
            governor_level: 2,
            strikes: vec![0, 3, 1],
        };
        let enc = encode_checkpoint(&d);
        let back = decode_checkpoint(&enc).unwrap();
        assert_eq!(back.consumed_samples, d.consumed_samples);
        assert_eq!(back.committed, d.committed);
        assert_eq!(back.journal_entries, d.journal_entries);
        assert_eq!(back.governor_level, d.governor_level);
        assert_eq!(back.strikes, d.strikes);
        assert!(decode_checkpoint(&enc[..10]).is_none());
    }

    #[test]
    fn last_checkpoint_holds_the_pushed_sample_count() {
        use crate::arch::{ArchConfig, Session};
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/wifi.rfdt");
        let (header, samples) = rfd_ether::trace::read_trace(std::path::Path::new(golden)).unwrap();
        let dir = std::env::temp_dir().join(format!("rfdump-ckpt-samples-{}", std::process::id()));
        let mut cfg = ArchConfig::rfdump(Vec::new());
        cfg.band = rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        };
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            resume: false,
        });
        let mut session = Session::open(&cfg, header.sample_rate, None, None);
        for piece in samples.chunks(5000) {
            session.push(piece);
        }
        session.finish();
        let payload = rfd_journal::read_checkpoint(&dir.join(CHECKPOINT_FILE))
            .unwrap()
            .expect("a journaled run ends with a checkpoint");
        let ckpt = decode_checkpoint(&payload).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(ckpt.consumed_samples, samples.len() as u64);
    }
}
