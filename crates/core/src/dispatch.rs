//! The dispatcher: collects detector votes per peak and forwards promising
//! peaks to the per-protocol analyzers (§2.2's "selectively forward only
//! those blocks of samples to the analysis phase").
//!
//! Because timing detectors classify peaks *retroactively* (a data frame is
//! only recognizable as 802.11 once its SIFS-spaced ACK appears), the
//! dispatcher holds each peak in a small pending window before finalizing
//! its classification. RFDump tolerates this latency by design — the paper's
//! monitoring requirement is throughput, not reaction time.

use crate::analyze::{detected_only_record, Analyzer};
use crate::chunk::PeakBlock;
use crate::detect::Classification;
use crate::governor::LoadGovernor;
use crate::records::PacketRecord;
use rfd_fault::{Action, FaultPlan};
use rfd_flowgraph::pool::{PoolStats, Reorderer, TaskPool};
use rfd_flowgraph::sync::Mutex;
use rfd_phy::Protocol;
use rfd_telemetry::event::EventKind;
use rfd_telemetry::{Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Analyzer panics tolerated before the analyzer is quarantined (its port
/// skipped for the rest of the run). Other protocols are unaffected.
pub const QUARANTINE_STRIKES: u64 = 3;

/// Dispatcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct DispatchConfig {
    /// Minimum vote confidence to forward a peak to a protocol's analyzer.
    pub confidence_threshold: f32,
    /// Peaks held pending retroactive votes before finalizing.
    pub hold_peaks: usize,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            confidence_threshold: 0.5,
            hold_peaks: 8,
        }
    }
}

/// One vote accepted for a peak.
#[derive(Debug, Clone, Copy)]
pub struct Vote {
    /// Protocol voted for.
    pub protocol: Protocol,
    /// Confidence.
    pub confidence: f32,
    /// Channel hint.
    pub channel: Option<u8>,
    /// Sample sub-range worth forwarding.
    pub range: Option<(u64, u64)>,
}

/// A finalized classification: the peak plus everything the analyzers need.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Monotonic dispatch index, assigned by the [`Dispatcher`] in emission
    /// order. Unclassified peaks never get one, so the sequence is dense over
    /// the dispatches that actually reach analysis — which is what lets a
    /// `--resume` run skip exactly the dispatches whose records the journal
    /// already holds.
    pub seq: u64,
    /// The peak and its samples.
    pub block: PeakBlock,
    /// Winning votes, one per protocol (the best vote for each protocol
    /// above threshold), sorted by descending confidence.
    pub votes: Vec<Vote>,
}

impl Dispatch {
    /// The best vote for a given protocol, if any.
    pub fn vote_for(&self, p: Protocol) -> Option<&Vote> {
        self.votes.iter().find(|v| v.protocol == p)
    }

    /// Samples forwarded for a protocol (honoring the vote's range).
    pub(crate) fn forwarded_samples(&self, p: Protocol) -> u64 {
        match self.vote_for(p) {
            None => 0,
            Some(v) => match v.range {
                Some((a, b)) => b.saturating_sub(a),
                None => self.block.peak.len(),
            },
        }
    }
}

/// Per-protocol forwarding statistics (drives the false-positive-rate and
/// selectivity numbers in Tables 3 and 4).
#[derive(Debug, Clone, Default)]
pub struct DispatchStats {
    /// Samples forwarded per protocol.
    pub forwarded_samples: BTreeMap<Protocol, u64>,
    /// Peaks forwarded per protocol.
    pub forwarded_peaks: BTreeMap<Protocol, u64>,
    /// Peaks that received no qualifying vote (dropped before analysis).
    pub unclassified_peaks: u64,
    /// Total peaks seen.
    pub total_peaks: u64,
}

struct PendingPeak {
    block: PeakBlock,
    votes: Vec<Classification>,
}

/// Registry handles mirroring [`DispatchStats`], pre-created so the hot
/// path touches only plain atomics.
struct DispatchTelemetry {
    total_peaks: Arc<Counter>,
    unclassified_peaks: Arc<Counter>,
    forwarded_peaks: BTreeMap<Protocol, Arc<Counter>>,
    forwarded_samples: BTreeMap<Protocol, Arc<Counter>>,
}

impl DispatchTelemetry {
    fn new(reg: &Registry) -> Self {
        let per_proto = |what: &str| {
            Protocol::ALL
                .iter()
                .map(|&p| (p, reg.counter(&format!("dispatch.{}.{what}", p.name()))))
                .collect()
        };
        Self {
            total_peaks: reg.counter("dispatch.total_peaks"),
            unclassified_peaks: reg.counter("dispatch.unclassified_peaks"),
            forwarded_peaks: per_proto("forwarded_peaks"),
            forwarded_samples: per_proto("forwarded_samples"),
        }
    }
}

/// The dispatcher.
pub struct Dispatcher {
    cfg: DispatchConfig,
    pending: std::collections::VecDeque<PendingPeak>,
    stats: DispatchStats,
    tel: Option<DispatchTelemetry>,
    next_seq: u64,
}

impl Dispatcher {
    /// Creates a dispatcher.
    pub fn new(cfg: DispatchConfig) -> Self {
        Self {
            cfg,
            pending: Default::default(),
            stats: Default::default(),
            tel: None,
            next_seq: 0,
        }
    }

    /// Creates a dispatcher that mirrors its statistics into `registry`
    /// (`dispatch.total_peaks`, `dispatch.<protocol>.forwarded_peaks`, …).
    pub fn with_telemetry(cfg: DispatchConfig, registry: &Registry) -> Self {
        let mut d = Self::new(cfg);
        d.tel = Some(DispatchTelemetry::new(registry));
        d
    }

    /// Offers a new peak together with the votes the detector bank produced
    /// when it saw the peak. Votes may reference *earlier* peaks still in
    /// the pending window. Returns any peaks whose classification is now
    /// final.
    pub fn on_peak(&mut self, block: PeakBlock, votes: Vec<Classification>) -> Vec<Dispatch> {
        self.stats.total_peaks += 1;
        if let Some(t) = &self.tel {
            t.total_peaks.inc();
        }
        self.pending.push_back(PendingPeak {
            block,
            votes: Vec::new(),
        });
        self.absorb_votes(votes);
        let mut out = Vec::new();
        while self.pending.len() > self.cfg.hold_peaks {
            let p = self.pending.pop_front().expect("nonempty");
            if let Some(d) = self.finalize(p) {
                out.push(d);
            }
        }
        out
    }

    /// Routes votes to the pending peaks they reference (votes for peaks
    /// already finalized are dropped — the hold window bounds latency).
    fn absorb_votes(&mut self, votes: Vec<Classification>) {
        for v in votes {
            if let Some(p) = self
                .pending
                .iter_mut()
                .find(|p| p.block.peak.id == v.peak_id)
            {
                p.votes.push(v);
            }
        }
    }

    /// Flushes all pending peaks at end of stream.
    pub fn finish(&mut self) -> Vec<Dispatch> {
        let mut out = Vec::new();
        while let Some(p) = self.pending.pop_front() {
            if let Some(d) = self.finalize(p) {
                out.push(d);
            }
        }
        out
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }

    fn finalize(&mut self, p: PendingPeak) -> Option<Dispatch> {
        // Best vote per protocol above threshold.
        let mut best: BTreeMap<Protocol, Vote> = BTreeMap::new();
        for c in &p.votes {
            if c.confidence < self.cfg.confidence_threshold {
                continue;
            }
            let vote = Vote {
                protocol: c.protocol,
                confidence: c.confidence,
                channel: c.channel,
                range: c.range,
            };
            best.entry(c.protocol)
                .and_modify(|b| {
                    if vote.confidence > b.confidence {
                        // Keep the channel hint if the stronger vote lacks
                        // one.
                        let channel = vote.channel.or(b.channel);
                        *b = Vote { channel, ..vote };
                    } else if b.channel.is_none() {
                        b.channel = vote.channel;
                    }
                })
                .or_insert(vote);
        }
        if best.is_empty() {
            self.stats.unclassified_peaks += 1;
            if let Some(t) = &self.tel {
                t.unclassified_peaks.inc();
            }
            return None;
        }
        let mut votes: Vec<Vote> = best.into_values().collect();
        votes.sort_by(|a, b| b.confidence.total_cmp(&a.confidence));
        let seq = self.next_seq;
        self.next_seq += 1;
        let d = Dispatch {
            seq,
            block: p.block,
            votes,
        };
        for v in &d.votes {
            let fwd = d.forwarded_samples(v.protocol);
            *self.stats.forwarded_samples.entry(v.protocol).or_default() += fwd;
            *self.stats.forwarded_peaks.entry(v.protocol).or_default() += 1;
            if let Some(t) = &self.tel {
                t.forwarded_samples[&v.protocol].add(fwd);
                t.forwarded_peaks[&v.protocol].inc();
            }
        }
        Some(d)
    }
}

// ---------------------------------------------------------------------------
// Pooled analysis
// ---------------------------------------------------------------------------

/// What one analyzer did, summed across every pool worker. Reported as a
/// pseudo-block in the stats table, one row per analyzer at any worker
/// count.
#[derive(Debug, Clone)]
pub(crate) struct AnalyzerTotals {
    /// Analyzer display name (e.g. `analyze:wifi-demod`).
    pub name: String,
    /// CPU time spent in `analyze` across all workers.
    pub cpu: Duration,
    /// Dispatches this analyzer consumed.
    pub items_in: u64,
    /// Records it produced.
    pub items_out: u64,
}

/// Everything [`AnalysisPool::finish`] returns.
#[derive(Debug)]
pub(crate) struct PooledAnalysis {
    /// Per-worker pool statistics (executed/busy/stall).
    pub pool: PoolStats,
    /// Per-analyzer totals, in analyzer (output-port) order.
    pub analyzers: Vec<AnalyzerTotals>,
    /// Analyzer panics caught by the per-analyzer supervisor.
    pub panics: u64,
    /// Analyzers quarantined after [`QUARANTINE_STRIKES`] panics, by name.
    pub quarantined: Vec<String>,
}

/// One pool task's output: the dispatch's ingest stamp (telemetry only —
/// threads the stage-latency clock through the pool without touching
/// [`PacketRecord`]) plus the `(port, record)` pairs it produced.
type PoolOutput = (Option<Instant>, Vec<(usize, PacketRecord)>);

/// The analysis stage: finalized [`Dispatch`]es fan out to a
/// [`TaskPool`] whose workers share one queue; each worker runs its own
/// private set of per-protocol analyzers, and results re-sequence through
/// a [`Reorderer`] so the record stream is byte-identical at any worker
/// count — including zero, where each task runs inline in `submit`.
///
/// Determinism rests on two facts: analyzers are pure per-dispatch (their
/// state is configuration only, so the same `Dispatch` yields the same
/// records on any worker), and each task emits `(port, record)` pairs in
/// analyzer (output-port) order. Re-sequencing by submission index
/// therefore reproduces the per-port record sequences exactly.
pub(crate) struct AnalysisPool {
    pool: TaskPool<Dispatch, PoolOutput>,
    reorder: Reorderer<PoolOutput>,
    totals: Arc<Mutex<Vec<AnalyzerTotals>>>,
    protocols: Vec<Protocol>,
    panics: Arc<AtomicU64>,
    strikes: Arc<Vec<AtomicU64>>,
    quarantined: Arc<Vec<AtomicBool>>,
    registry: Option<Arc<Registry>>,
    /// Pre-created `latency.merge_us` histogram (telemetry runs only).
    merge_hist: Option<Arc<Histogram>>,
    /// Pool restarts already reported as [`EventKind::WorkerRespawn`].
    reported_restarts: u64,
}

impl AnalysisPool {
    /// Telemetry prefix for pool metrics
    /// (`pool.analyze.worker<i>.{executed,stall_us}` and
    /// `pool.analyze.queue.depth`).
    pub(crate) const TELEMETRY_PREFIX: &'static str = "pool.analyze";

    /// Spawns `workers` threads; with `0`, tasks run on the submitting
    /// thread. `factory` builds one analyzer lineup per worker; it is also
    /// called once up front to learn the lineup's names and protocols. With
    /// `demodulate` off, tasks emit the dispatcher's tentative
    /// classification as [`detected_only_record`]s instead of demodulating.
    ///
    /// Each analyzer invocation runs under `catch_unwind`: a panicking
    /// analyzer loses only its own records for that dispatch, and after
    /// [`QUARANTINE_STRIKES`] panics the analyzer is quarantined (skipped)
    /// while every other protocol keeps running. `faults` threads chaos
    /// injection sites (site = the analyzer name, e.g. `analyze:wifi-demod`)
    /// through the hot loop; `governor` gates demodulation when the
    /// degradation ladder sheds it.
    pub fn new(
        workers: usize,
        factory: impl Fn() -> Vec<Box<dyn Analyzer>> + Send + Sync + 'static,
        demodulate: bool,
        registry: Option<Arc<Registry>>,
        faults: Option<Arc<FaultPlan>>,
        governor: Option<Arc<LoadGovernor>>,
    ) -> Self {
        let prototype = factory();
        let protocols: Vec<Protocol> = prototype.iter().map(|a| a.protocol()).collect();
        let totals = Arc::new(Mutex::new(
            prototype
                .iter()
                .map(|a| AnalyzerTotals {
                    name: a.name().to_string(),
                    cpu: Duration::ZERO,
                    items_in: 0,
                    items_out: 0,
                })
                .collect::<Vec<_>>(),
        ));
        let n_ports = prototype.len();
        drop(prototype);
        let panics = Arc::new(AtomicU64::new(0));
        let strikes: Arc<Vec<AtomicU64>> =
            Arc::new((0..n_ports).map(|_| AtomicU64::new(0)).collect());
        let quarantined: Arc<Vec<AtomicBool>> =
            Arc::new((0..n_ports).map(|_| AtomicBool::new(false)).collect());
        let task_totals = totals.clone();
        let task_registry = registry.clone();
        let task_panics = panics.clone();
        let task_strikes = strikes.clone();
        let task_quarantined = quarantined.clone();
        let make = move |_worker: usize| -> Box<dyn FnMut(Dispatch) -> PoolOutput + Send> {
            let mut analyzers = factory();
            let totals = task_totals.clone();
            let registry = task_registry.clone();
            let panics = task_panics.clone();
            let strikes = task_strikes.clone();
            let quarantined = task_quarantined.clone();
            let faults = faults.clone();
            let governor = governor.clone();
            // Per-protocol decode-latency histograms.
            let latency: Vec<Option<Arc<Histogram>>> = analyzers
                .iter()
                .map(|a| {
                    registry.as_ref().map(|r| {
                        r.histogram(
                            &format!("analyze.{}.latency_us", a.protocol().name()),
                            || Histogram::exponential(1.0, 1e6, 24),
                        )
                    })
                })
                .collect();
            let stage_analyze = registry
                .as_ref()
                .map(|r| crate::latency::stage_histogram(r, crate::latency::ANALYZE));
            Box::new(move |d: Dispatch| {
                let mut out = Vec::new();
                for (port, az) in analyzers.iter_mut().enumerate() {
                    let proto = az.protocol();
                    if d.vote_for(proto).is_none() {
                        continue;
                    }
                    if quarantined[port].load(Ordering::Relaxed) {
                        continue;
                    }
                    let demod_now = match (&governor, demodulate) {
                        (Some(g), true) => {
                            let ok = g.demod_allowed();
                            if !ok {
                                g.note_shed_demod();
                            }
                            ok
                        }
                        _ => demodulate,
                    };
                    if demod_now {
                        let t0 = Instant::now();
                        let recs = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(plan) = &faults {
                                match plan.decide(az.name()) {
                                    Some(Action::Panic) => {
                                        panic!("injected fault: {}", az.name())
                                    }
                                    Some(Action::Slow(dur)) => std::thread::sleep(dur),
                                    Some(Action::Spin(dur)) => rfd_fault::spin_for(dur),
                                    Some(Action::Kill) => std::process::abort(),
                                    _ => {}
                                }
                            }
                            az.analyze(&d)
                        }));
                        let dur = t0.elapsed();
                        let recs = match recs {
                            Ok(recs) => recs,
                            Err(_) => {
                                panics.fetch_add(1, Ordering::Relaxed);
                                let s = strikes[port].fetch_add(1, Ordering::Relaxed) + 1;
                                if let Some(reg) = &registry {
                                    reg.counter("analyze.panics").inc();
                                    if s == QUARANTINE_STRIKES {
                                        reg.counter(&format!(
                                            "analyze.{}.quarantined",
                                            proto.name()
                                        ))
                                        .inc();
                                        reg.tracer().record(az.name(), "quarantine", t0, dur);
                                        reg.emit_event(
                                            EventKind::Quarantine,
                                            format!("{} after {s} panics", az.name()),
                                        );
                                    }
                                }
                                if s >= QUARANTINE_STRIKES {
                                    quarantined[port].store(true, Ordering::Relaxed);
                                }
                                continue;
                            }
                        };
                        if let Some(reg) = &registry {
                            reg.tracer().record(az.name(), "analyze", t0, dur);
                        }
                        if let Some(h) = &latency[port] {
                            h.record(dur.as_secs_f64() * 1e6);
                        }
                        {
                            let mut t = totals.lock();
                            t[port].cpu += dur;
                            t[port].items_in += 1;
                            t[port].items_out += recs.len() as u64;
                        }
                        out.extend(recs.into_iter().map(|r| (port, r)));
                    } else {
                        // No demodulator runs, so its row books nothing.
                        out.push((port, detected_only_record(&d, proto)));
                    }
                }
                if let Some(h) = &stage_analyze {
                    crate::latency::record_since(h, d.block.ingest);
                }
                (d.block.ingest, out)
            })
        };
        let pool = match &registry {
            Some(reg) => TaskPool::with_telemetry(workers, make, reg, Self::TELEMETRY_PREFIX),
            None => TaskPool::new(workers, make),
        };
        let merge_hist = registry
            .as_ref()
            .map(|r| crate::latency::stage_histogram(r, crate::latency::MERGE));
        Self {
            pool,
            reorder: Reorderer::new(),
            totals,
            protocols,
            panics,
            strikes,
            quarantined,
            registry,
            merge_hist,
            reported_restarts: 0,
        }
    }

    /// The analyzer protocol on each output port, in port order.
    pub(crate) fn protocols(&self) -> &[Protocol] {
        &self.protocols
    }

    /// How many submitted dispatches have been merged back out in order —
    /// the pool's durable watermark. Everything below it has been emitted by
    /// [`drain_ordered`](Self::drain_ordered), so once those records are
    /// journaled the watermark is exactly what a checkpoint should record.
    pub(crate) fn merged_seq(&self) -> u64 {
        self.reorder.next_seq()
    }

    /// Current per-port panic strike counts, in port order (for checkpoints).
    pub(crate) fn strike_counts(&self) -> Vec<u64> {
        self.strikes
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// Seeds the per-analyzer supervision state from a recovery checkpoint:
    /// strike counts carry over and any analyzer at or past
    /// [`QUARANTINE_STRIKES`] resumes quarantined. Extra entries (a checkpoint
    /// from a run with more ports) are ignored.
    pub(crate) fn restore_supervision(&self, strikes: &[u64]) {
        for (port, &s) in strikes.iter().enumerate().take(self.strikes.len()) {
            self.strikes[port].store(s, Ordering::Relaxed);
            if s >= QUARANTINE_STRIKES {
                self.quarantined[port].store(true, Ordering::Relaxed);
            }
        }
    }

    /// Submits a finalized dispatch; blocks while the pool queue is full
    /// (backpressure toward the detection stage).
    pub fn submit(&mut self, d: Dispatch) {
        self.pool.submit(d);
        self.note_restarts();
    }

    /// Emits a [`EventKind::WorkerRespawn`] event for every pool restart
    /// not yet reported (respawns happen inside `submit`).
    fn note_restarts(&mut self) {
        let Some(reg) = &self.registry else { return };
        let now = self.pool.restarts();
        while self.reported_restarts < now {
            self.reported_restarts += 1;
            reg.emit_event(
                EventKind::WorkerRespawn,
                format!(
                    "analysis pool respawned a worker (restart {})",
                    self.reported_restarts
                ),
            );
        }
    }

    /// Collects completed results, re-sequenced into submission order.
    /// Results whose predecessors are still in flight stay buffered.
    ///
    /// Tasks that panicked past the per-analyzer supervisor (the pool's own
    /// `catch_unwind` net) are released as gaps so later records are never
    /// stuck behind a sequence number that will not arrive.
    pub(crate) fn drain_ordered(&mut self) -> Vec<(usize, PacketRecord, Option<Instant>)> {
        for (seq, recs) in self.pool.try_drain() {
            self.reorder.push(seq, recs);
        }
        for seq in self.pool.take_panicked() {
            self.reorder.release(seq);
        }
        let mut out = Vec::new();
        while let Some((ingest, recs)) = self.reorder.pop_ready() {
            if let Some(h) = &self.merge_hist {
                crate::latency::record_since(h, ingest);
            }
            out.extend(recs.into_iter().map(|(port, r)| (port, r, ingest)));
        }
        out
    }

    /// Joins the workers and returns the remaining in-order records plus
    /// the pool and per-analyzer statistics.
    ///
    /// # Panics
    /// Panics if any submitted dispatch failed to produce a result (a
    /// worker lost work — which the pool's tests prove cannot happen).
    pub fn finish(mut self) -> (Vec<(usize, PacketRecord, Option<Instant>)>, PooledAnalysis) {
        let submitted = self.pool.submitted();
        for seq in self.pool.take_panicked() {
            self.reorder.release(seq);
        }
        let (rest, pool_stats) = self.pool.finish();
        for (seq, recs) in rest {
            self.reorder.push(seq, recs);
        }
        for &seq in &pool_stats.lost {
            self.reorder.release(seq);
        }
        let mut out = Vec::new();
        while let Some((ingest, recs)) = self.reorder.pop_ready() {
            if let Some(h) = &self.merge_hist {
                crate::latency::record_since(h, ingest);
            }
            out.extend(recs.into_iter().map(|(port, r)| (port, r, ingest)));
        }
        assert_eq!(
            self.reorder.next_seq(),
            submitted,
            "analysis pool lost results: {} of {submitted} emitted \
             ({} released as panicked)",
            self.reorder.next_seq(),
            self.reorder.released_count()
        );
        let analyzers = self.totals.lock().clone();
        let quarantined = analyzers
            .iter()
            .zip(self.quarantined.iter())
            .filter(|(_, q)| q.load(Ordering::Relaxed))
            .map(|(a, _)| a.name.clone())
            .collect();
        (
            out,
            PooledAnalysis {
                pool: pool_stats,
                analyzers,
                panics: self.panics.load(Ordering::Relaxed),
                quarantined,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Peak;
    use std::sync::Arc;

    fn pb(id: u64, len: u64) -> PeakBlock {
        PeakBlock {
            peak: Peak {
                id,
                start: id * 10_000,
                end: id * 10_000 + len,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(vec![]),
            sample_start: id * 10_000,
            sample_rate: 8e6,
            ingest: None,
        }
    }

    fn vote(peak_id: u64, protocol: Protocol, confidence: f32) -> Classification {
        Classification {
            peak_id,
            protocol,
            confidence,
            channel: None,
            range: None,
        }
    }

    #[test]
    fn classified_peak_is_dispatched_on_eviction() {
        let mut d = Dispatcher::new(DispatchConfig {
            hold_peaks: 2,
            ..Default::default()
        });
        assert!(d
            .on_peak(pb(0, 100), vec![vote(0, Protocol::Wifi, 0.9)])
            .is_empty());
        assert!(d.on_peak(pb(1, 100), vec![]).is_empty());
        let out = d.on_peak(pb(2, 100), vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].block.peak.id, 0);
        assert_eq!(out[0].votes[0].protocol, Protocol::Wifi);
    }

    #[test]
    fn retroactive_votes_reach_pending_peaks() {
        let mut d = Dispatcher::new(DispatchConfig {
            hold_peaks: 4,
            ..Default::default()
        });
        d.on_peak(pb(0, 500), vec![]);
        // Peak 1 arrives and the SIFS detector votes for both 0 and 1.
        d.on_peak(
            pb(1, 100),
            vec![vote(0, Protocol::Wifi, 0.9), vote(1, Protocol::Wifi, 0.9)],
        );
        let out = d.finish();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|x| x.vote_for(Protocol::Wifi).is_some()));
    }

    #[test]
    fn unclassified_peaks_are_dropped_and_counted() {
        let mut d = Dispatcher::new(DispatchConfig::default());
        d.on_peak(pb(0, 100), vec![]);
        d.on_peak(pb(1, 100), vec![vote(1, Protocol::Bluetooth, 0.8)]);
        let out = d.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(d.stats().unclassified_peaks, 1);
        assert_eq!(d.stats().total_peaks, 2);
    }

    #[test]
    fn low_confidence_votes_do_not_qualify() {
        let mut d = Dispatcher::new(DispatchConfig {
            confidence_threshold: 0.5,
            hold_peaks: 1,
        });
        d.on_peak(pb(0, 100), vec![vote(0, Protocol::Zigbee, 0.3)]);
        let out = d.finish();
        assert!(out.is_empty());
    }

    #[test]
    fn multi_protocol_votes_forward_to_both() {
        let mut d = Dispatcher::new(DispatchConfig::default());
        d.on_peak(
            pb(0, 200),
            vec![
                vote(0, Protocol::Wifi, 0.6),
                vote(0, Protocol::Bluetooth, 0.7),
            ],
        );
        let out = d.finish();
        assert_eq!(out[0].votes.len(), 2);
        // Sorted by confidence.
        assert_eq!(out[0].votes[0].protocol, Protocol::Bluetooth);
        assert_eq!(d.stats().forwarded_peaks[&Protocol::Wifi], 1);
        assert_eq!(d.stats().forwarded_peaks[&Protocol::Bluetooth], 1);
    }

    #[test]
    fn range_limits_forwarded_samples() {
        let mut d = Dispatcher::new(DispatchConfig::default());
        let block = pb(0, 1000);
        let start = block.peak.start;
        d.on_peak(
            block,
            vec![Classification {
                peak_id: 0,
                protocol: Protocol::Wifi,
                confidence: 0.9,
                channel: None,
                range: Some((start, start + 250)),
            }],
        );
        let out = d.finish();
        assert_eq!(out[0].forwarded_samples(Protocol::Wifi), 250);
        assert_eq!(d.stats().forwarded_samples[&Protocol::Wifi], 250);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let reg = rfd_telemetry::Registry::new();
        let mut d = Dispatcher::with_telemetry(DispatchConfig::default(), &reg);
        d.on_peak(pb(0, 100), vec![]);
        d.on_peak(pb(1, 100), vec![vote(1, Protocol::Bluetooth, 0.8)]);
        d.finish();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dispatch.total_peaks"], d.stats().total_peaks);
        assert_eq!(
            snap.counters["dispatch.unclassified_peaks"],
            d.stats().unclassified_peaks
        );
        assert_eq!(
            snap.counters["dispatch.bluetooth.forwarded_peaks"],
            d.stats().forwarded_peaks[&Protocol::Bluetooth]
        );
        assert_eq!(
            snap.counters["dispatch.bluetooth.forwarded_samples"],
            d.stats().forwarded_samples[&Protocol::Bluetooth]
        );
    }

    #[test]
    fn channel_hint_survives_vote_merging() {
        let mut d = Dispatcher::new(DispatchConfig::default());
        let mut v1 = vote(0, Protocol::Bluetooth, 0.6);
        v1.channel = Some(37);
        let v2 = vote(0, Protocol::Bluetooth, 0.9); // stronger but no hint
        d.on_peak(pb(0, 100), vec![v1, v2]);
        let out = d.finish();
        let v = out[0].vote_for(Protocol::Bluetooth).unwrap();
        assert_eq!(v.confidence, 0.9);
        assert_eq!(
            v.channel,
            Some(37),
            "hint from the weaker vote must survive"
        );
    }

    fn pool_dispatch(id: u64, protocol: Protocol) -> Dispatch {
        Dispatch {
            seq: id,
            block: PeakBlock {
                peak: Peak {
                    id,
                    start: id * 1_000,
                    end: id * 1_000 + 200,
                    mean_power: 1.0,
                    noise_floor: 1e-4,
                },
                samples: Arc::new(
                    (0..200)
                        .map(|i| rfd_dsp::Complex32::cis((id as f32 + 1.0) * i as f32 * 0.3))
                        .collect(),
                ),
                sample_start: id * 1_000,
                sample_rate: 8e6,
                ingest: None,
            },
            votes: vec![super::Vote {
                protocol,
                confidence: 0.9,
                channel: None,
                range: None,
            }],
        }
    }

    fn analyzer_lineup() -> Vec<Box<dyn Analyzer>> {
        vec![
            Box::new(crate::analyze::WifiAnalyzer),
            Box::new(crate::analyze::MicrowaveAnalyzer),
        ]
    }

    #[test]
    fn analysis_pool_matches_sequential_at_any_worker_count() {
        let protos = [Protocol::Wifi, Protocol::Microwave];
        let dispatches: Vec<Dispatch> = (0..40)
            .map(|i| pool_dispatch(i, protos[i as usize % 2]))
            .collect();
        // Sequential reference: each analyzer in port order per dispatch.
        let mut reference = Vec::new();
        let mut seq_az = analyzer_lineup();
        for d in &dispatches {
            for (port, az) in seq_az.iter_mut().enumerate() {
                if d.vote_for(az.protocol()).is_some() {
                    reference.extend(az.analyze(d).into_iter().map(|r| (port, r)));
                }
            }
        }
        for workers in [1, 2, 4] {
            let mut pool = AnalysisPool::new(workers, analyzer_lineup, true, None, None, None);
            assert_eq!(pool.protocols(), &protos[..]);
            let mut got = Vec::new();
            for d in &dispatches {
                pool.submit(d.clone());
                got.extend(pool.drain_ordered());
            }
            let (rest, result) = pool.finish();
            got.extend(rest);
            let got: Vec<_> = got.into_iter().map(|(p, r, _)| (p, r)).collect();
            assert_eq!(got, reference, "workers={workers}");
            assert_eq!(result.pool.executed(), dispatches.len() as u64);
            let total_in: u64 = result.analyzers.iter().map(|a| a.items_in).sum();
            assert_eq!(total_in, dispatches.len() as u64);
        }
    }

    #[test]
    fn analysis_pool_detection_only_emits_tentative_records() {
        let d = pool_dispatch(0, Protocol::Microwave);
        let mut pool = AnalysisPool::new(2, analyzer_lineup, false, None, None, None);
        pool.submit(d.clone());
        let (recs, result) = pool.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, 1, "microwave is port 1");
        assert_eq!(recs[0].1, detected_only_record(&d, Protocol::Microwave));
        assert_eq!(result.analyzers[1].items_out, 0);
        assert_eq!(result.analyzers[0].items_out, 0);
    }

    #[test]
    fn panicking_analyzer_is_quarantined_and_others_are_untouched() {
        // Every wifi dispatch panics inside the analyzer; microwave must be
        // byte-identical to a fault-free run.
        let protos = [Protocol::Wifi, Protocol::Microwave];
        let dispatches: Vec<Dispatch> = (0..20)
            .map(|i| pool_dispatch(i, protos[i as usize % 2]))
            .collect();
        let mut reference = Vec::new();
        let mut seq_az = analyzer_lineup();
        for d in &dispatches {
            if d.vote_for(Protocol::Microwave).is_some() {
                reference.extend(seq_az[1].analyze(d).into_iter().map(|r| (1usize, r)));
            }
        }
        let plan = Arc::new(rfd_fault::FaultPlan::parse("panic=analyze:wifi").unwrap());
        for workers in [1, 3] {
            let mut pool = AnalysisPool::new(
                workers,
                analyzer_lineup,
                true,
                None,
                Some(plan.clone()),
                None,
            );
            let mut got = Vec::new();
            for d in &dispatches {
                pool.submit(d.clone());
                got.extend(pool.drain_ordered());
            }
            let (rest, result) = pool.finish();
            got.extend(rest);
            let got: Vec<_> = got.into_iter().map(|(p, r, _)| (p, r)).collect();
            assert_eq!(got, reference, "workers={workers}");
            assert_eq!(
                result.quarantined,
                vec!["analyze:wifi-demod".to_string()],
                "workers={workers}"
            );
            // At least the strike budget panicked; dispatches already in
            // flight on other workers when the flag was set may add a few,
            // but quarantine must stop the rest (10 wifi dispatches total).
            assert!(
                result.panics >= QUARANTINE_STRIKES && result.panics < 10,
                "panics={} (workers={workers})",
                result.panics
            );
            // The pool-level supervisor never saw a panic: the per-analyzer
            // net caught them all, so no dispatch was lost.
            assert_eq!(result.pool.panics, 0, "workers={workers}");
        }
    }

    #[test]
    fn governor_shedding_demod_yields_detection_only_records() {
        let g = Arc::new(crate::governor::LoadGovernor::new(
            crate::governor::GovernorConfig {
                force_level: Some(1),
                ..Default::default()
            },
        ));
        let d = pool_dispatch(0, Protocol::Microwave);
        let mut pool = AnalysisPool::new(2, analyzer_lineup, true, None, None, Some(g.clone()));
        pool.submit(d.clone());
        let (recs, result) = pool.finish();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, detected_only_record(&d, Protocol::Microwave));
        assert_eq!(result.analyzers[1].cpu, Duration::ZERO, "no demod ran");
        assert_eq!(g.report().shed_demod, 1);
    }
}
