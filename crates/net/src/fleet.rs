//! The ingest server: one readiness loop, N concurrent capture senders, one
//! merged record stream.
//!
//! ```text
//!  sender "roof"  ──TCP──▶ ┐                        ┌─▶ pipeline("roof")  ─┐
//!  sender "lab-3" ──TCP──▶ ├─ readiness loop ──────▶├─▶ pipeline("lab-3") ─┼─▶ RecordHub
//!  sender (no id) ──TCP──▶ ┘  (one thread,          └─▶ pipeline("")      ─┘
//!                             nonblocking sockets)
//!  subscriber ◀──TCP── per-sub bounded queue ◀──────────────────────────────────┘
//! ```
//!
//! This is the only server in the crate: `rfdump serve` with one plain
//! `send` is a fleet of one anonymous source.
//!
//! * **One readiness loop** owns every producer socket. Sockets are
//!   nonblocking; the loop polls them round-robin (the same std-only
//!   poll-style the obs scrape endpoint uses — no epoll dependency), so a
//!   hundred senders cost one thread, not a hundred. It only reads (into
//!   each connection's frame decoder), checks and queues: a sample chunk
//!   is queued as its CRC-checked wire bytes. A sweep with no progress
//!   parks the loop for at most `POLL`; an analysis thread popping a chunk
//!   or finishing wakes it sooner.
//! * **Two handshakes, one state machine.** After `Hello(Producer)` a
//!   sender either names itself ([`Frame::SourceHello`]: a *tagged* source,
//!   bound to a stable id) or opens with a bare [`Frame::StreamMeta`] (an
//!   *anonymous* source, known only by the join ordinal its first Ack
//!   carries as the session id). Ids are unique for the life of the server
//!   — a second claim on a live or parked id is treated as the same sensor
//!   reconnecting (resume), while a completed or evicted id is refused. An
//!   anonymous sender reconnects with [`Frame::Resume`] naming its ordinal
//!   and goes through the same reattach rule. Everything after admission —
//!   queue, backpressure, acks, park → resume → expiry, health, shedding —
//!   is the same code for both; they differ only in where their records are
//!   published (below) and in that an anonymous source, having no id to
//!   protect from reuse, leaves the server's tables (and mints no
//!   per-source metric family) once its records are out.
//! * **Per-source sharding**: every source gets its own bounded
//!   [`ChunkQueue`] and its own [`Pipeline`] instance from the injected
//!   factory (called with the id, or `""` for an anonymous source), drained
//!   by its own analysis thread, which widens each chunk to samples. Sources
//!   never contend on a pipeline lock, and one source's backlog cannot delay
//!   another's analysis.
//! * **Per-source backpressure**: a full queue stops the loop from reading
//!   that source's socket (TCP pushes back to the sender) and sends a
//!   Throttle advisory on the saturation rising edge — other sockets keep
//!   being serviced.
//! * **Fan-out by tag**: a tagged source's records enter the [`RecordHub`]
//!   as [`HubMsg::SourceMeta`] / [`HubMsg::SourceRecord`] /
//!   [`HubMsg::SourceBye`] so subscribers (and `rfdump watch --source`) can
//!   filter per source; an anonymous session's enter bare, as
//!   [`HubMsg::Meta`] / [`HubMsg::Record`], and end with the
//!   [`HubMsg::Stats`] document.
//!
//! # Per-source resume
//!
//! A producer that dies without a clean Bye does not lose its session.
//! The source is *parked* for [`FleetConfig::resume_grace`]: its ingest
//! queue stays open and its analysis thread keeps blocking on the queue. A
//! sender that reconnects and re-handshakes — the same source id in a
//! [`Frame::SourceHello`], or its session ordinal in a [`Frame::Resume`] —
//! is reattached: the server answers with an [`Frame::Ack`] carrying the
//! contiguous ingest high-water mark, the client seeks to that position,
//! and any overlap it resends is deduped by the same contiguity accounting
//! an uninterrupted session uses. The per-source record stream is therefore
//! byte-identical to a run that never dropped. Ack positions are truthful:
//! the high-water mark only advances when a chunk is actually committed to
//! the source queue, so a chunk parked by backpressure is never covered by
//! an ack it could lose.
//!
//! A reconnect that lands *before* the loop notices the old socket died is
//! a takeover: every attach bumps the source's epoch, and a connection
//! whose epoch is stale is dropped without touching the source ("newest
//! connection wins" — deterministic, no grace-timing races).
//!
//! # Source health
//!
//! Every source carries a four-state health machine driven by its own
//! misbehavior, so one bad sensor degrades *itself* and not the fleet:
//!
//! ```text
//!   healthy ──flap_score ≥ FLAP_THRESHOLD (3)──▶ flapping
//!      ▲                                        │
//!      └──score damps ≤ threshold/2 (progress)──┘
//!   flapping ──flap_score ≥ QUARANTINE_FLAPS (8)──▶ quarantined
//!   any      ──decode errors ≥ quarantine_errors──▶ quarantined
//!   quarantined ──rejects ≥ EVICT_REJECTS (5)──▶ evicted
//!   parked   ──resume grace expires──▶ evicted
//! ```
//!
//! The upper-case thresholds are constants; only `quarantine_errors` is a
//! [`FleetConfig`] field. Disconnects raise a per-source flap score;
//! sustained progress (each ack boundary) damps it, and the flapping →
//! healthy transition waits for the score to fall to half the threshold
//! (hysteresis, no state thrash).
//! Quarantine finalizes the stream immediately — the samples that arrived
//! are analyzed and published, the id refuses further claims — and enough
//! refused reconnect attempts evict the id outright. Transitions emit
//! typed events (`source_flapping` / `source_quarantined` /
//! `source_evicted` / `source_resumed`) and `net.fleet.*` counters.
//!
//! # Overload admission control (bounded-latency mode)
//!
//! With [`FleetConfig::latency_budget`] set, every source also carries a
//! *deadline* histogram: per-chunk queue wait (committed → popped by the
//! analysis thread) plus, per record, the time from the start of the push
//! that released it to its publication — what analysing one chunk cost,
//! not a whole session. A periodic
//! sweep in the readiness loop diffs each histogram through a
//! [`HistogramWindow`] and compares the windowed p99 against the budget,
//! walking a per-source shed ladder ([`rfd_telemetry::ladder`], the type
//! the in-process governor walks too):
//!
//! ```text
//!   none ──p99 over budget (2 sweeps)──▶ throttle ──again──▶ drop-oldest
//!     ▲                                     │                    │
//!     └────────── p99 < 0.8 × budget for 4 sweeps ◀──────────────┘
//! ```
//!
//! Only the *worst* offender escalates per sweep, so a fleet-wide stall
//! sheds the source that is actually blowing the budget first. The rungs:
//! **throttle** repeats Throttle advisories to the sender each violating
//! sweep (beyond the saturation rising edge); **drop-oldest** forcibly
//! discards the oldest queued chunk when that source's queue is full, even
//! under the lossless Block policy — the shed source trades fidelity for
//! latency while every unshed source stays byte-identical. While any
//! source is over budget the fleet refuses admission to *new* source ids
//! (`admission_refused` events; resumes of known sources are still
//! honored). Shedding never escalates the health machine — a slow source
//! is not a misbehaving source.
//!
//! # Chaos sites
//!
//! Fault plans can target the fleet plane directly: `net.fleet.accept`
//! (drop or delay incoming connections), `net.fleet.source.<id>`
//! (disconnect / corrupt / slow one source's read path), and
//! `net.fleet.analysis.<id>` (slow/cpu-starve one source's consumer per
//! popped chunk — the overload knob for bounded-latency chaos tests), in
//! addition to `net.server.read`, which applies to every producer socket.
//! An anonymous source's `<id>` is `#` and its session ordinal.
//!
//! Determinism: each source's chunks are pushed, contiguous and in order,
//! into a private pipeline session exactly like an offline run of that
//! trace alone, and what each push releases is published at once — meta
//! first, records in offline order, the end marker last — by the one thread
//! that owns the session, so nothing reorders *within* a source. A filtered
//! subscriber — or the only subscriber of a lone anonymous session —
//! therefore sees a record stream byte-identical to `rfdump -r trace` at
//! any worker count, and sees it while the sender is still sending. Merge
//! order *between* sources is arrival order and intentionally unspecified
//! (two anonymous sessions at once interleave their bare records).

use crate::frame::{Decoded, Frame, FrameDecoder, RecordMsg, Role, StreamMeta};
use crate::hub::{HubMsg, RecordHub, Subscription};
use crate::queue::{ChunkQueue, OverflowPolicy, TryPushError};
use crate::server::{serve_subscriber, NetStats, NetStatsSnapshot, Pipeline, SubscriberCtx};
use rfd_dsp::kernels;
use rfd_fault::{Action, FaultPlan};
use rfd_telemetry::ladder::{Hysteresis, Rung, Window};
use rfd_telemetry::{Counter, Gauge, Histogram, HistogramWindow, Registry};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Builds one fresh [`Pipeline`] per source. The source id is passed so
/// factories can shard side effects (e.g. one journal directory per
/// source); an anonymous source passes `""`.
pub type PipelineFactory = Box<dyn Fn(&str) -> Box<dyn Pipeline> + Send + Sync>;

/// Send a producer an Ack every this many ingested chunks.
const ACK_EVERY: u64 = 16;

/// Longest park between readiness sweeps when no socket made progress: an
/// analysis thread's event ends it sooner, a socket's data cannot (std has
/// no portable wait on a set of sockets).
const POLL: Duration = Duration::from_millis(1);

/// Cadence of the bounded-latency deadline sweep (budget runs only).
const LATENCY_SWEEP: Duration = Duration::from_millis(50);

/// The shed ladder's hysteresis: consecutive violating sweeps to escalate
/// a source one rung, consecutive clean sweeps to relax it one rung, and
/// the fraction of the budget a clean sweep stays under (the dead zone up
/// to the budget holds state). Low water is 0.8 here against the
/// governor's 0.7 because undoing an ingest-side rung adds no analysis
/// cost to the p99 it was read from.
const SHED_VIOLATE_STREAK: u32 = 2;
const SHED_RESTORE_STREAK: u32 = 4;
const SHED_LOW_WATER: f64 = 0.8;

/// Shed ladder rungs (per source, `SourceShared::shed`).
const SHED_NONE: u8 = 0;
const SHED_THROTTLE: u8 = 1;
const SHED_DROP: u8 = 2;

/// The rungs as their stats-json / event strings, indexed by rung.
const SHED_NAMES: [&str; 3] = ["none", "throttle", "drop-oldest"];

/// Source health thresholds (see the state diagram in the module docs).
/// A source's flap score gains one per disconnect and loses one per ack
/// boundary of progress; at `FLAP_THRESHOLD` it is flapping, at
/// `QUARANTINE_FLAPS` quarantined. A quarantined source is evicted after
/// `EVICT_REJECTS` refused reconnect attempts.
const FLAP_THRESHOLD: u64 = 3;
const QUARANTINE_FLAPS: u64 = 8;
const EVICT_REJECTS: u64 = 5;

/// Fleet server knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-source ingest queue capacity, in sample chunks.
    pub queue_cap: usize,
    /// What a full per-source queue does to its sender.
    pub overflow: OverflowPolicy,
    /// Per-subscriber record queue capacity (slow-consumer eviction bound).
    pub sub_queue_cap: usize,
    /// Shut down cleanly after this many sources complete (bounded runs:
    /// tests, CI, benchmarks). `None` runs until [`FleetHandle::shutdown`].
    pub expect: Option<u64>,
    /// A producer socket silent for this long is evicted (its source is
    /// parked for `resume_grace` like any other disconnect).
    pub idle_timeout: Duration,
    /// How long a dropped source stays parked awaiting a reconnect before
    /// it is evicted and finalized. Zero disables per-source resume (a
    /// dropped sender finalizes immediately).
    pub resume_grace: Duration,
    /// Attributed decode errors at which a source is quarantined.
    pub quarantine_errors: u64,
    /// Fault-injection plan for chaos testing (`net.server.read`,
    /// `net.fleet.accept`, `net.fleet.source.<id>` sites).
    pub faults: Option<Arc<FaultPlan>>,
    /// Bounded-latency mode: per-source deadline budget. When set, the
    /// deadline sweep sheds sources whose windowed p99 (queue wait +
    /// push → publish lag) exceeds this budget and refuses admission
    /// to new sources while the fleet is over budget. `None` (the
    /// default) disables overload control entirely.
    pub latency_budget: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            queue_cap: 64,
            overflow: OverflowPolicy::Block,
            sub_queue_cap: 4096,
            expect: None,
            idle_timeout: Duration::from_secs(30),
            resume_grace: Duration::from_secs(5),
            quarantine_errors: 3,
            faults: None,
            latency_budget: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Source health
// ---------------------------------------------------------------------------

/// The per-source health state machine. States only escalate (except the
/// damped flapping → healthy recovery); see the module docs for the
/// transition diagram.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceHealth {
    /// Streaming normally.
    Healthy = 0,
    /// Disconnecting faster than it makes progress.
    Flapping = 1,
    /// Misbehaving enough to be cut off: the stream is finalized with the
    /// samples that arrived and reconnects are refused.
    Quarantined = 2,
    /// Gone for good: resume grace expired or a quarantined id kept
    /// hammering the server.
    Evicted = 3,
}

impl SourceHealth {
    /// The state as its stats-json / event string.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceHealth::Healthy => "healthy",
            SourceHealth::Flapping => "flapping",
            SourceHealth::Quarantined => "quarantined",
            SourceHealth::Evicted => "evicted",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => SourceHealth::Healthy,
            1 => SourceHealth::Flapping,
            2 => SourceHealth::Quarantined,
            _ => SourceHealth::Evicted,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-source state and statistics
// ---------------------------------------------------------------------------

/// One source's shared state: written by the readiness loop (ingest side)
/// and its analysis thread (publish side), read by stats snapshots.
struct SourceShared {
    /// Key in the server's tables and display name: the wire id of a tagged
    /// source, `#<session>` for an anonymous one — `#` is outside the wire
    /// id alphabet, so no sensor can collide with or claim it.
    name: Arc<str>,
    /// Whether the source named itself with a `SourceHello`. Decides which
    /// message family its records are published in and whether its row
    /// outlives it; nothing between admission and publication reads this.
    tagged: bool,
    meta: StreamMeta,
    /// Ingest queue of CRC-checked wire bodies (little-endian i16 I/Q
    /// pairs), widened by the analysis thread. Items carry their commit
    /// instant so the analysis thread can record queue wait into the
    /// deadline histogram.
    queue: ChunkQueue<(Instant, Vec<u8>)>,
    /// Join ordinal, echoed as the Ack session id so a resuming sender can
    /// tell its session survived.
    session: u64,
    /// Attach generation. Bumped on every (re)attach; a connection whose
    /// recorded epoch is stale has been superseded and must not finalize
    /// or park the source.
    epoch: AtomicU64,
    chunks_in: AtomicU64,
    samples_in: AtomicU64,
    chunks_duplicate: AtomicU64,
    sample_gaps: AtomicU64,
    throttles: AtomicU64,
    records: AtomicU64,
    /// Contiguous ingest high-water mark (next expected sample index).
    /// Advances only when a chunk is committed to the queue, so acks are
    /// truthful under backpressure.
    expected: AtomicU64,
    /// Ingest wall time, µs (first chunk to stream close).
    ingest_wall_us: AtomicU64,
    done: AtomicBool,
    /// Queue closed; the stream can no longer be resumed.
    finalized: AtomicBool,
    /// Health state machine inputs and state.
    health: AtomicU8,
    disconnects: AtomicU64,
    resumes: AtomicU64,
    flap_score: AtomicU64,
    flaps: AtomicU64,
    decode_errors: AtomicU64,
    rejects: AtomicU64,
    /// Cached chaos site name (`net.fleet.source.<id>`).
    chaos_site: String,
    /// Per-record publish duration, µs — the source's fan-out latency.
    fanout: Histogram,
    /// Deadline samples, µs: per-chunk queue wait plus per-record
    /// push → publish lag. The overload sweep reads this through
    /// `sweep`; recorded unconditionally (it is two `Instant`
    /// reads per chunk) so snapshots are populated even without a budget.
    deadline: Histogram,
    /// The overload sweep's windowed view over `deadline` and its shed
    /// streaks (sweep thread only).
    sweep: Mutex<(HistogramWindow, Hysteresis)>,
    /// Last windowed deadline p99 the sweep saw, µs (f64 bits).
    deadline_p99_bits: AtomicU64,
    /// Current shed rung (`SHED_NONE` / `SHED_THROTTLE` / `SHED_DROP`).
    shed: Rung,
    /// Set by the sweep when a Throttle advisory is owed; the ingest path
    /// consumes it so the frame rides the source's own connection.
    shed_throttle_pending: AtomicBool,
    /// `net.fleet.source.<id>.queue_depth` when a registry is attached.
    queue_gauge: Option<Arc<Gauge>>,
    samples_ctr: Option<Arc<Counter>>,
    records_ctr: Option<Arc<Counter>>,
}

impl SourceShared {
    fn health(&self) -> SourceHealth {
        SourceHealth::from_u8(self.health.load(Ordering::SeqCst))
    }
}

/// Point-in-time statistics for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSnapshot {
    /// The stable source id (`#<session>` for an anonymous source).
    pub source: String,
    /// Sample chunks ingested.
    pub chunks_in: u64,
    /// Complex samples ingested.
    pub samples_in: u64,
    /// Chunks skipped as duplicates of already-ingested samples.
    pub chunks_duplicate: u64,
    /// Samples missing from the contiguous stream.
    pub sample_gaps: u64,
    /// Chunks discarded by the drop-oldest overflow policy.
    pub chunks_dropped: u64,
    /// Throttle advisories sent to this source's sender.
    pub throttles: u64,
    /// Records published for this source.
    pub records: u64,
    /// Signal time ingested, µs.
    pub ingest_signal_us: u64,
    /// Wall time spent ingesting, µs.
    pub ingest_wall_us: u64,
    /// Record publish (fan-out) latency samples.
    pub fanout_count: u64,
    /// Fan-out latency p50, µs.
    pub fanout_p50_us: f64,
    /// Fan-out latency p99, µs.
    pub fanout_p99_us: f64,
    /// Deadline samples recorded (queue waits + publish lags).
    pub deadline_count: u64,
    /// Last windowed deadline p99 the overload sweep saw, µs (0 before
    /// the first sweep or without a budget).
    pub deadline_p99_us: f64,
    /// Current shed rung (`"none"` / `"throttle"` / `"drop-oldest"`).
    pub shed: String,
    /// Health state.
    pub health: SourceHealth,
    /// Connection losses without a clean Bye.
    pub disconnects: u64,
    /// Successful session resumes after a disconnect.
    pub resumes: u64,
    /// Healthy → flapping transitions.
    pub flaps: u64,
    /// Malformed frames attributed to this source.
    pub decode_errors: u64,
    /// Reconnect attempts refused (quarantined/evicted/completed id).
    pub rejects: u64,
    /// Whether the source's stream has ended and been analyzed.
    pub done: bool,
}

impl SourceSnapshot {
    fn of(s: &SourceShared) -> Self {
        Self {
            source: s.name.to_string(),
            chunks_in: s.chunks_in.load(Ordering::Relaxed),
            samples_in: s.samples_in.load(Ordering::Relaxed),
            chunks_duplicate: s.chunks_duplicate.load(Ordering::Relaxed),
            sample_gaps: s.sample_gaps.load(Ordering::Relaxed),
            chunks_dropped: s.queue.dropped(),
            throttles: s.throttles.load(Ordering::Relaxed),
            records: s.records.load(Ordering::Relaxed),
            ingest_signal_us: (s.expected.load(Ordering::Relaxed) as f64 / s.meta.sample_rate * 1e6)
                as u64,
            ingest_wall_us: s.ingest_wall_us.load(Ordering::Relaxed),
            fanout_count: s.fanout.count(),
            fanout_p50_us: s.fanout.quantile(0.5),
            fanout_p99_us: s.fanout.quantile(0.99),
            deadline_count: s.deadline.count(),
            deadline_p99_us: f64::from_bits(s.deadline_p99_bits.load(Ordering::Relaxed)),
            shed: SHED_NAMES[usize::from(s.shed.level())].to_string(),
            health: s.health(),
            disconnects: s.disconnects.load(Ordering::Relaxed),
            resumes: s.resumes.load(Ordering::Relaxed),
            flaps: s.flaps.load(Ordering::Relaxed),
            decode_errors: s.decode_errors.load(Ordering::Relaxed),
            rejects: s.rejects.load(Ordering::Relaxed),
            done: s.done.load(Ordering::Relaxed),
        }
    }

    /// The snapshot as a JSON object (one entry of the stats-json v9
    /// `fleet.per_source` map).
    pub fn to_json(&self) -> rfd_telemetry::json::JsonValue {
        use rfd_telemetry::json::JsonValue as J;
        let n = |v: u64| J::num(v as f64);
        J::obj(vec![
            ("chunks_in", n(self.chunks_in)),
            ("samples_in", n(self.samples_in)),
            ("chunks_duplicate", n(self.chunks_duplicate)),
            ("sample_gaps", n(self.sample_gaps)),
            ("chunks_dropped", n(self.chunks_dropped)),
            ("throttles", n(self.throttles)),
            ("records", n(self.records)),
            ("ingest_signal_us", n(self.ingest_signal_us)),
            ("ingest_wall_us", n(self.ingest_wall_us)),
            ("fanout_count", n(self.fanout_count)),
            ("fanout_p50_us", J::num(self.fanout_p50_us)),
            ("fanout_p99_us", J::num(self.fanout_p99_us)),
            ("deadline_count", n(self.deadline_count)),
            ("deadline_p99_us", J::num(self.deadline_p99_us)),
            ("shed", J::str(&self.shed)),
            ("health", J::str(self.health.as_str())),
            ("disconnects", n(self.disconnects)),
            ("resumes", n(self.resumes)),
            ("flaps", n(self.flaps)),
            ("decode_errors", n(self.decode_errors)),
            ("rejects", n(self.rejects)),
            ("done", J::Bool(self.done)),
        ])
    }
}

/// Point-in-time fleet statistics: the wire-level rollup plus one
/// [`SourceSnapshot`] per source, sorted by source id.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Wire-level statistics (the stats-json `net` section).
    pub net: NetStatsSnapshot,
    /// Sources that completed their handshake.
    pub sources_joined: u64,
    /// Sources whose stream ended and whose records are published.
    pub sources_done: u64,
    /// Connections refused for a bad, completed or quarantined source
    /// handshake.
    pub rejects: u64,
    /// Successful per-source session resumes.
    pub resumes: u64,
    /// Sources currently parked awaiting a reconnect.
    pub sources_parked: u64,
    /// Parked sources whose resume grace expired (evicted + finalized).
    pub sources_expired: u64,
    /// Sources currently in the flapping state. This and the two counts
    /// below are taken over `per_source`, so an anonymous source leaves
    /// them with its row (`sources_expired` and the `net` rollup keep it).
    pub flapping: u64,
    /// Sources quarantined (quarantine is terminal short of eviction).
    pub quarantined: u64,
    /// Sources evicted.
    pub evicted: u64,
    /// Bounded-latency overload control counters (`None` without a
    /// [`FleetConfig::latency_budget`]).
    pub latency: Option<FleetLatencySnapshot>,
    /// Per-source statistics, sorted by source id: every tagged source the
    /// server has seen, and each anonymous one (as `#<session>`) until its
    /// records are published.
    pub per_source: Vec<SourceSnapshot>,
}

/// Fleet-level bounded-latency counters (the stats-json
/// `latency_mode.fleet` sub-object).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLatencySnapshot {
    /// The configured deadline budget, µs.
    pub budget_us: f64,
    /// Sweeps that found at least one source over budget.
    pub violations: u64,
    /// Throttle advisories sent by the shed ladder (rung 1).
    pub shed_throttle: u64,
    /// Chunks force-dropped by the shed ladder (rung 2).
    pub shed_drop: u64,
    /// New-source admissions refused while the fleet was over budget.
    pub admission_refused: u64,
    /// Whether admission of new sources is currently paused.
    pub admission_paused: bool,
}

impl FleetLatencySnapshot {
    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> rfd_telemetry::json::JsonValue {
        use rfd_telemetry::json::JsonValue as J;
        let n = |v: u64| J::num(v as f64);
        J::obj(vec![
            ("budget_us", J::num(self.budget_us)),
            ("violations", n(self.violations)),
            ("shed_throttle", n(self.shed_throttle)),
            ("shed_drop", n(self.shed_drop)),
            ("admission_refused", n(self.admission_refused)),
            ("admission_paused", J::Bool(self.admission_paused)),
        ])
    }
}

impl FleetSnapshot {
    /// The snapshot as a JSON object (the stats-json `fleet` section).
    /// `per_source` keys are sorted, so renderings are stable.
    pub fn to_json(&self) -> rfd_telemetry::json::JsonValue {
        use rfd_telemetry::json::JsonValue as J;
        let n = |v: u64| J::num(v as f64);
        let per: Vec<(String, J)> = self
            .per_source
            .iter()
            .map(|s| (s.source.clone(), s.to_json()))
            .collect();
        J::obj(vec![
            ("sources_joined", n(self.sources_joined)),
            ("sources_done", n(self.sources_done)),
            ("rejects", n(self.rejects)),
            ("resumes", n(self.resumes)),
            ("sources_parked", n(self.sources_parked)),
            ("sources_expired", n(self.sources_expired)),
            ("flapping", n(self.flapping)),
            ("quarantined", n(self.quarantined)),
            ("evicted", n(self.evicted)),
            (
                "latency",
                match &self.latency {
                    None => J::Null,
                    Some(l) => l.to_json(),
                },
            ),
            ("per_source", J::Obj(per)),
        ])
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// How analysis threads wake the readiness loop when it parks with nothing
/// to do. Each popped chunk (room in a queue a pending chunk may wait on)
/// and each finished source is an event: it bumps `events`, and a thread
/// that then finds the loop `parked` notifies it under `lock`. The loop
/// raises `parked` under the lock and re-reads `events` before it waits, so
/// no event falls between its check and its wait.
#[derive(Default)]
struct Wake {
    events: AtomicU64,
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Wake {
    /// Events so far; what [`park`](Self::park) compares against.
    fn seen(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Books an event, waking the loop if it is parked.
    fn notify(&self) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_one();
        }
    }

    /// Waits up to `timeout` for an event, unless one came after `seen`.
    fn park(&self, seen: u64, timeout: Duration) {
        let held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.parked.store(true, Ordering::SeqCst);
        if self.events.load(Ordering::SeqCst) == seen {
            drop(self.cv.wait_timeout(held, timeout));
        } else {
            drop(held);
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

struct FleetInner {
    cfg: FleetConfig,
    /// Parks the readiness loop between empty sweeps.
    wake: Wake,
    hub: RecordHub,
    stats: NetStats,
    factory: PipelineFactory,
    shutdown: AtomicBool,
    sources_joined: AtomicU64,
    sources_done: AtomicU64,
    rejects: AtomicU64,
    expired: AtomicU64,
    sources: Mutex<BTreeMap<Arc<str>, Arc<SourceShared>>>,
    /// Sources awaiting a reconnect, with their eviction deadline.
    parked: Mutex<BTreeMap<Arc<str>, Instant>>,
    registry: Option<Arc<Registry>>,
    /// `latency.net_fanout_us`: duration of one record publish call, all
    /// sources together. Same bucket layout as the core stage histograms,
    /// constructed locally because rfd-net sits below the analysis stack.
    fanout_hist: Option<Arc<Histogram>>,
    active_gauge: Option<Arc<Gauge>>,
    parked_gauge: Option<Arc<Gauge>>,
    resumes_ctr: Option<Arc<Counter>>,
    flap_ctr: Option<Arc<Counter>>,
    quarantine_ctr: Option<Arc<Counter>>,
    evict_ctr: Option<Arc<Counter>>,
    evictions_reported: AtomicU64,
    /// Bounded-latency sweep state (budget runs only).
    last_sweep: Mutex<Instant>,
    budget_violations: AtomicU64,
    shed_throttle: AtomicU64,
    shed_drop: AtomicU64,
    admission_refused: AtomicU64,
    admission_paused: AtomicBool,
    shed_throttle_ctr: Option<Arc<Counter>>,
    shed_drop_ctr: Option<Arc<Counter>>,
    admission_refused_ctr: Option<Arc<Counter>>,
    admission_paused_gauge: Option<Arc<Gauge>>,
}

impl FleetInner {
    fn emit(&self, kind: rfd_telemetry::event::EventKind, detail: String) {
        if let Some(r) = &self.registry {
            r.emit_event(kind, detail);
        }
    }

    /// Emits one SlowConsumerEvicted event per eviction the hub has booked
    /// since the last check (the hub only keeps a counter).
    fn note_evictions(&self) {
        if self.registry.is_none() {
            return;
        }
        let total = self.hub.evicted();
        let mut seen = self.evictions_reported.load(Ordering::Relaxed);
        while seen < total {
            match self.evictions_reported.compare_exchange(
                seen,
                seen + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.emit(
                        rfd_telemetry::event::EventKind::SlowConsumerEvicted,
                        format!("subscriber queue full (eviction #{})", seen + 1),
                    );
                    seen += 1;
                }
                Err(now) => seen = now,
            }
        }
    }

    fn snapshot(&self) -> FleetSnapshot {
        let per_source: Vec<SourceSnapshot> = {
            let map = self.sources.lock().unwrap_or_else(|e| e.into_inner());
            map.values().map(|s| SourceSnapshot::of(s)).collect()
        };
        let parked = {
            let map = self.parked.lock().unwrap_or_else(|e| e.into_inner());
            map.len() as u64
        };
        let count = |h: SourceHealth| per_source.iter().filter(|s| s.health == h).count() as u64;
        let net = self.stats.snapshot(self.hub.evicted());
        FleetSnapshot {
            sources_joined: self.sources_joined.load(Ordering::Relaxed),
            sources_done: self.sources_done.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            // From the rollup, not the rows: an anonymous source's row
            // leaves with it.
            resumes: net.resumes,
            sources_parked: parked,
            sources_expired: self.expired.load(Ordering::Relaxed),
            flapping: count(SourceHealth::Flapping),
            quarantined: count(SourceHealth::Quarantined),
            evicted: count(SourceHealth::Evicted),
            latency: self.cfg.latency_budget.map(|b| FleetLatencySnapshot {
                budget_us: b.as_secs_f64() * 1e6,
                violations: self.budget_violations.load(Ordering::Relaxed),
                shed_throttle: self.shed_throttle.load(Ordering::Relaxed),
                shed_drop: self.shed_drop.load(Ordering::Relaxed),
                admission_refused: self.admission_refused.load(Ordering::Relaxed),
                admission_paused: self.admission_paused.load(Ordering::SeqCst),
            }),
            net,
            per_source,
        }
    }
}

/// Cloneable handle for stopping a running fleet server and reading its
/// statistics.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<FleetInner>,
}

impl FleetHandle {
    /// Asks the server to stop. In-flight and parked sources are finalized
    /// with the samples that arrived; subscribers get a final Bye after the
    /// last record is published.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake.notify();
    }

    /// Current fleet statistics.
    pub fn stats(&self) -> FleetSnapshot {
        self.inner.snapshot()
    }
}

/// The ingest server. Bind, then [`FleetServer::run`].
pub struct FleetServer {
    listener: TcpListener,
    inner: Arc<FleetInner>,
}

/// One producer connection's place in the handshake.
enum ConnState {
    /// Nothing received yet; first frame must be a Hello.
    Await,
    /// Hello(Producer) received; next comes a SourceHello, a StreamMeta or
    /// (an anonymous sender reconnecting) a Resume.
    Producer,
    /// Streaming samples for a registered source.
    Streaming(Arc<SourceShared>),
}

/// What servicing a connection decided.
enum Verdict {
    Keep,
    /// Close the connection (source, if any, already parked or finalized).
    Drop,
    /// The connection declared the subscriber role and was handed off to a
    /// blocking subscriber thread.
    Subscriber(std::thread::JoinHandle<()>),
}

/// A decoded, dedup-adjusted chunk the source queue had no room for. The
/// commit bookkeeping (high-water mark, ack) is deferred with it so a chunk
/// lost with its connection is never covered by an ack.
struct PendingChunk {
    /// Sample index one past the chunk's last sample (the new high-water
    /// mark once committed).
    end: u64,
    /// Samples missing before this chunk (booked on commit).
    gap: u64,
    /// The samples not yet ingested, in wire form: 4 bytes a sample.
    body: Vec<u8>,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Unsent outbound bytes (acks, throttles), flushed as the socket
    /// accepts them — the loop never blocks on a slow reverse path.
    out: Vec<u8>,
    out_seq: u32,
    state: ConnState,
    /// The source epoch this connection attached at; stale ⇒ superseded.
    epoch: u64,
    last_rx: Instant,
    /// A decoded chunk the source queue had no room for; retried before
    /// any further reads from this socket (per-source backpressure).
    pending: Option<PendingChunk>,
    saturated: bool,
    chunks_since_ack: u64,
    expect_seq: Option<u32>,
    ingest_t0: Option<Instant>,
    /// Bye processed: flush `out`, then close.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_seq: 0,
            state: ConnState::Await,
            epoch: 0,
            last_rx: Instant::now(),
            pending: None,
            saturated: false,
            chunks_since_ack: 0,
            expect_seq: None,
            ingest_t0: None,
            closing: false,
        }
    }

    /// Queues a frame on the outbox (flushed opportunistically).
    fn queue_frame(&mut self, stats: &NetStats, frame: &Frame) {
        let before = self.out.len();
        crate::frame::encode_frame_into(frame, self.out_seq, &mut self.out);
        self.out_seq = self.out_seq.wrapping_add(1);
        stats.frames_out.add(1);
        stats.bytes_out.add((self.out.len() - before) as u64);
    }
}

impl FleetServer {
    /// Binds `addr` and prepares the fleet server around `factory` (one
    /// pipeline instance per source).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        cfg: FleetConfig,
        factory: PipelineFactory,
        registry: Option<Arc<Registry>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let fanout_hist = registry.as_ref().map(|r| {
            r.histogram("latency.net_fanout_us", || {
                Histogram::exponential(1.0, 1e7, 28)
            })
        });
        let active_gauge = registry
            .as_ref()
            .map(|r| r.gauge("net.fleet.active_sources"));
        let parked_gauge = registry
            .as_ref()
            .map(|r| r.gauge("net.fleet.parked_sources"));
        let resumes_ctr = registry.as_ref().map(|r| r.counter("net.fleet.resumes"));
        let flap_ctr = registry.as_ref().map(|r| r.counter("net.fleet.flapping"));
        let quarantine_ctr = registry
            .as_ref()
            .map(|r| r.counter("net.fleet.quarantined"));
        let evict_ctr = registry.as_ref().map(|r| r.counter("net.fleet.evicted"));
        let shed_throttle_ctr = registry
            .as_ref()
            .map(|r| r.counter("net.fleet.shed_throttle"));
        let shed_drop_ctr = registry.as_ref().map(|r| r.counter("net.fleet.shed_drop"));
        let admission_refused_ctr = registry
            .as_ref()
            .map(|r| r.counter("net.fleet.admission_refused"));
        let admission_paused_gauge = registry
            .as_ref()
            .map(|r| r.gauge("net.fleet.admission_paused"));
        let inner = Arc::new(FleetInner {
            hub: RecordHub::new(cfg.sub_queue_cap),
            stats: NetStats::new(registry.as_deref()),
            cfg,
            wake: Wake::default(),
            factory,
            shutdown: AtomicBool::new(false),
            sources_joined: AtomicU64::new(0),
            sources_done: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            sources: Mutex::new(BTreeMap::new()),
            parked: Mutex::new(BTreeMap::new()),
            registry,
            fanout_hist,
            active_gauge,
            parked_gauge,
            resumes_ctr,
            flap_ctr,
            quarantine_ctr,
            evict_ctr,
            evictions_reported: AtomicU64::new(0),
            last_sweep: Mutex::new(Instant::now()),
            budget_violations: AtomicU64::new(0),
            shed_throttle: AtomicU64::new(0),
            shed_drop: AtomicU64::new(0),
            admission_refused: AtomicU64::new(0),
            admission_paused: AtomicBool::new(false),
            shed_throttle_ctr,
            shed_drop_ctr,
            admission_refused_ctr,
            admission_paused_gauge,
        });
        Ok(Self { listener, inner })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and stats from other threads.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            inner: self.inner.clone(),
        }
    }

    /// An in-process subscription to the merged stream.
    pub fn subscribe(&self) -> Subscription {
        self.inner.hub.subscribe()
    }

    /// An in-process subscription filtered to one source.
    pub fn subscribe_filtered(&self, source: &str) -> Subscription {
        self.inner.hub.subscribe_filtered(source)
    }

    /// Runs the readiness loop until shutdown (or until
    /// [`FleetConfig::expect`] sources complete). Returns the final
    /// statistics.
    pub fn run(self) -> io::Result<FleetSnapshot> {
        self.listener.set_nonblocking(true)?;
        let inner = &self.inner;
        let mut conns: Vec<Conn> = Vec::new();
        let mut sub_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut analysis_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut bye_published = false;

        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut progressed = false;
            let seen = inner.wake.seen();

            // Accept every connection ready right now.
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Some(plan) = &inner.cfg.faults {
                            match plan.decide("net.fleet.accept") {
                                Some(Action::Disconnect) | Some(Action::Io) => {
                                    // Count, then slam the door: the sender
                                    // sees a connection reset and retries.
                                    inner.stats.connections.add(1);
                                    drop(stream);
                                    progressed = true;
                                    continue;
                                }
                                Some(Action::Slow(d)) => std::thread::sleep(d),
                                Some(Action::Spin(d)) => rfd_fault::spin_for(d),
                                _ => {}
                            }
                        }
                        inner.stats.connections.add(1);
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        conns.push(Conn::new(stream));
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }

            // Service each producer socket round-robin.
            let mut i = 0;
            while i < conns.len() {
                match service_conn(inner, &mut conns[i], &mut analysis_threads, &mut progressed) {
                    Verdict::Keep => i += 1,
                    Verdict::Drop => {
                        let c = conns.swap_remove(i);
                        release_conn(inner, c);
                        progressed = true;
                    }
                    Verdict::Subscriber(t) => {
                        conns.swap_remove(i);
                        sub_threads.push(t);
                        progressed = true;
                    }
                }
            }
            sub_threads.retain(|t| !t.is_finished());
            analysis_threads.retain(|t| !t.is_finished());

            // Evict parked sources whose resume grace expired.
            sweep_parked(inner);

            // Bounded-latency mode: walk the shed ladder from the latest
            // deadline windows.
            latency_sweep(inner, false);

            // Bounded runs: once the expected number of sources has
            // completed (their records are already in subscriber queues),
            // publish the global Bye *before* raising shutdown so every
            // subscriber drains records first, then Bye — fully
            // deterministic teardown.
            if let Some(expect) = inner.cfg.expect {
                if inner.sources_done.load(Ordering::SeqCst) >= expect {
                    inner.note_evictions();
                    inner.hub.publish(HubMsg::Bye);
                    bye_published = true;
                    inner.shutdown.store(true, Ordering::SeqCst);
                }
            }

            if !progressed {
                inner.wake.park(seen, POLL);
            }
        }

        // Teardown: finalize whatever is still streaming or parked, wait
        // for every analysis thread to publish, then release the
        // subscribers.
        for c in conns {
            release_conn(inner, c);
        }
        let parked: Vec<Arc<str>> = {
            let mut map = inner.parked.lock().unwrap_or_else(|e| e.into_inner());
            let names: Vec<Arc<str>> = map.keys().cloned().collect();
            map.clear();
            names
        };
        if let Some(g) = &inner.parked_gauge {
            g.set(0);
        }
        for name in parked {
            let src = {
                let map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
                map.get(&name).cloned()
            };
            if let Some(src) = src {
                finalize_source(inner, &src);
            }
        }
        for t in analysis_threads {
            let _ = t.join();
        }
        // One forced sweep after every analysis thread published, so
        // violations recorded since the last periodic one (e.g. a
        // chaos-slowed pipeline's publish lag) still reach the counters
        // and event log.
        latency_sweep(inner, true);
        inner.note_evictions();
        if !bye_published {
            inner.hub.publish(HubMsg::Bye);
        }
        for t in sub_threads {
            let _ = t.join();
        }
        Ok(inner.snapshot())
    }
}

/// Closes a dying connection. A streaming source is parked for the resume
/// grace (finalized when the grace is zero, the server is shutting down, or
/// the source's health rules it out). A connection superseded by a newer
/// attach (stale epoch) releases nothing.
fn release_conn(inner: &Arc<FleetInner>, mut c: Conn) {
    // Best-effort flush of queued acks so a clean Bye ends with its final
    // Ack delivered.
    let _ = c.stream.write_all(&c.out);
    if let ConnState::Streaming(src) = &c.state {
        if c.epoch != src.epoch.load(Ordering::SeqCst) {
            return; // Superseded: the newer connection owns the source.
        }
        if let Some(t0) = c.ingest_t0 {
            src.ingest_wall_us
                .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        if src.done.load(Ordering::SeqCst) || src.finalized.load(Ordering::SeqCst) {
            return;
        }
        if inner.cfg.resume_grace.is_zero() || inner.shutdown.load(Ordering::SeqCst) {
            finalize_source(inner, src);
        } else {
            park_source(inner, src);
        }
    }
}

/// Parks a dropped source awaiting a reconnect, feeding the disconnect into
/// its health machine first — a source the disconnect quarantines is
/// finalized instead of parked.
fn park_source(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) {
    health_on_disconnect(inner, src);
    if src.health() >= SourceHealth::Quarantined {
        finalize_source(inner, src);
        return;
    }
    inner.stats.sessions_parked.add(1);
    let deadline = Instant::now() + inner.cfg.resume_grace;
    let mut map = inner.parked.lock().unwrap_or_else(|e| e.into_inner());
    map.insert(src.name.clone(), deadline);
    if let Some(g) = &inner.parked_gauge {
        g.set(map.len() as i64);
    }
}

/// Evicts parked sources whose resume grace expired.
fn sweep_parked(inner: &Arc<FleetInner>) {
    let now = Instant::now();
    let expired: Vec<Arc<str>> = {
        let mut map = inner.parked.lock().unwrap_or_else(|e| e.into_inner());
        let names: Vec<Arc<str>> = map
            .iter()
            .filter(|(_, deadline)| now >= **deadline)
            .map(|(name, _)| name.clone())
            .collect();
        for name in &names {
            map.remove(name);
        }
        if !names.is_empty() {
            if let Some(g) = &inner.parked_gauge {
                g.set(map.len() as i64);
            }
        }
        names
    };
    for name in expired {
        inner.stats.sessions_expired.add(1);
        inner.expired.fetch_add(1, Ordering::Relaxed);
        let src = {
            let map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
            map.get(&name).cloned()
        };
        if let Some(src) = src {
            raise_health(inner, &src, SourceHealth::Evicted, "resume grace expired");
            finalize_source(inner, &src);
        }
    }
}

/// The bounded-latency overload sweep: diff every live source's deadline
/// histogram, escalate the worst offender's shed rung on sustained budget
/// violations, relax rungs on sustained recovery, and pause admission of
/// new sources while any source is over budget. No-op without a budget;
/// rate-limited to [`LATENCY_SWEEP`] unless `forced` (the end-of-run
/// sweep, which must not miss violations recorded after the last tick).
fn latency_sweep(inner: &Arc<FleetInner>, forced: bool) {
    use rfd_telemetry::event::EventKind;
    let Some(budget) = inner.cfg.latency_budget else {
        return;
    };
    {
        let mut last = inner.last_sweep.lock().unwrap_or_else(|e| e.into_inner());
        if !forced && last.elapsed() < LATENCY_SWEEP {
            return;
        }
        *last = Instant::now();
    }
    let budget_us = budget.as_secs_f64() * 1e6;
    let sources: Vec<Arc<SourceShared>> = {
        let map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
        map.values().cloned().collect()
    };
    let shed_event = |src: &SourceShared, (from, to): (u8, u8), p99: f64| {
        let names = (SHED_NAMES[usize::from(from)], SHED_NAMES[usize::from(to)]);
        let detail = format!(
            "source {} shed {} -> {} (deadline p99 {p99:.0}us, budget {budget_us:.0}us)",
            src.name, names.0, names.1
        );
        inner.emit(EventKind::SourceShed, detail);
    };
    let mut worst: Option<(Arc<SourceShared>, f64)> = None;
    let mut any_over = false;
    for src in &sources {
        // Quarantined/evicted sources are already cut off; shedding them
        // would double-punish and skew the admission signal.
        if src.health() >= SourceHealth::Quarantined {
            continue;
        }
        let (snap, window) = {
            let mut sweep = src.sweep.lock().unwrap_or_else(|e| e.into_inner());
            let (win, streaks) = &mut *sweep;
            let snap = win.advance(&src.deadline);
            if snap.count == 0 {
                continue; // An empty window is no signal, not a clean one.
            }
            (snap, streaks.observe(snap.p99, budget_us))
        };
        src.deadline_p99_bits
            .store(snap.p99.to_bits(), Ordering::Relaxed);
        match window {
            Window::Over(due) => {
                any_over = true;
                inner.budget_violations.fetch_add(1, Ordering::Relaxed);
                let (name, p99) = (&src.name, snap.p99);
                let detail =
                    format!("source {name} deadline p99 {p99:.0}us over budget {budget_us:.0}us");
                inner.emit(EventKind::BudgetViolated, detail);
                // A throttled source gets a fresh advisory every violating
                // sweep, not just on the rung transition.
                let rung = src.shed.level();
                if rung >= SHED_THROTTLE {
                    src.shed_throttle_pending.store(true, Ordering::SeqCst);
                }
                // A due source that is not the worst keeps its streak and
                // is a candidate again next sweep.
                if due && rung < SHED_DROP && worst.as_ref().is_none_or(|(_, p)| snap.p99 > *p) {
                    worst = Some((src.clone(), snap.p99));
                }
            }
            Window::Under(true) => {
                if let Some(step) = src.shed.down() {
                    shed_event(src, step, snap.p99);
                }
            }
            Window::Under(_) | Window::Dead => {}
        }
    }
    // Escalate only the worst offender this sweep: a fleet-wide stall
    // sheds the source actually blowing the budget before touching the
    // rest.
    if let Some((src, p99)) = worst {
        let mut sweep = src.sweep.lock().unwrap_or_else(|e| e.into_inner());
        sweep.1.spend_over();
        drop(sweep);
        if let Some(step) = src.shed.up() {
            if step.1 == SHED_THROTTLE {
                src.shed_throttle_pending.store(true, Ordering::SeqCst);
            }
            shed_event(&src, step, p99);
        }
    }
    // Admission follows the current sweep's verdict: paused while any
    // eligible source is over budget, reopened the first sweep none is —
    // including sweeps with no signal at all (an idle or fully
    // quarantined fleet must not hold the gate shut forever).
    let was = inner.admission_paused.swap(any_over, Ordering::SeqCst);
    if was != any_over {
        if let Some(g) = &inner.admission_paused_gauge {
            g.set(i64::from(any_over));
        }
    }
}

/// Closes a source's ingest queue (its analysis thread runs to completion
/// and publishes) and books session-level stats. Idempotent per source via
/// the `finalized` flag.
fn finalize_source(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) {
    if src.finalized.swap(true, Ordering::SeqCst) {
        return;
    }
    src.queue.close();
    inner.stats.chunks_dropped.add(src.queue.dropped());
    inner.stats.sessions.add(1);
}

// ---------------------------------------------------------------------------
// Health state machine
// ---------------------------------------------------------------------------

/// Escalates a source's health (states never regress through this path).
/// Returns true when the state actually changed, emitting the transition's
/// event and counter.
fn raise_health(
    inner: &Arc<FleetInner>,
    src: &Arc<SourceShared>,
    to: SourceHealth,
    why: &str,
) -> bool {
    loop {
        let cur = src.health.load(Ordering::SeqCst);
        if cur >= to as u8 {
            return false;
        }
        if src
            .health
            .compare_exchange(cur, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            break;
        }
    }
    use rfd_telemetry::event::EventKind;
    let (kind, ctr) = match to {
        SourceHealth::Flapping => (EventKind::SourceFlapping, &inner.flap_ctr),
        SourceHealth::Quarantined => (EventKind::SourceQuarantined, &inner.quarantine_ctr),
        SourceHealth::Evicted => (EventKind::SourceEvicted, &inner.evict_ctr),
        SourceHealth::Healthy => return true,
    };
    if to == SourceHealth::Flapping {
        src.flaps.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(c) = ctr {
        c.add(1);
    }
    inner.emit(kind, format!("source {} {}: {why}", src.name, to.as_str()));
    true
}

/// Books a disconnect (no clean Bye): raises the flap score and escalates
/// through flapping to quarantine when the source flaps faster than it
/// makes progress.
fn health_on_disconnect(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) {
    src.disconnects.fetch_add(1, Ordering::Relaxed);
    let score = src.flap_score.fetch_add(1, Ordering::SeqCst) + 1;
    if score >= QUARANTINE_FLAPS {
        raise_health(
            inner,
            src,
            SourceHealth::Quarantined,
            &format!("flap score {score} ≥ {QUARANTINE_FLAPS}"),
        );
    } else if score >= FLAP_THRESHOLD {
        raise_health(
            inner,
            src,
            SourceHealth::Flapping,
            &format!("flap score {score} ≥ {FLAP_THRESHOLD}"),
        );
    }
}

/// Books an attributed decode error; enough of them quarantine the source.
fn health_on_decode_error(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) {
    let errs = src.decode_errors.fetch_add(1, Ordering::SeqCst) + 1;
    if errs >= inner.cfg.quarantine_errors {
        raise_health(
            inner,
            src,
            SourceHealth::Quarantined,
            &format!("{errs} decode errors"),
        );
    }
}

/// Books sustained progress (one ack boundary): damps the flap score, and
/// recovers a flapping source once the score falls to half the threshold
/// (hysteresis — recovering takes more progress than flapping took
/// disconnects).
fn health_on_progress(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) {
    let score = {
        let mut cur = src.flap_score.load(Ordering::SeqCst);
        loop {
            if cur == 0 {
                break 0;
            }
            match src
                .flap_score
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break cur - 1,
                Err(now) => cur = now,
            }
        }
    };
    if score <= FLAP_THRESHOLD / 2
        && src
            .health
            .compare_exchange(
                SourceHealth::Flapping as u8,
                SourceHealth::Healthy as u8,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    {
        inner.emit(
            rfd_telemetry::event::EventKind::SourceResumed,
            format!("source {} healthy again (flap score {score})", src.name),
        );
    }
}

/// Services one connection for one sweep: flush the outbox, retry a pending
/// chunk, process decodable frames, read more bytes.
fn service_conn(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    analysis_threads: &mut Vec<std::thread::JoinHandle<()>>,
    progressed: &mut bool,
) -> Verdict {
    // 0. A connection superseded by a newer attach is dead weight.
    if let ConnState::Streaming(src) = &c.state {
        if c.epoch != src.epoch.load(Ordering::SeqCst) {
            return Verdict::Drop;
        }
    }

    // 1. Flush queued outbound bytes (acks, throttles, byes).
    if !c.out.is_empty() {
        match c.stream.write(&c.out) {
            Ok(0) => return Verdict::Drop,
            Ok(n) => {
                c.out.drain(..n);
                *progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Drop,
        }
    }
    if c.closing {
        return if c.out.is_empty() {
            Verdict::Drop
        } else {
            Verdict::Keep
        };
    }

    // 2. Retry the chunk the source queue previously refused. Until it
    // fits, this socket is not read: TCP backpressure per source.
    if let Some(chunk) = c.pending.take() {
        let src = match &c.state {
            ConnState::Streaming(s) => Some(s.clone()),
            _ => None,
        };
        if let Some(src) = src {
            if commit_chunk(inner, c, &src, chunk) {
                *progressed = true;
            } else if c.closing {
                return Verdict::Drop;
            } else {
                return Verdict::Keep;
            }
        }
    }

    // 3. Drain decodable frames.
    if let Some(v) = process_frames(inner, c, analysis_threads, progressed) {
        return v;
    }
    if c.pending.is_some() || c.closing {
        return Verdict::Keep;
    }

    // 4. Read more bytes (nonblocking). Chaos applies per source
    // (`net.fleet.source.<id>`) plus the site shared with the blocking
    // server so fault plans apply to either flavor.
    if let Some(plan) = &inner.cfg.faults {
        let site_action = match &c.state {
            ConnState::Streaming(src) => plan.decide(&src.chaos_site),
            _ => None,
        };
        let action = site_action.or_else(|| plan.decide("net.server.read"));
        match action {
            Some(Action::Io) => return Verdict::Drop,
            Some(Action::Disconnect) => return eof_verdict(inner, c),
            Some(Action::Corrupt) => {
                // A corrupted read is a decode error attributed to the
                // source (its health machine sees it), then a drop.
                inner.stats.decode_errors.add(1);
                if let ConnState::Streaming(src) = &c.state {
                    let src = src.clone();
                    health_on_decode_error(inner, &src);
                }
                return Verdict::Drop;
            }
            Some(Action::Slow(d)) => std::thread::sleep(d),
            Some(Action::Spin(d)) => rfd_fault::spin_for(d),
            _ => {}
        }
    }
    match c.dec.read_from(&mut c.stream) {
        Ok(0) => return eof_verdict(inner, c),
        Ok(n) => {
            inner.stats.bytes_in.add(n as u64);
            c.last_rx = Instant::now();
            *progressed = true;
            if let Some(v) = process_frames(inner, c, analysis_threads, progressed) {
                return v;
            }
        }
        Err(e)
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::Interrupted =>
        {
            if c.last_rx.elapsed() >= inner.cfg.idle_timeout {
                inner.stats.idle_evictions.add(1);
                return Verdict::Drop;
            }
        }
        Err(_) => return Verdict::Drop,
    }
    Verdict::Keep
}

/// EOF from a peer without a clean Bye: close the connection. The release
/// path parks the source for the resume grace (or finalizes it when resume
/// is off).
fn eof_verdict(_inner: &Arc<FleetInner>, c: &mut Conn) -> Verdict {
    c.closing = true;
    if c.out.is_empty() {
        Verdict::Drop
    } else {
        Verdict::Keep
    }
}

/// The handshake stage of a connection, copied out of [`ConnState`] so the
/// frame dispatch below can mutate the connection freely.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Await,
    Producer,
    Streaming,
}

/// Decodes and applies as many frames as possible. Returns a verdict when
/// the connection changes hands or must close, `None` to continue.
fn process_frames(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    analysis_threads: &mut Vec<std::thread::JoinHandle<()>>,
    progressed: &mut bool,
) -> Option<Verdict> {
    // A sample body is borrowed from the decoder's buffer while the rest of
    // the connection takes the chunk, so the decoder sits outside it.
    let mut dec = std::mem::take(&mut c.dec);
    let verdict = apply_frames(inner, c, &mut dec, analysis_threads, progressed);
    c.dec = dec;
    verdict
}

/// The loop of [`process_frames`], with the connection's decoder lent out.
fn apply_frames(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    dec: &mut FrameDecoder,
    analysis_threads: &mut Vec<std::thread::JoinHandle<()>>,
    progressed: &mut bool,
) -> Option<Verdict> {
    loop {
        if c.pending.is_some() || c.closing {
            return None;
        }
        let decoded = match dec.next_decoded() {
            Ok(Some(d)) => d,
            Ok(None) => return None,
            Err(_) => {
                inner.stats.decode_errors.add(1);
                if let ConnState::Streaming(src) = &c.state {
                    let src = src.clone();
                    health_on_decode_error(inner, &src);
                }
                return Some(Verdict::Drop);
            }
        };
        inner.stats.frames_in.add(1);
        *progressed = true;
        let seq = match &decoded {
            Decoded::Samples { seq, .. } => *seq,
            Decoded::Frame(sf) => sf.seq,
        };
        if let Some(want) = c.expect_seq {
            if seq != want {
                inner.stats.seq_gaps.add(u64::from(seq.wrapping_sub(want)));
            }
        }
        c.expect_seq = Some(seq.wrapping_add(1));

        let (stage, src) = match &c.state {
            ConnState::Await => (Stage::Await, None),
            ConnState::Producer => (Stage::Producer, None),
            ConnState::Streaming(s) => (Stage::Streaming, Some(s.clone())),
        };
        let frame = match decoded {
            Decoded::Frame(sf) => sf.frame,
            Decoded::Samples {
                start_sample, body, ..
            } => match &src {
                Some(src) => {
                    ingest_chunk(inner, c, src, start_sample, body);
                    continue;
                }
                // A chunk before the handshake.
                None => return Some(protocol_violation(inner, None)),
            },
        };
        match (stage, frame) {
            (Stage::Await, Frame::Hello(Role::Producer)) => {
                inner.stats.producers.add(1);
                c.state = ConnState::Producer;
            }
            (Stage::Await, Frame::Hello(Role::Subscriber)) => {
                // Hand the socket to a blocking subscriber thread; the
                // shared serve loop handles Resume, replay and heartbeats.
                let _ = c.stream.set_nonblocking(false);
                let _ = c.stream.set_read_timeout(Some(Duration::from_millis(50)));
                let stream = match c.stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return Some(Verdict::Drop),
                };
                let dec = std::mem::take(dec);
                let inner = inner.clone();
                let t = std::thread::Builder::new()
                    .name("rfd-fleet-sub".into())
                    .spawn(move || {
                        let ctx = SubscriberCtx {
                            hub: &inner.hub,
                            stats: &inner.stats,
                            shutdown: &inner.shutdown,
                        };
                        serve_subscriber(&ctx, stream, dec);
                    })
                    .expect("spawn fleet subscriber thread");
                return Some(Verdict::Subscriber(t));
            }
            // The two handshakes, plus the anonymous reconnect: each ends in
            // an admission, and from there the connection is just a source.
            (Stage::Producer, Frame::SourceHello { source, meta }) => {
                let admission = admit_source(inner, &source, meta);
                attach(inner, c, admission, analysis_threads);
            }
            (Stage::Producer, Frame::StreamMeta(meta)) => {
                let admission = admit_new(inner, None, meta);
                attach(inner, c, admission, analysis_threads);
            }
            (Stage::Producer, Frame::Resume { session, .. }) => {
                // The position is advisory, as after a SourceHello: the ack
                // carries the server's own high-water mark.
                let admission = match find_source(inner, &anonymous_name(session)) {
                    Some(src) => reattach(inner, &src),
                    None => Admission::Refused,
                };
                attach(inner, c, admission, analysis_threads);
            }
            (Stage::Streaming, Frame::Resume { .. }) => {
                // A resuming client may declare its last-acked position
                // after the SourceHello. The claim is advisory — the
                // server's own high-water mark (already acked) is
                // authoritative and overlap is deduped — so malformed or
                // beyond-stream positions are harmless noise.
            }
            (Stage::Streaming, Frame::Bye) => {
                let src = src.expect("streaming state carries its source");
                if let Some(t0) = c.ingest_t0.take() {
                    src.ingest_wall_us
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                // Final authoritative ack, then close after the flush.
                inner.stats.acks_sent.add(1);
                let position = src.expected.load(Ordering::Relaxed);
                let ack = Frame::Ack {
                    session: src.session,
                    position,
                };
                c.queue_frame(&inner.stats, &ack);
                finalize_source(inner, &src);
                c.state = ConnState::Await;
                c.closing = true;
            }
            (_, Frame::Heartbeat) => {}
            (Stage::Await, Frame::Bye) | (Stage::Producer, Frame::Bye) => {
                c.closing = true;
            }
            // Anything else — a duplicate SourceHello on a streaming
            // connection, a server→subscriber tag from a producer — is a
            // protocol violation.
            (_, _) => return Some(protocol_violation(inner, src.as_ref())),
        }
    }
}

/// Books a frame the connection's stage does not allow against the source
/// it streams for, if any, and drops the connection.
fn protocol_violation(inner: &Arc<FleetInner>, src: Option<&Arc<SourceShared>>) -> Verdict {
    inner.stats.decode_errors.add(1);
    if let Some(src) = src {
        health_on_decode_error(inner, src);
    }
    Verdict::Drop
}

/// What a handshake earned.
enum Admission {
    /// A brand-new source: registered and announced.
    New(Arc<SourceShared>),
    /// A known live or parked source reattaching (resume / takeover).
    Resumed(Arc<SourceShared>),
    /// Completed, quarantined, evicted or unknown — refused with a Bye.
    Refused,
}

/// The table key of the anonymous source with join ordinal `session`.
fn anonymous_name(session: u64) -> String {
    format!("#{session}")
}

fn find_source(inner: &FleetInner, name: &str) -> Option<Arc<SourceShared>> {
    let map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
    map.get(name).cloned()
}

/// Binds a connection to the source its handshake earned. The ack is
/// authoritative: position zero anchors a new sender, the committed
/// high-water mark tells a reattaching one where to seek (the contiguity
/// accounting dedupes any overlap it resends anyway).
fn attach(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    admission: Admission,
    analysis_threads: &mut Vec<std::thread::JoinHandle<()>>,
) {
    let src = match admission {
        Admission::New(src) => {
            // Spawn the source's private analysis thread.
            let t = {
                let inner = inner.clone();
                let src = src.clone();
                std::thread::Builder::new()
                    .name(format!("rfd-fleet-{}", src.name))
                    .spawn(move || analysis_thread(inner, src))
                    .expect("spawn fleet analysis thread")
            };
            analysis_threads.push(t);
            src
        }
        Admission::Resumed(src) => src,
        Admission::Refused => {
            inner.rejects.fetch_add(1, Ordering::Relaxed);
            c.queue_frame(&inner.stats, &Frame::Bye);
            c.closing = true;
            return;
        }
    };
    inner.stats.acks_sent.add(1);
    c.queue_frame(
        &inner.stats,
        &Frame::Ack {
            session: src.session,
            position: src.expected.load(Ordering::SeqCst),
        },
    );
    c.epoch = src.epoch.load(Ordering::SeqCst);
    c.chunks_since_ack = 0;
    c.state = ConnState::Streaming(src);
}

/// Admits a SourceHello: a fresh id registers, a known id reattaches.
fn admit_source(inner: &Arc<FleetInner>, source: &str, meta: StreamMeta) -> Admission {
    match find_source(inner, source) {
        None => admit_new(inner, Some(source), meta),
        Some(src) => reattach(inner, &src),
    }
}

/// Admits a source the server has not seen: a fresh id, or (`tag` `None`)
/// an anonymous session.
fn admit_new(inner: &Arc<FleetInner>, tag: Option<&str>, meta: StreamMeta) -> Admission {
    // Overload admission control: while the fleet is over its latency
    // budget, brand-new sources are refused. Known sources resuming never
    // come through here — refusing a resume would turn a transient
    // overload into data loss.
    if inner.admission_paused.load(Ordering::SeqCst) {
        inner.admission_refused.fetch_add(1, Ordering::Relaxed);
        if let Some(ctr) = &inner.admission_refused_ctr {
            ctr.add(1);
        }
        inner.emit(
            rfd_telemetry::event::EventKind::AdmissionRefused,
            format!(
                "source {} refused: fleet over latency budget",
                tag.unwrap_or("(anonymous)")
            ),
        );
        return Admission::Refused;
    }
    register_source(inner, tag, meta)
}

/// Reattaches a connection to a known source: parked → resume at the
/// committed high-water mark; still attached → takeover (newest connection
/// wins); finished, quarantined or evicted → refused.
fn reattach(inner: &Arc<FleetInner>, src: &Arc<SourceShared>) -> Admission {
    // Quarantined / evicted ids are refused; persistent hammering on a
    // quarantined id evicts it outright.
    if src.health() >= SourceHealth::Quarantined {
        let rejects = src.rejects.fetch_add(1, Ordering::SeqCst) + 1;
        if src.health() == SourceHealth::Quarantined && rejects >= EVICT_REJECTS {
            raise_health(
                inner,
                src,
                SourceHealth::Evicted,
                &format!("{rejects} refused reconnects"),
            );
        }
        return Admission::Refused;
    }
    // A completed or finalized stream cannot be reopened.
    if src.done.load(Ordering::SeqCst) || src.finalized.load(Ordering::SeqCst) {
        src.rejects.fetch_add(1, Ordering::Relaxed);
        return Admission::Refused;
    }
    if inner.cfg.resume_grace.is_zero() {
        src.rejects.fetch_add(1, Ordering::Relaxed);
        return Admission::Refused;
    }

    let was_parked = {
        let mut map = inner.parked.lock().unwrap_or_else(|e| e.into_inner());
        let hit = map.remove(&src.name).is_some();
        if hit {
            if let Some(g) = &inner.parked_gauge {
                g.set(map.len() as i64);
            }
        }
        hit
    };
    if !was_parked {
        // The old connection is still attached: treat the reattach as the
        // implied death of the old one (newest connection wins). The epoch
        // bump below strands the old connection; the disconnect still
        // counts against the source's health.
        health_on_disconnect(inner, src);
        if src.health() >= SourceHealth::Quarantined {
            finalize_source(inner, src);
            src.rejects.fetch_add(1, Ordering::Relaxed);
            return Admission::Refused;
        }
    }
    src.epoch.fetch_add(1, Ordering::SeqCst);
    src.resumes.fetch_add(1, Ordering::Relaxed);
    inner.stats.resumes.add(1);
    if let Some(ctr) = &inner.resumes_ctr {
        ctr.add(1);
    }
    inner.emit(
        rfd_telemetry::event::EventKind::SourceResumed,
        format!(
            "source {} resumed at position {} ({})",
            src.name,
            src.expected.load(Ordering::SeqCst),
            if was_parked { "was parked" } else { "takeover" },
        ),
    );
    Admission::Resumed(src.clone())
}

/// Registers a new source: creates its queue, shared state and per-source
/// metrics, and announces it on the hub.
fn register_source(inner: &Arc<FleetInner>, tag: Option<&str>, meta: StreamMeta) -> Admission {
    let session = inner.sources_joined.fetch_add(1, Ordering::SeqCst) + 1;
    let name: Arc<str> = match tag {
        Some(id) => Arc::from(id),
        None => Arc::from(anonymous_name(session)),
    };
    // Only ids mint a metric family: ordinals are unbounded, and a
    // long-lived plain `serve` must not grow per session.
    let reg = inner.registry.as_deref().filter(|_| tag.is_some());
    let src = Arc::new(SourceShared {
        tagged: tag.is_some(),
        meta,
        queue: ChunkQueue::new(inner.cfg.queue_cap, inner.cfg.overflow),
        session,
        epoch: AtomicU64::new(1),
        chunks_in: AtomicU64::new(0),
        samples_in: AtomicU64::new(0),
        chunks_duplicate: AtomicU64::new(0),
        sample_gaps: AtomicU64::new(0),
        throttles: AtomicU64::new(0),
        records: AtomicU64::new(0),
        expected: AtomicU64::new(0),
        ingest_wall_us: AtomicU64::new(0),
        done: AtomicBool::new(false),
        finalized: AtomicBool::new(false),
        health: AtomicU8::new(SourceHealth::Healthy as u8),
        disconnects: AtomicU64::new(0),
        resumes: AtomicU64::new(0),
        flap_score: AtomicU64::new(0),
        flaps: AtomicU64::new(0),
        decode_errors: AtomicU64::new(0),
        rejects: AtomicU64::new(0),
        chaos_site: format!("net.fleet.source.{name}"),
        fanout: Histogram::exponential(1.0, 1e7, 28),
        deadline: Histogram::exponential(1.0, 1e7, 28),
        sweep: Mutex::new((
            HistogramWindow::new(),
            Hysteresis::new(SHED_VIOLATE_STREAK, SHED_RESTORE_STREAK, SHED_LOW_WATER),
        )),
        deadline_p99_bits: AtomicU64::new(0),
        shed: Rung::new(SHED_NONE, SHED_DROP),
        shed_throttle_pending: AtomicBool::new(false),
        queue_gauge: reg.map(|r| r.gauge(&format!("net.fleet.source.{name}.queue_depth"))),
        samples_ctr: reg.map(|r| r.counter(&format!("net.fleet.source.{name}.samples_in"))),
        records_ctr: reg.map(|r| r.counter(&format!("net.fleet.source.{name}.records"))),
        name: name.clone(),
    });
    {
        let mut map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(name.clone(), src.clone());
    }
    if let Some(g) = &inner.active_gauge {
        g.add(1);
    }
    inner.emit(
        rfd_telemetry::event::EventKind::SourceJoined,
        format!("source {name} joined ({:.3} Msps)", meta.sample_rate / 1e6),
    );
    inner.hub.publish(match tag {
        Some(_) => HubMsg::SourceMeta { source: name, meta },
        None => HubMsg::Meta(meta),
    });
    Admission::New(src)
}

/// Ingests one sample chunk for a streaming source from its wire body
/// (validated LE i16 I/Q pairs): contiguity accounting, a copy of the
/// samples not yet ingested (widening is the analysis thread's), throttle
/// advisories, committed queue push, periodic acks.
fn ingest_chunk(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    src: &Arc<SourceShared>,
    start_sample: u64,
    body: &[u8],
) {
    c.ingest_t0.get_or_insert_with(Instant::now);
    inner.stats.chunks_in.add(1);
    src.chunks_in.fetch_add(1, Ordering::Relaxed);
    let n = (body.len() / 4) as u64;
    let end = start_sample.saturating_add(n);
    let expected = src.expected.load(Ordering::Relaxed);
    if end <= expected {
        inner.stats.chunks_duplicate.add(1);
        src.chunks_duplicate.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let gap = start_sample.saturating_sub(expected);
    // Samples before the committed mark were analysed already.
    let skip = expected.saturating_sub(start_sample) as usize;
    let body = body[skip * 4..].to_vec();

    // Throttle advisory on the saturation rising edge, per source.
    let depth = src.queue.len();
    if depth >= src.queue.capacity() {
        if !c.saturated {
            c.saturated = true;
            inner.stats.throttles_sent.add(1);
            src.throttles.fetch_add(1, Ordering::Relaxed);
            inner.emit(
                rfd_telemetry::event::EventKind::ThrottleAdvisory,
                format!(
                    "source {} ingest queue at {depth}/{}",
                    src.name,
                    src.queue.capacity()
                ),
            );
            let frame = Frame::Throttle {
                depth: depth as u32,
                cap: src.queue.capacity() as u32,
            };
            c.queue_frame(&inner.stats, &frame);
        }
    } else {
        c.saturated = false;
    }

    // Shed rung 1: the overload sweep owes this sender a Throttle
    // advisory (repeated every violating sweep, independent of queue
    // saturation — the budget, not the queue bound, is the constraint).
    if src.shed.level() >= SHED_THROTTLE && src.shed_throttle_pending.swap(false, Ordering::SeqCst)
    {
        inner.stats.throttles_sent.add(1);
        src.throttles.fetch_add(1, Ordering::Relaxed);
        inner.shed_throttle.fetch_add(1, Ordering::Relaxed);
        if let Some(ctr) = &inner.shed_throttle_ctr {
            ctr.add(1);
        }
        let frame = Frame::Throttle {
            depth: depth as u32,
            cap: src.queue.capacity() as u32,
        };
        c.queue_frame(&inner.stats, &frame);
    }

    commit_chunk(inner, c, src, PendingChunk { end, gap, body });
}

/// Pushes a dedup-adjusted chunk into the source queue and, only on
/// success, advances the high-water mark and runs the ack/health
/// bookkeeping — so a chunk parked by backpressure (and possibly lost with
/// its connection) is never covered by an ack. Returns true when the chunk
/// was committed; on failure the chunk is re-parked (`Full`) or the
/// connection starts closing (`Closed`).
fn commit_chunk(
    inner: &Arc<FleetInner>,
    c: &mut Conn,
    src: &Arc<SourceShared>,
    chunk: PendingChunk,
) -> bool {
    let PendingChunk { end, gap, body } = chunk;
    let kept = (body.len() / 4) as u64;
    // Shed rung 2: a drop-oldest source forces room instead of parking
    // the chunk — latency is the contract now, the oldest backlog pays.
    if src.shed.level() >= SHED_DROP
        && src.queue.len() >= src.queue.capacity()
        && src.queue.drop_oldest()
    {
        inner.shed_drop.fetch_add(1, Ordering::Relaxed);
        if let Some(ctr) = &inner.shed_drop_ctr {
            ctr.add(1);
        }
    }
    match src.queue.try_push((Instant::now(), body)) {
        Ok(_) => {
            if let Some(g) = &src.queue_gauge {
                g.set(src.queue.len() as i64);
            }
        }
        Err(TryPushError::Full((_, body))) => {
            c.pending = Some(PendingChunk { end, gap, body });
            return false;
        }
        Err(TryPushError::Closed(_)) => {
            c.closing = true;
            return false;
        }
    }
    if gap > 0 {
        inner.stats.sample_gaps.add(gap);
        src.sample_gaps.fetch_add(gap, Ordering::Relaxed);
    }
    src.expected.store(end, Ordering::SeqCst);
    inner.stats.samples_in.add(kept);
    src.samples_in.fetch_add(kept, Ordering::Relaxed);
    if let Some(ctr) = &src.samples_ctr {
        ctr.add(kept);
    }
    c.chunks_since_ack += 1;
    if c.chunks_since_ack >= ACK_EVERY {
        c.chunks_since_ack = 0;
        inner.stats.acks_sent.add(1);
        let frame = Frame::Ack {
            session: src.session,
            position: end,
        };
        c.queue_frame(&inner.stats, &frame);
        health_on_progress(inner, src);
    }
    true
}

/// One source's analysis thread: widen each chunk of the contiguous sample
/// stream into one reused buffer and push it into the source's private
/// pipeline session as it is popped, publish what every push returns at
/// once, and close with the source's end marker. Every pop and the end
/// wake a parked readiness loop. The `tagged` matches here and the handshake arms of
/// [`process_frames`] are the whole difference between the two kinds of
/// source.
fn analysis_thread(inner: Arc<FleetInner>, src: Arc<SourceShared>) {
    let analysis_site = format!("net.fleet.analysis.{}", src.name);
    let next_chunk = || {
        let (committed, chunk) = src.queue.pop()?;
        inner.wake.notify();
        // Chaos: a slow/cpu fault here starves this source's consumer so
        // its queue wait — and only its — blows the deadline budget.
        if let Some(plan) = &inner.cfg.faults {
            match plan.decide(&analysis_site) {
                Some(Action::Slow(d)) => std::thread::sleep(d),
                Some(Action::Spin(d)) => rfd_fault::spin_for(d),
                _ => {}
            }
        }
        // Queue wait is the first half of the deadline metric: how long a
        // committed chunk sat before this thread consumed it.
        src.deadline.record(committed.elapsed().as_secs_f64() * 1e6);
        if let Some(g) = &src.queue_gauge {
            g.set(src.queue.len() as i64);
        }
        Some(chunk)
    };
    let publish = |records: Vec<RecordMsg>, pushed_at: Instant| {
        for rec in records {
            // Push → publish lag is the second half of the deadline
            // metric: what the analysis of the chunk that released this
            // record cost (a chaos-slowed pipeline shows up here).
            src.deadline.record(pushed_at.elapsed().as_secs_f64() * 1e6);
            inner.stats.records_published.add(1);
            src.records.fetch_add(1, Ordering::Relaxed);
            if let Some(ctr) = &src.records_ctr {
                ctr.add(1);
            }
            let t0 = Instant::now();
            inner.hub.publish(if src.tagged {
                HubMsg::SourceRecord {
                    source: src.name.clone(),
                    record: rec,
                }
            } else {
                HubMsg::Record(rec)
            });
            let us = t0.elapsed().as_secs_f64() * 1e6;
            src.fanout.record(us);
            if let Some(h) = &inner.fanout_hist {
                h.record(us);
            }
        }
    };
    // A source cut off before any sample arrived (e.g. quarantined on its
    // first frames) publishes no records — don't spin up a pipeline (or
    // its journal directory) for an empty stream.
    let mut chunks = std::iter::from_fn(next_chunk).peekable();
    if chunks.peek().is_some() {
        let mut pipeline = (inner.factory)(if src.tagged { &src.name } else { "" });
        let mut session = pipeline.open(&src.meta);
        let mut samples = Vec::new();
        for body in chunks {
            let pushed_at = Instant::now();
            kernels::widen_i16_iq(&body, src.meta.scale, &mut samples);
            publish(session.push(&samples), pushed_at);
        }
        let finished_at = Instant::now();
        publish(session.finish(), finished_at);
    }
    // An anonymous session ends with the stats document (the untagged
    // stream's end-of-session marker); publishing one after tagged sources
    // too would renumber every subscriber's resume cursor for no reader.
    inner.hub.publish(if src.tagged {
        HubMsg::SourceBye {
            source: src.name.clone(),
        }
    } else {
        let net = inner.stats.snapshot(inner.hub.evicted());
        HubMsg::Stats(net.to_json().to_json())
    });
    inner.note_evictions();
    inner
        .stats
        .ingest_signal_us
        .add((src.expected.load(Ordering::Relaxed) as f64 / src.meta.sample_rate * 1e6) as u64);
    inner
        .stats
        .ingest_wall_us
        .add(src.ingest_wall_us.load(Ordering::Relaxed));
    src.done.store(true, Ordering::SeqCst);
    if let Some(g) = &inner.active_gauge {
        g.add(-1);
    }
    inner.emit(
        rfd_telemetry::event::EventKind::SourceLeft,
        format!(
            "source {} done ({} records)",
            src.name,
            src.records.load(Ordering::Relaxed)
        ),
    );
    if !src.tagged {
        // A finished id stays so a second claim on it can be refused; a
        // finished ordinal protects nothing (a Resume naming it is refused
        // as unknown), its counters are already in the rollup, and a
        // long-lived plain `serve` must not grow per session.
        let mut map = inner.sources.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(&src.name);
    }
    inner.sources_done.fetch_add(1, Ordering::SeqCst);
    inner.wake.notify();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::{RecordSubscriber, SendRate, SubEvent, TraceSender};
    use crate::frame::RecordMsg;
    use rfd_dsp::Complex32;

    pub(crate) fn stub_factory() -> PipelineFactory {
        Box::new(|_source: &str| {
            Box::new(
                |meta: &StreamMeta, samples: Vec<Complex32>| -> Vec<RecordMsg> {
                    vec![RecordMsg {
                        start_us: 0.0,
                        end_us: samples.len() as f64 / meta.sample_rate * 1e6,
                        line: format!("session of {} samples", samples.len()),
                    }]
                },
            )
        })
    }

    pub(crate) fn meta() -> StreamMeta {
        StreamMeta {
            sample_rate: 1e6,
            center_hz: 0.0,
            scale: 1.0,
        }
    }

    pub(crate) fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn three_sources_merge_with_tags() {
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                expect: Some(3),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let run = std::thread::spawn(move || server.run().unwrap());

        let mut sub = RecordSubscriber::connect(addr).unwrap();
        let senders: Vec<_> = (0..3)
            .map(|k| {
                std::thread::spawn(move || {
                    let n = 1000 * (k + 1);
                    let samples = vec![Complex32::new(0.1, -0.1); n];
                    let mut tx = TraceSender::connect_source(addr, &format!("sensor-{k}")).unwrap();
                    tx.send_samples(meta(), &samples, SendRate::Max, 256)
                        .unwrap();
                    tx.finish().unwrap();
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }

        let mut by_source: std::collections::BTreeMap<String, Vec<String>> =
            std::collections::BTreeMap::new();
        let mut byes = Vec::new();
        loop {
            match sub.next_event().unwrap() {
                SubEvent::SourceRecord { source, record } => {
                    by_source.entry(source).or_default().push(record.line);
                }
                SubEvent::SourceBye { source } => byes.push(source),
                SubEvent::Bye => break,
                _ => {}
            }
        }
        for k in 0..3usize {
            assert_eq!(
                by_source.get(&format!("sensor-{k}")).map(Vec::as_slice),
                Some(&[format!("session of {} samples", 1000 * (k + 1))][..]),
            );
        }
        byes.sort();
        assert_eq!(byes, vec!["sensor-0", "sensor-1", "sensor-2"]);

        let stats = run.join().unwrap();
        assert_eq!(stats.sources_joined, 3);
        assert_eq!(stats.sources_done, 3);
        assert_eq!(stats.net.samples_in, 1000 + 2000 + 3000);
        assert_eq!(stats.net.decode_errors, 0);
        assert_eq!(stats.per_source.len(), 3);
        assert_eq!(stats.per_source[0].source, "sensor-0");
        assert_eq!(stats.per_source[1].samples_in, 2000);
        assert!(stats.per_source.iter().all(|s| s.done));
        assert!(stats
            .per_source
            .iter()
            .all(|s| s.health == SourceHealth::Healthy));
    }

    #[test]
    fn duplicate_source_id_is_refused() {
        // With resume off, a second claim on a live or completed id is a
        // duplicate, not a resume — the PR8 uniqueness contract.
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                resume_grace: Duration::ZERO,
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());

        let samples = vec![Complex32::new(0.0, 0.0); 512];
        let mut tx1 = TraceSender::connect_source(addr, "dup").unwrap();
        tx1.send_samples(meta(), &samples, SendRate::Max, 128)
            .unwrap();
        tx1.finish().unwrap();
        // Source ids are unique for the life of the server: a second claim
        // on the id — even after the first completed — is refused.
        let mut tx2 = TraceSender::connect_source(addr, "dup").unwrap();
        let second = tx2
            .send_samples(meta(), &samples, SendRate::Max, 128)
            .and_then(|_| tx2.finish());
        // The send may locally "succeed" (socket buffering); the rejection
        // is authoritative server-side.
        let _ = second;
        let t0 = Instant::now();
        while handle.stats().rejects == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.shutdown();
        let stats = run.join().unwrap();
        assert_eq!(stats.sources_joined, 1);
        assert_eq!(stats.rejects, 1);
        assert_eq!(stats.per_source.len(), 1);
        assert_eq!(stats.net.samples_in, 512);
    }

    #[test]
    fn garbage_first_frame_is_dropped_cleanly() {
        let server =
            FleetServer::bind("127.0.0.1:0", FleetConfig::default(), stub_factory(), None).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /ingest HTTP/1.1\r\n\r\nnot a frame")
            .unwrap();
        drop(s);
        let t0 = Instant::now();
        while handle.stats().net.decode_errors == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.stats().net.decode_errors, 1);
        handle.shutdown();
        run.join().unwrap();
    }

    #[test]
    fn dropped_source_resumes_byte_identical() {
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                expect: Some(1),
                resume_grace: Duration::from_secs(10),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());
        let mut sub = RecordSubscriber::connect(addr).unwrap();

        let samples = vec![Complex32::new(0.25, -0.25); 3072];
        // First connection: stream the first 1024 samples, then die without
        // a Bye. The source is parked.
        {
            let mut tx1 = TraceSender::connect_source(addr, "res").unwrap();
            tx1.send_samples(meta(), &samples[..1024], SendRate::Max, 256)
                .unwrap();
            // Dropped without finish(): simulated sender crash.
        }
        wait_for("source parked after crash", || {
            handle.stats().net.sessions_parked == 1
        });

        // Second connection claims the same id and (like a restarted
        // sender with no local state) resends from sample zero; the server
        // dedupes the overlap against its committed high-water mark.
        let mut tx2 = TraceSender::connect_source(addr, "res").unwrap();
        tx2.send_samples(meta(), &samples, SendRate::Max, 256)
            .unwrap();
        tx2.finish().unwrap();

        // The record stream is byte-identical to an uninterrupted run.
        let mut lines = Vec::new();
        loop {
            match sub.next_event().unwrap() {
                SubEvent::SourceRecord { source, record } => {
                    assert_eq!(source, "res");
                    lines.push(record.line);
                }
                SubEvent::Bye => break,
                _ => {}
            }
        }
        assert_eq!(lines, vec!["session of 3072 samples".to_string()]);

        let stats = run.join().unwrap();
        assert_eq!(stats.sources_joined, 1);
        assert_eq!(stats.sources_done, 1);
        assert_eq!(stats.resumes, 1);
        assert_eq!(stats.net.sessions_parked, 1);
        assert_eq!(stats.net.samples_in, 3072);
        let s = &stats.per_source[0];
        assert_eq!(s.resumes, 1);
        assert_eq!(s.disconnects, 1);
        assert_eq!(s.samples_in, 3072);
        assert_eq!(s.chunks_duplicate, 4, "the 1024-sample overlap dedupes");
        assert_eq!(s.health, SourceHealth::Healthy);
        assert!(s.done);
    }

    /// Dedup is exact by value, not just by count: a resend whose chunks
    /// straddle the committed mark hands the pipeline precisely the samples
    /// an uninterrupted session would have, bit for bit, in order.
    #[test]
    fn straddling_resend_dedupes_bit_exactly() {
        use rfd_dsp::complex::from_i16_iq;
        use rfd_dsp::rng::Xoshiro256;
        let seen: Arc<Mutex<Vec<(u32, u32)>>> = Arc::default();
        let factory: PipelineFactory = {
            let seen = seen.clone();
            Box::new(move |_source: &str| {
                let seen = seen.clone();
                Box::new(
                    move |_meta: &StreamMeta, samples: Vec<Complex32>| -> Vec<RecordMsg> {
                        let mut seen = seen.lock().unwrap();
                        seen.extend(samples.iter().map(|z| (z.re.to_bits(), z.im.to_bits())));
                        Vec::new()
                    },
                )
            })
        };
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                expect: Some(1),
                resume_grace: Duration::from_secs(10),
                ..Default::default()
            },
            factory,
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());

        // Every pair distinct, the i16 extremes included; a scale that is
        // not a power of two, so a folded constant would show in the bits.
        let mut rng = Xoshiro256::new(0xDED0_2009);
        let mut pairs: Vec<(i16, i16)> = (0..3072)
            .map(|_| {
                let v = rng.next_u64();
                (v as i16, (v >> 16) as i16)
            })
            .collect();
        pairs[950] = (i16::MIN, i16::MAX);
        pairs[1000] = (i16::MAX, i16::MIN);
        let meta = StreamMeta {
            scale: 0.731,
            ..meta()
        };
        let chunked = |pairs: &[(i16, i16)], n: usize| -> Vec<Vec<(i16, i16)>> {
            pairs.chunks(n).map(<[_]>::to_vec).collect()
        };
        {
            // [0, 1000) in 250-sample chunks, then a crash: no Bye.
            let mut tx1 = TraceSender::connect_source(addr, "dedup").unwrap();
            tx1.send_quantized(meta, chunked(&pairs[..1000], 250), SendRate::Max)
                .unwrap();
        }
        wait_for("source parked after crash", || {
            handle.stats().net.sessions_parked == 1
        });
        // [0, 3072) in 300-sample chunks: three whole duplicates, then
        // [900, 1200) straddles the committed mark 1000.
        let mut tx2 = TraceSender::connect_source(addr, "dedup").unwrap();
        tx2.send_quantized(meta, chunked(&pairs, 300), SendRate::Max)
            .unwrap();
        tx2.finish().unwrap();

        let stats = run.join().unwrap();
        let s = &stats.per_source[0];
        assert_eq!(s.samples_in, 3072);
        assert_eq!(s.chunks_duplicate, 3, "[0, 900) resent whole");
        let want: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(i, q)| {
                let z = from_i16_iq(i, q).scale(meta.scale);
                (z.re.to_bits(), z.im.to_bits())
            })
            .collect();
        let got = seen.lock().unwrap();
        assert_eq!(got.len(), want.len());
        assert!(*got == want, "analysed samples differ from the stream");
    }

    #[test]
    fn quarantined_source_is_refused_and_finalized() {
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                quarantine_errors: 1,
                resume_grace: Duration::from_secs(10),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());

        // Stream one clean chunk, then flood garbage: the decode error is
        // attributed to the source and quarantines it immediately
        // (threshold 1), finalizing the stream with what arrived.
        let mut s = TcpStream::connect(addr).unwrap();
        let mut seq = 0u32;
        let mut send = |s: &mut TcpStream, f: &Frame| {
            let b = crate::frame::encode_frame(f, seq);
            seq = seq.wrapping_add(1);
            s.write_all(&b).unwrap();
        };
        send(&mut s, &Frame::Hello(Role::Producer));
        send(
            &mut s,
            &Frame::SourceHello {
                source: "noisy".into(),
                meta: meta(),
            },
        );
        send(
            &mut s,
            &Frame::SampleChunk {
                start_sample: 0,
                iq: vec![(100, -100); 256],
            },
        );
        s.write_all(b"\xde\xad\xbe\xef garbage flood \xde\xad\xbe\xef")
            .unwrap();
        s.flush().unwrap();
        wait_for("source quarantined and finalized", || {
            let st = handle.stats();
            st.quarantined == 1 && st.per_source.first().is_some_and(|s| s.done)
        });
        drop(s);

        // Reconnects on a quarantined id are refused.
        let mut tx = TraceSender::connect_source(addr, "noisy").unwrap();
        let refused = tx
            .send_samples(
                meta(),
                &vec![Complex32::new(0.0, 0.0); 256],
                SendRate::Max,
                128,
            )
            .and_then(|_| tx.finish());
        let _ = refused;
        wait_for("quarantined reconnect refused", || {
            handle.stats().rejects >= 1
        });

        handle.shutdown();
        let stats = run.join().unwrap();
        let s = &stats.per_source[0];
        assert_eq!(s.health, SourceHealth::Quarantined);
        assert_eq!(s.samples_in, 256, "the clean chunk before the flood kept");
        assert_eq!(s.records, 1, "partial stream still analyzed");
        assert!(s.decode_errors >= 1);
        assert!(s.rejects >= 1);
        assert!(s.done);
        assert_eq!(stats.sources_done, 1);
    }

    #[test]
    fn grace_expiry_evicts_parked_source() {
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                resume_grace: Duration::from_millis(50),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());

        {
            let mut tx = TraceSender::connect_source(addr, "ghost").unwrap();
            tx.send_samples(
                meta(),
                &vec![Complex32::new(0.5, 0.5); 512],
                SendRate::Max,
                128,
            )
            .unwrap();
            // Crash without Bye; nobody resumes within the 50 ms grace.
        }
        wait_for("parked source expires and finalizes", || {
            let st = handle.stats();
            st.sources_expired == 1 && st.per_source.first().is_some_and(|s| s.done)
        });
        handle.shutdown();
        let stats = run.join().unwrap();
        assert_eq!(stats.net.sessions_parked, 1);
        assert_eq!(stats.net.sessions_expired, 1);
        assert_eq!(stats.sources_expired, 1);
        let s = &stats.per_source[0];
        assert_eq!(s.health, SourceHealth::Evicted);
        assert_eq!(s.samples_in, 512);
        assert_eq!(s.records, 1, "evicted stream analyzed with what arrived");
        assert!(s.done);
    }

    #[test]
    fn shed_ladder_escalates_worst_source_and_recovers_with_hysteresis() {
        // Drive the sweep directly (forced ticks) against a bound-but-idle
        // server: deterministic rung walking without socket timing.
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                latency_budget: Some(Duration::from_millis(5)),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let inner = server.inner.clone();
        let hot = match register_source(&inner, Some("hot"), meta()) {
            Admission::New(s) => s,
            _ => panic!("fresh id must register"),
        };
        let tick = |us: f64| {
            hot.deadline.record(us);
            latency_sweep(&inner, true);
        };

        // Violations escalate only after the streak, worst-first.
        tick(50_000.0);
        assert_eq!(hot.shed.level(), SHED_NONE, "one violating sweep holds");
        assert!(
            inner.admission_paused.load(Ordering::SeqCst),
            "admission pauses on the first over-budget sweep"
        );
        tick(50_000.0);
        assert_eq!(hot.shed.level(), SHED_THROTTLE);
        assert!(hot.shed_throttle_pending.load(Ordering::SeqCst));
        tick(50_000.0);
        tick(50_000.0);
        assert_eq!(hot.shed.level(), SHED_DROP);
        tick(50_000.0);
        assert_eq!(hot.shed.level(), SHED_DROP, "drop-oldest is the top rung");

        // New ids are refused while paused; the counter and snapshot agree.
        match admit_source(&inner, "newcomer", meta()) {
            Admission::Refused => {}
            _ => panic!("new id must be refused while over budget"),
        }
        assert_eq!(inner.admission_refused.load(Ordering::Relaxed), 1);

        // Recovery retraces the ladder one rung per restore streak, and
        // the first clean sweep reopens admission.
        for _ in 0..SHED_RESTORE_STREAK {
            tick(10.0);
        }
        assert_eq!(hot.shed.level(), SHED_THROTTLE);
        assert!(!inner.admission_paused.load(Ordering::SeqCst));
        for _ in 0..SHED_RESTORE_STREAK {
            tick(10.0);
        }
        assert_eq!(hot.shed.level(), SHED_NONE);
        match admit_source(&inner, "newcomer", meta()) {
            Admission::New(_) => {}
            _ => panic!("admission must reopen once under budget"),
        }

        let snap = inner.snapshot();
        let lat = snap.latency.expect("budget run must carry latency stats");
        assert_eq!(lat.budget_us, 5_000.0);
        assert!(lat.violations >= 5);
        assert_eq!(lat.admission_refused, 1);
        assert!(!lat.admission_paused);
        let row = snap
            .per_source
            .iter()
            .find(|s| s.source == "hot")
            .expect("per-source row");
        assert_eq!(row.shed, "none");
        assert!(row.deadline_p99_us < 5_000.0, "last window was clean");
    }

    #[test]
    fn passed_over_source_keeps_its_streak_and_escalates_next_sweep() {
        // Two sources over budget at once: one sweep escalates only the
        // worse one, and the other, having reached its streak too, keeps
        // it and escalates on the very next sweep.
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                latency_budget: Some(Duration::from_millis(5)),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let inner = server.inner.clone();
        let register = |id: &str| match register_source(&inner, Some(id), meta()) {
            Admission::New(s) => s,
            _ => panic!("fresh id must register"),
        };
        let hot = register("hot");
        let warm = register("warm");
        let sweep = |hot_us: f64, warm_us: f64| {
            hot.deadline.record(hot_us);
            warm.deadline.record(warm_us);
            latency_sweep(&inner, true);
            (hot.shed.level(), warm.shed.level())
        };

        let over: Vec<(u8, u8)> = (0..5).map(|_| sweep(90_000.0, 50_000.0)).collect();
        assert_eq!(
            over,
            vec![
                (SHED_NONE, SHED_NONE),
                (SHED_THROTTLE, SHED_NONE),
                (SHED_THROTTLE, SHED_THROTTLE),
                (SHED_DROP, SHED_THROTTLE),
                (SHED_DROP, SHED_DROP),
            ],
            "worst first; the passed-over source escalates the next sweep"
        );

        // Relaxing takes SHED_RESTORE_STREAK clean sweeps per rung.
        let restore = SHED_RESTORE_STREAK as usize;
        let clean: Vec<(u8, u8)> = (0..2 * restore).map(|_| sweep(10.0, 10.0)).collect();
        let mut want = vec![(SHED_DROP, SHED_DROP); restore - 1];
        want.push((SHED_THROTTLE, SHED_THROTTLE));
        want.extend(vec![(SHED_THROTTLE, SHED_THROTTLE); restore - 1]);
        want.push((SHED_NONE, SHED_NONE));
        assert_eq!(clean, want);
    }

    #[test]
    fn shed_never_escalates_health_and_skips_quarantined_sources() {
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                latency_budget: Some(Duration::from_millis(5)),
                ..Default::default()
            },
            stub_factory(),
            None,
        )
        .unwrap();
        let inner = server.inner.clone();
        let src = match register_source(&inner, Some("sick"), meta()) {
            Admission::New(s) => s,
            _ => panic!("fresh id must register"),
        };
        for _ in 0..4 {
            src.deadline.record(50_000.0);
            latency_sweep(&inner, true);
        }
        assert_eq!(src.shed.level(), SHED_DROP);
        assert_eq!(
            src.health(),
            SourceHealth::Healthy,
            "shedding is not a health violation"
        );
        // Once quarantined, the sweep ignores the source entirely: its
        // rung freezes and its violations stop pausing admission.
        raise_health(&inner, &src, SourceHealth::Quarantined, "test");
        src.deadline.record(50_000.0);
        latency_sweep(&inner, true);
        src.deadline.record(10.0);
        latency_sweep(&inner, true);
        assert!(
            !inner.admission_paused.load(Ordering::SeqCst),
            "a quarantined source cannot hold the admission gate"
        );
    }

    #[test]
    fn slow_pipeline_overload_is_visible_end_to_end() {
        use rfd_telemetry::Registry;
        // "laggy" gets a pipeline that stalls well past the 2 ms budget;
        // "quick" is untouched. The run must finish with the violation
        // booked, the laggy row over budget, and the quick row clean.
        let reg = Arc::new(Registry::new());
        let factory: PipelineFactory = Box::new(|source: &str| {
            let slow = source == "laggy";
            Box::new(
                move |meta: &StreamMeta, samples: Vec<Complex32>| -> Vec<RecordMsg> {
                    if slow {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    vec![RecordMsg {
                        start_us: 0.0,
                        end_us: samples.len() as f64 / meta.sample_rate * 1e6,
                        line: format!("session of {} samples", samples.len()),
                    }]
                },
            )
        });
        let server = FleetServer::bind(
            "127.0.0.1:0",
            FleetConfig {
                latency_budget: Some(Duration::from_millis(2)),
                expect: Some(2),
                ..Default::default()
            },
            factory,
            Some(reg.clone()),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let run = std::thread::spawn(move || server.run().unwrap());

        let senders: Vec<_> = ["laggy", "quick"]
            .into_iter()
            .map(|name| {
                std::thread::spawn(move || {
                    let samples = vec![Complex32::new(0.1, -0.1); 2048];
                    let mut tx = TraceSender::connect_source(addr, name).unwrap();
                    tx.send_samples(meta(), &samples, SendRate::Max, 256)
                        .unwrap();
                    tx.finish().unwrap();
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }

        let stats = run.join().unwrap();
        let lat = stats.latency.expect("budget run must carry latency stats");
        assert!(lat.violations >= 1, "the stalled publish must be booked");
        assert!(reg.counter("events.budget_violated").get() >= 1);
        let row = |name: &str| {
            stats
                .per_source
                .iter()
                .find(|s| s.source == name)
                .unwrap()
                .clone()
        };
        assert!(row("laggy").deadline_p99_us > 2_000.0);
        assert_eq!(row("quick").records, 1, "unshed source publishes clean");
        assert!(stats
            .per_source
            .iter()
            .all(|s| s.health == SourceHealth::Healthy));
    }
}
