//! What the ingest server ([`crate::fleet`]) shares with its callers and
//! its subscriber threads: the [`Pipeline`] trait the analysis stage is
//! injected through, the wire-level statistics (`NetStats` and its
//! snapshot), and the subscriber side of a connection
//! (`serve_subscriber`: resume handshake, replay, live queue, heartbeats).
//!
//! ```text
//!  producer ──TCP──▶ readiness loop ──▶ ChunkQueue ──▶ analysis thread
//!                    (crate::fleet)                       │ (Pipeline)
//!  subscriber ◀─TCP── per-sub bounded queue ◀── RecordHub ┘
//! ```
//!
//! Records leave while the samples are still arriving: a session is pushed
//! chunk by chunk and every push returns the records it made final. That
//! is the offline order, so no watermark and no sort is needed — every
//! record of a dispatch starts where its peak starts, peaks are disjoint
//! and ordered, and dispatches are released in sequence. A subscriber's
//! stream is therefore byte-identical to offline `rfdump` on the same
//! samples, only earlier.
//!
//! The [`Server`] type at the bottom is a preset over
//! [`FleetServer`], not a second server.

use crate::fleet::{FleetConfig, FleetServer, PipelineFactory};
use crate::frame::{encode_frame, Frame, FrameDecoder, RecordMsg, SeqFrame, StreamMeta};
use crate::hub::{HubMsg, RecordHub};
use rfd_dsp::Complex32;
use rfd_telemetry::{Counter, Registry};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The analysis stage the server drives, one [`Session`] per capture
/// stream.
///
/// The server deliberately does not depend on `rfdump` (the core crate
/// implements this trait and hands it in), so the wire layer stays reusable
/// and cheap to test with stub pipelines.
pub trait Pipeline: Send {
    /// Starts analysing a stream with these parameters.
    fn open(&mut self, meta: &StreamMeta) -> Box<dyn Session + '_>;
}

/// One stream's analysis: samples in as they arrive, rendered record lines
/// out as soon as they are final.
pub trait Session {
    /// Feeds the next contiguous samples; returns the records they made
    /// final, continuing the order of everything returned before.
    fn push(&mut self, samples: &[Complex32]) -> Vec<RecordMsg>;

    /// Ends the stream; returns the remaining records.
    fn finish(self: Box<Self>) -> Vec<RecordMsg>;
}

/// A whole-session function is a pipeline whose session accumulates the
/// stream and calls it at `finish` — what stub pipelines in tests and the
/// benchmark's no-op pipelines are written as. The only batch code in this
/// crate.
impl<F> Pipeline for F
where
    F: FnMut(&StreamMeta, Vec<Complex32>) -> Vec<RecordMsg> + Send,
{
    fn open(&mut self, meta: &StreamMeta) -> Box<dyn Session + '_> {
        Box::new(Accumulate {
            run: self,
            meta: *meta,
            samples: Vec::new(),
        })
    }
}

struct Accumulate<'a, F> {
    run: &'a mut F,
    meta: StreamMeta,
    samples: Vec<Complex32>,
}

impl<F> Session for Accumulate<'_, F>
where
    F: FnMut(&StreamMeta, Vec<Complex32>) -> Vec<RecordMsg>,
{
    fn push(&mut self, samples: &[Complex32]) -> Vec<RecordMsg> {
        self.samples.extend_from_slice(samples);
        Vec::new()
    }

    fn finish(self: Box<Self>) -> Vec<RecordMsg> {
        let Accumulate { run, meta, samples } = *self;
        run(&meta, samples)
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// One monotone statistic, optionally mirrored into a telemetry counter.
pub(crate) struct Cell {
    v: AtomicU64,
    mirror: Option<Arc<Counter>>,
}

impl Cell {
    pub(crate) fn new(reg: Option<&Registry>, name: &str) -> Self {
        Self {
            v: AtomicU64::new(0),
            mirror: reg.map(|r| r.counter(name)),
        }
    }

    pub(crate) fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
        if let Some(c) = &self.mirror {
            c.add(n);
        }
    }

    pub(crate) fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Live server statistics (all monotone; mirrored into the telemetry
/// registry under `net.*` when one is attached).
pub(crate) struct NetStats {
    pub(crate) connections: Cell,
    pub(crate) producers: Cell,
    pub(crate) subscribers: Cell,
    pub(crate) sessions: Cell,
    pub(crate) frames_in: Cell,
    pub(crate) bytes_in: Cell,
    pub(crate) frames_out: Cell,
    pub(crate) bytes_out: Cell,
    pub(crate) chunks_in: Cell,
    pub(crate) samples_in: Cell,
    pub(crate) chunks_dropped: Cell,
    pub(crate) throttles_sent: Cell,
    pub(crate) seq_gaps: Cell,
    pub(crate) decode_errors: Cell,
    pub(crate) records_published: Cell,
    pub(crate) chunks_duplicate: Cell,
    pub(crate) sample_gaps: Cell,
    pub(crate) resumes: Cell,
    pub(crate) sessions_parked: Cell,
    pub(crate) sessions_expired: Cell,
    pub(crate) idle_evictions: Cell,
    pub(crate) acks_sent: Cell,
    /// Signal time ingested, µs (samples / sample_rate).
    pub(crate) ingest_signal_us: Cell,
    /// Wall time spent ingesting, µs (first chunk to stream close).
    pub(crate) ingest_wall_us: Cell,
}

impl NetStats {
    pub(crate) fn new(reg: Option<&Registry>) -> Self {
        Self {
            connections: Cell::new(reg, "net.connections"),
            producers: Cell::new(reg, "net.producers"),
            subscribers: Cell::new(reg, "net.subscribers"),
            sessions: Cell::new(reg, "net.sessions"),
            frames_in: Cell::new(reg, "net.frames_in"),
            bytes_in: Cell::new(reg, "net.bytes_in"),
            frames_out: Cell::new(reg, "net.frames_out"),
            bytes_out: Cell::new(reg, "net.bytes_out"),
            chunks_in: Cell::new(reg, "net.chunks_in"),
            samples_in: Cell::new(reg, "net.samples_in"),
            chunks_dropped: Cell::new(reg, "net.chunks_dropped"),
            throttles_sent: Cell::new(reg, "net.throttles_sent"),
            seq_gaps: Cell::new(reg, "net.seq_gaps"),
            decode_errors: Cell::new(reg, "net.decode_errors"),
            records_published: Cell::new(reg, "net.records_published"),
            chunks_duplicate: Cell::new(reg, "net.chunks_duplicate"),
            sample_gaps: Cell::new(reg, "net.sample_gaps"),
            resumes: Cell::new(reg, "net.resumes"),
            sessions_parked: Cell::new(reg, "net.sessions_parked"),
            sessions_expired: Cell::new(reg, "net.sessions_expired"),
            idle_evictions: Cell::new(reg, "net.idle_evictions"),
            acks_sent: Cell::new(reg, "net.acks_sent"),
            ingest_signal_us: Cell::new(reg, "net.ingest_signal_us"),
            ingest_wall_us: Cell::new(reg, "net.ingest_wall_us"),
        }
    }

    /// Point-in-time copy. `subscribers_evicted` comes from the hub, which
    /// owns that counter.
    pub(crate) fn snapshot(&self, subscribers_evicted: u64) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections: self.connections.get(),
            producers: self.producers.get(),
            subscribers: self.subscribers.get(),
            sessions: self.sessions.get(),
            frames_in: self.frames_in.get(),
            bytes_in: self.bytes_in.get(),
            frames_out: self.frames_out.get(),
            bytes_out: self.bytes_out.get(),
            chunks_in: self.chunks_in.get(),
            samples_in: self.samples_in.get(),
            chunks_dropped: self.chunks_dropped.get(),
            throttles_sent: self.throttles_sent.get(),
            seq_gaps: self.seq_gaps.get(),
            decode_errors: self.decode_errors.get(),
            records_published: self.records_published.get(),
            chunks_duplicate: self.chunks_duplicate.get(),
            sample_gaps: self.sample_gaps.get(),
            resumes: self.resumes.get(),
            sessions_parked: self.sessions_parked.get(),
            sessions_expired: self.sessions_expired.get(),
            idle_evictions: self.idle_evictions.get(),
            acks_sent: self.acks_sent.get(),
            subscribers_evicted,
            ingest_signal_us: self.ingest_signal_us.get(),
            ingest_wall_us: self.ingest_wall_us.get(),
        }
    }
}

/// Point-in-time copy of the server statistics, for the stats-json `net`
/// section and test assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStatsSnapshot {
    /// Accepted TCP connections.
    pub connections: u64,
    /// Connections that declared the producer role.
    pub producers: u64,
    /// Connections that declared the subscriber role.
    pub subscribers: u64,
    /// Producer sessions analyzed.
    pub sessions: u64,
    /// Frames decoded from peers.
    pub frames_in: u64,
    /// Bytes read from peers.
    pub bytes_in: u64,
    /// Frames written to peers.
    pub frames_out: u64,
    /// Bytes written to peers.
    pub bytes_out: u64,
    /// Sample chunks ingested.
    pub chunks_in: u64,
    /// Complex samples ingested.
    pub samples_in: u64,
    /// Chunks discarded by the drop-oldest overflow policy.
    pub chunks_dropped: u64,
    /// Throttle advisories sent to producers.
    pub throttles_sent: u64,
    /// Frame sequence-number gaps observed (upstream loss accounting).
    pub seq_gaps: u64,
    /// Connections dropped for malformed frames.
    pub decode_errors: u64,
    /// Record messages published to the hub.
    pub records_published: u64,
    /// Sample chunks skipped as already-ingested duplicates (resend after a
    /// reconnect overlapping the acknowledged position).
    pub chunks_duplicate: u64,
    /// Samples missing from the contiguous stream (chunk started past the
    /// expected position).
    pub sample_gaps: u64,
    /// Producer sessions successfully resumed after a reconnect.
    pub resumes: u64,
    /// Sessions parked awaiting a reconnect when their producer dropped.
    pub sessions_parked: u64,
    /// Parked sessions finalized because the resume grace period expired.
    pub sessions_expired: u64,
    /// Connections dropped for exceeding the idle timeout.
    pub idle_evictions: u64,
    /// Ack frames sent to producers.
    pub acks_sent: u64,
    /// Subscribers evicted as slow consumers.
    pub subscribers_evicted: u64,
    /// Signal time ingested, µs.
    pub ingest_signal_us: u64,
    /// Wall time spent ingesting, µs.
    pub ingest_wall_us: u64,
}

impl NetStatsSnapshot {
    /// Ingest wall time over signal time: < 1.0 means the server kept up
    /// with (better than) real time, the PC-side requirement the related
    /// USRP-ingest work centers on.
    pub fn ingest_rt_ratio(&self) -> f64 {
        if self.ingest_signal_us == 0 {
            return 0.0;
        }
        self.ingest_wall_us as f64 / self.ingest_signal_us as f64
    }

    /// The snapshot as a JSON object (the stats-json v3 `net` section).
    pub fn to_json(&self) -> rfd_telemetry::json::JsonValue {
        use rfd_telemetry::json::JsonValue as J;
        let n = |v: u64| J::num(v as f64);
        J::obj(vec![
            ("connections", n(self.connections)),
            ("producers", n(self.producers)),
            ("subscribers", n(self.subscribers)),
            ("sessions", n(self.sessions)),
            ("frames_in", n(self.frames_in)),
            ("bytes_in", n(self.bytes_in)),
            ("frames_out", n(self.frames_out)),
            ("bytes_out", n(self.bytes_out)),
            ("chunks_in", n(self.chunks_in)),
            ("samples_in", n(self.samples_in)),
            ("chunks_dropped", n(self.chunks_dropped)),
            ("throttles_sent", n(self.throttles_sent)),
            ("seq_gaps", n(self.seq_gaps)),
            ("decode_errors", n(self.decode_errors)),
            ("records_published", n(self.records_published)),
            ("chunks_duplicate", n(self.chunks_duplicate)),
            ("sample_gaps", n(self.sample_gaps)),
            ("resumes", n(self.resumes)),
            ("sessions_parked", n(self.sessions_parked)),
            ("sessions_expired", n(self.sessions_expired)),
            ("idle_evictions", n(self.idle_evictions)),
            ("acks_sent", n(self.acks_sent)),
            ("subscribers_evicted", n(self.subscribers_evicted)),
            ("ingest_signal_us", n(self.ingest_signal_us)),
            ("ingest_wall_us", n(self.ingest_wall_us)),
            ("ingest_rt_ratio", J::num(self.ingest_rt_ratio())),
        ])
    }
}

// ---------------------------------------------------------------------------
// Subscribers
// ---------------------------------------------------------------------------

/// What [`serve_subscriber`] needs from its server.
pub(crate) struct SubscriberCtx<'a> {
    pub(crate) hub: &'a RecordHub,
    pub(crate) stats: &'a NetStats,
    pub(crate) shutdown: &'a AtomicBool,
}

/// Idle interval after which a subscriber connection gets a Heartbeat.
const HEARTBEAT: Duration = Duration::from_secs(1);

/// The wire frame for one hub message, plus whether it is the global
/// end-of-stream marker (after which the connection closes).
pub(crate) fn hub_msg_frame(msg: HubMsg) -> (Frame, bool) {
    match msg {
        HubMsg::Meta(m) => (Frame::StreamMeta(m), false),
        HubMsg::Record(r) => (Frame::Record(r), false),
        HubMsg::Stats(s) => (Frame::Stats(s), false),
        HubMsg::Bye => (Frame::Bye, true),
        HubMsg::SourceMeta { source, meta } => (
            Frame::SourceHello {
                source: source.to_string(),
                meta,
            },
            false,
        ),
        HubMsg::SourceRecord { source, record } => (
            Frame::SourceRecord {
                source: source.to_string(),
                record,
            },
            false,
        ),
        HubMsg::SourceBye { source } => (
            Frame::SourceBye {
                source: source.to_string(),
            },
            false,
        ),
    }
}

/// Sends one frame on the server→peer direction, tracking counters.
pub(crate) fn send_frame_on(
    stats: &NetStats,
    stream: &mut TcpStream,
    out_seq: &mut u32,
    frame: &Frame,
) -> io::Result<()> {
    let bytes = encode_frame(frame, *out_seq);
    *out_seq = out_seq.wrapping_add(1);
    stream.write_all(&bytes)?;
    stats.frames_out.add(1);
    stats.bytes_out.add(bytes.len() as u64);
    Ok(())
}

/// Serves one subscriber connection after its Hello: the optional Resume
/// handshake, the replay backlog, then the live queue with heartbeats and
/// shutdown drain.
pub(crate) fn serve_subscriber(
    ctx: &SubscriberCtx<'_>,
    mut stream: TcpStream,
    mut dec: FrameDecoder,
) {
    ctx.stats.subscribers.add(1);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // An optional Resume may follow the Hello: `position` is how many
    // stream messages the subscriber has already seen (u64::MAX, or no
    // Resume at all, means live-only). Wait briefly so a bare-Hello
    // subscriber is not stalled.
    let mut pos: Option<u64> = None;
    let resume_deadline = Instant::now() + Duration::from_millis(250);
    loop {
        match dec.next_frame() {
            Ok(Some(SeqFrame {
                frame: Frame::Resume { position, .. },
                ..
            })) => {
                ctx.stats.frames_in.add(1);
                pos = (position != u64::MAX).then_some(position);
                break;
            }
            Ok(Some(_)) => {
                ctx.stats.frames_in.add(1);
                break;
            }
            Ok(None) => {
                if Instant::now() >= resume_deadline || ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let mut buf = [0u8; 1024];
                match stream.read(&mut buf) {
                    Ok(0) => return,
                    Ok(n) => {
                        ctx.stats.bytes_in.add(n as u64);
                        dec.push(&buf[..n]);
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut
                            || e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
            Err(_) => {
                ctx.stats.decode_errors.add(1);
                return;
            }
        }
    }
    let (sub, replay, start, _lost) = ctx.hub.subscribe_from(pos);
    let mut out_seq = 0u32;
    // Ack the Hello the moment the subscription is registered, so a client
    // returning from connect() is guaranteed to see every record published
    // afterwards (without this, a fast producer session could complete
    // before the accept loop registers the subscriber). The Ack that
    // follows tells the client the absolute stream position of the first
    // message it will receive, anchoring its resume counter.
    if send_frame_on(ctx.stats, &mut stream, &mut out_seq, &Frame::Heartbeat).is_err()
        || send_frame_on(
            ctx.stats,
            &mut stream,
            &mut out_seq,
            &Frame::Ack {
                session: 0,
                position: start,
            },
        )
        .is_err()
    {
        ctx.hub.unsubscribe(sub.id);
        return;
    }
    // Replay the backlog the reconnecting subscriber missed; the live
    // queue continues seamlessly after it (the hub guarantees no gap and
    // no duplicate between the two).
    for msg in replay {
        let (frame, is_bye) = hub_msg_frame(msg);
        if is_bye {
            continue;
        }
        if send_frame_on(ctx.stats, &mut stream, &mut out_seq, &frame).is_err() {
            ctx.hub.unsubscribe(sub.id);
            return;
        }
    }
    loop {
        // During shutdown, keep draining queued messages (the hub's Bye is
        // already behind them for existing subscribers) — cutting over to
        // an immediate Bye here would drop the backlog on the floor. The
        // short timeout only bounds how long a post-Bye subscriber (whose
        // queue will never receive one) waits before being told.
        let timeout = if ctx.shutdown.load(Ordering::SeqCst) {
            Duration::from_millis(20)
        } else {
            HEARTBEAT
        };
        match sub.rx.recv_timeout(timeout) {
            Ok(msg) => {
                let (frame, is_bye) = hub_msg_frame(msg);
                if send_frame_on(ctx.stats, &mut stream, &mut out_seq, &frame).is_err() || is_bye {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    let _ = send_frame_on(ctx.stats, &mut stream, &mut out_seq, &Frame::Bye);
                    break;
                }
                // Idle: heartbeat keeps the connection observably alive and
                // doubles as a dead-peer probe (the write fails once the
                // subscriber is gone).
                if send_frame_on(ctx.stats, &mut stream, &mut out_seq, &Frame::Heartbeat).is_err() {
                    break;
                }
            }
            // Evicted by the hub as a slow consumer.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    ctx.hub.unsubscribe(sub.id);
}

// ---------------------------------------------------------------------------
// The `Server` preset
// ---------------------------------------------------------------------------

/// The one knob of the [`Server`] preset.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Shut down after the first completed producer session.
    pub once: bool,
}

/// A [`FleetServer`] under the name and signature the single-session server
/// had, kept because the repo benchmark (`bench/src/bin/perf_trace/micro.rs`,
/// which only a `benchmark` PR may edit) times loopback ingest through it.
/// Every session runs the one boxed pipeline, sessions taking turns on it.
/// Nothing else in the workspace calls this; once the benchmark binds
/// `FleetServer` itself, delete it.
pub struct Server(FleetServer);

/// Where the preset's one pipeline waits between sessions.
type Shared = Arc<(Mutex<Option<Box<dyn Pipeline>>>, Condvar)>;

/// One source's claim on the shared pipeline: taken out of the slot when
/// its session opens, put back when the source's analysis thread drops it.
struct Turn {
    shared: Shared,
    held: Option<Box<dyn Pipeline>>,
}

impl Pipeline for Turn {
    fn open(&mut self, meta: &StreamMeta) -> Box<dyn Session + '_> {
        let (slot, freed) = &*self.shared;
        self.held
            .get_or_insert_with(|| {
                let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    match slot.take() {
                        Some(pipeline) => break pipeline,
                        None => slot = freed.wait(slot).unwrap_or_else(|e| e.into_inner()),
                    }
                }
            })
            .open(meta)
    }
}

impl Drop for Turn {
    fn drop(&mut self) {
        let (slot, freed) = &*self.shared;
        if let Some(pipeline) = self.held.take() {
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(pipeline);
            freed.notify_one();
        }
    }
}

impl Server {
    /// Binds `addr` with default [`FleetConfig`] knobs; `cfg.once` is
    /// `expect: Some(1)`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        cfg: ServerConfig,
        pipeline: Box<dyn Pipeline>,
        registry: Option<Arc<Registry>>,
    ) -> io::Result<Self> {
        let shared: Shared = Arc::new((Mutex::new(Some(pipeline)), Condvar::new()));
        let factory: PipelineFactory = Box::new(move |_| {
            Box::new(Turn {
                shared: shared.clone(),
                held: None,
            })
        });
        let cfg = FleetConfig {
            expect: cfg.once.then_some(1),
            ..Default::default()
        };
        FleetServer::bind(addr, cfg, factory, registry).map(Self)
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.0.local_addr()
    }

    /// Runs the server to shutdown; returns the wire-level statistics.
    pub fn run(self) -> io::Result<NetStatsSnapshot> {
        Ok(self.0.run()?.net)
    }
}

#[cfg(test)]
mod tests;
