//! Client helpers: [`TraceSender`] (a producer that replays a `.rfdt` trace
//! or an in-memory sample buffer over TCP) and [`RecordSubscriber`] (a
//! consumer of the live record stream).
//!
//! Both speak the [`crate::frame`] protocol and are what the CLI's
//! `rfdump send` and `rfdump watch` modes wrap. Their resilient variants —
//! [`ResilientSender`] and [`ResilientSubscriber`] — add reconnect with
//! capped exponential backoff and deterministic jitter, resuming from the
//! last server-acknowledged position so a mid-stream disconnect yields no
//! duplicated and no lost data.

use crate::frame::{
    encode_frame, encode_frame_into, Frame, FrameDecoder, RecordMsg, Role, SeqFrame, StreamMeta,
    DEFAULT_CHUNK_SAMPLES, MAX_CHUNK_SAMPLES,
};
use rfd_dsp::Complex32;
use rfd_fault::{Action, FaultPlan, SplitMix64};
use rfd_telemetry::{event::EventKind, Registry};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timeout for establishing a TCP connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Write timeout on client sockets (a server stuck this long is hung).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Read timeout on the subscriber socket (the server heartbeats every
/// second, so silence this long means the connection is dead).
const SUB_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a producer waits for the server's session Ack.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Connects with [`CONNECT_TIMEOUT`] per resolved address.
fn connect_with_timeout<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
    let mut last: Option<io::Error> = None;
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, CONNECT_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

/// Reconnect pacing: capped exponential backoff with deterministic jitter.
///
/// The jitter is seeded, not wall-clock derived, so a test or chaos run
/// replays the exact same retry schedule every time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts before giving up (0 disables retries).
    pub max_retries: u32,
    /// First backoff delay; doubles each failed attempt.
    pub base: Duration,
    /// Upper bound on the backoff delay.
    pub cap: Duration,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            seed: 0x5246_4431, // "RFD1"
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): jitter in
    /// [0.5, 1.0]× of min(cap, base·2^attempt).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let raw = doubled.min(self.cap);
        let mut rng =
            SplitMix64::new(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        raw.mul_f64(0.5 + 0.5 * rng.next_f64())
    }
}

/// How fast a trace is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendRate {
    /// As fast as the link and the server's backpressure allow.
    #[default]
    Max,
    /// Paced so wall time tracks signal time (samples / sample_rate), the
    /// way a live radio front-end would deliver them.
    RealTime,
}

impl SendRate {
    /// Parses the CLI spelling (`max` / `real-time`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "max" => Some(SendRate::Max),
            "real-time" | "realtime" => Some(SendRate::RealTime),
            _ => None,
        }
    }
}

/// The chunk size a sender cuts a stream into: the caller's request, kept
/// to at least one sample and far enough under [`MAX_CHUNK_SAMPLES`] that a
/// chunk is never the latency of a whole capture.
fn clamp_chunk(chunk_samples: usize) -> usize {
    chunk_samples.clamp(1, DEFAULT_CHUNK_SAMPLES * 16)
}

/// When a send started and how fast its samples are due.
struct Pacer {
    t0: Instant,
    rate: SendRate,
    sample_rate: f64,
}

impl Pacer {
    fn start(t0: Instant, rate: SendRate, meta: &StreamMeta) -> Self {
        Self {
            t0,
            rate,
            sample_rate: meta.sample_rate,
        }
    }

    /// Under [`SendRate::RealTime`], sleeps off any lead over the wall-clock
    /// position the chunk starting at `start_sample` corresponds to.
    fn wait_until_due(&self, start_sample: u64) {
        if self.rate == SendRate::RealTime {
            let due = Duration::from_secs_f64(start_sample as f64 / self.sample_rate);
            let elapsed = self.t0.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
    }
}

/// What a completed send did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SendReport {
    /// Samples sent.
    pub samples: u64,
    /// SampleChunk frames sent.
    pub chunks: u64,
    /// Bytes written to the socket.
    pub bytes: u64,
    /// Throttle advisories received from the server while sending.
    pub throttles: u64,
    /// Reconnects performed (resilient sends only).
    pub reconnects: u64,
    /// Wall time spent sending.
    pub wall: Duration,
}

/// A producer connection that streams samples to an `rfdump serve`
/// instance.
pub struct TraceSender {
    stream: TcpStream,
    dec: FrameDecoder,
    /// The one encode buffer every outgoing frame is built in.
    wire: Vec<u8>,
    out_seq: u32,
    sent_meta: bool,
    /// Server-assigned session id (0 until the first Ack arrives).
    session: u64,
    /// Highest server-acknowledged contiguous sample position.
    acked: u64,
    /// Fleet source id: the stream opens with a `SourceHello` carrying this
    /// instead of a bare `StreamMeta`.
    source: Option<String>,
}

impl TraceSender {
    /// Connects and declares the producer role.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = connect_with_timeout(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let mut tx = Self {
            stream,
            dec: FrameDecoder::new(),
            wire: Vec::new(),
            out_seq: 0,
            sent_meta: false,
            session: 0,
            acked: 0,
            source: None,
        };
        tx.write_frame(&Frame::Hello(Role::Producer))?;
        Ok(tx)
    }

    /// Connects as a fleet capture sender: the stream opens with a
    /// `SourceHello` binding it to the stable source id `source` (validated
    /// here, so a bad id fails before any bytes hit the wire). Requires a
    /// fleet-mode server (`rfdump serve --fleet`). A sender that reconnects
    /// and re-handshakes with the same id resumes its session from the
    /// server's acknowledged position (see [`ResilientSender::with_source`]
    /// for the automatic version).
    pub fn connect_source<A: ToSocketAddrs>(addr: A, source: &str) -> io::Result<Self> {
        crate::frame::validate_source_id(source).map_err(io::Error::from)?;
        let mut tx = Self::connect(addr)?;
        tx.source = Some(source.to_string());
        Ok(tx)
    }

    /// The frame that opens the sample stream: tagged for fleet senders,
    /// a bare `StreamMeta` otherwise.
    fn open_frame(&self, meta: StreamMeta) -> Frame {
        match &self.source {
            Some(s) => Frame::SourceHello {
                source: s.clone(),
                meta,
            },
            None => Frame::StreamMeta(meta),
        }
    }

    /// The server-assigned session id (0 before the first Ack).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The last server-acknowledged contiguous sample position.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    fn write_frame(&mut self, frame: &Frame) -> io::Result<u64> {
        self.wire.clear();
        encode_frame_into(frame, self.out_seq, &mut self.wire);
        self.out_seq = self.out_seq.wrapping_add(1);
        self.stream.write_all(&self.wire)?;
        Ok(self.wire.len() as u64)
    }

    fn note_reverse_frame(&mut self, frame: &Frame) {
        if let Frame::Ack { session, position } = frame {
            self.session = *session;
            self.acked = self.acked.max(*position);
        }
    }

    /// Drains any server→producer frames waiting on the socket without
    /// blocking; returns how many were Throttle advisories. Ack frames
    /// update the acknowledged position as a side effect.
    fn poll_throttles(&mut self) -> io::Result<u64> {
        self.stream.set_nonblocking(true)?;
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break, // server closed its end
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.stream.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.stream.set_nonblocking(false)?;
        let mut throttles = 0u64;
        while let Some(SeqFrame { frame, .. }) = self.dec.next_frame().map_err(io::Error::from)? {
            if let Frame::Throttle { .. } = frame {
                throttles += 1;
            }
            self.note_reverse_frame(&frame);
        }
        Ok(throttles)
    }

    /// Blocks until the server's next Ack (the authoritative resume
    /// position). `ConnectionAborted` means the server sent Bye instead —
    /// the session cannot be resumed.
    fn wait_for_ack(&mut self) -> io::Result<(u64, u64)> {
        self.stream.set_nonblocking(false)?;
        self.stream
            .set_read_timeout(Some(Duration::from_millis(200)))?;
        let deadline = Instant::now() + ACK_TIMEOUT;
        let mut buf = [0u8; 4096];
        loop {
            while let Some(SeqFrame { frame, .. }) =
                self.dec.next_frame().map_err(io::Error::from)?
            {
                self.note_reverse_frame(&frame);
                match frame {
                    Frame::Ack { session, position } => return Ok((session, position)),
                    Frame::Bye => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server refused the session",
                        ))
                    }
                    _ => {}
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed before acking",
                    ))
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no ack within the timeout",
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Opens the sample stream, once per connection.
    fn open(&mut self, meta: StreamMeta, report: &mut SendReport) -> io::Result<()> {
        meta.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        if !self.sent_meta {
            let open = self.open_frame(meta);
            report.bytes += self.write_frame(&open)?;
            self.sent_meta = true;
        }
        Ok(())
    }

    /// Puts one chunk on the wire — the body of every send loop: pace,
    /// drain the reverse path (throttles, acks), write, count. A chunk no
    /// frame can carry is the caller's error, not a panic in the encoder.
    fn send_chunk(
        &mut self,
        pacer: &Pacer,
        start_sample: u64,
        iq: Vec<(i16, i16)>,
        report: &mut SendReport,
    ) -> io::Result<()> {
        let n = iq.len();
        if n > MAX_CHUNK_SAMPLES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk of {n} samples exceeds the frame limit of {MAX_CHUNK_SAMPLES}"),
            ));
        }
        pacer.wait_until_due(start_sample);
        report.throttles += self.poll_throttles()?;
        report.bytes += self.write_frame(&Frame::SampleChunk { start_sample, iq })?;
        report.samples += n as u64;
        report.chunks += 1;
        Ok(())
    }

    /// Streams pre-quantized i16 IQ chunks. The caller supplies an iterator
    /// of chunks; pacing is applied per chunk. A chunk of more than
    /// [`MAX_CHUNK_SAMPLES`] samples fails the send with `InvalidInput`.
    pub fn send_quantized<I>(
        &mut self,
        meta: StreamMeta,
        chunks: I,
        rate: SendRate,
    ) -> io::Result<SendReport>
    where
        I: IntoIterator<Item = Vec<(i16, i16)>>,
    {
        let mut report = SendReport::default();
        let pacer = Pacer::start(Instant::now(), rate, &meta);
        self.open(meta, &mut report)?;
        for iq in chunks {
            if !iq.is_empty() {
                self.send_chunk(&pacer, report.samples, iq, &mut report)?;
            }
        }
        self.stream.flush()?;
        report.wall = pacer.t0.elapsed();
        Ok(report)
    }

    /// Streams an in-memory sample buffer, quantizing to the wire's i16 IQ
    /// representation with `meta.scale` (the inverse of the server's
    /// reconstruction).
    pub fn send_samples(
        &mut self,
        meta: StreamMeta,
        samples: &[Complex32],
        rate: SendRate,
        chunk_samples: usize,
    ) -> io::Result<SendReport> {
        let inv = if meta.scale != 0.0 {
            1.0 / meta.scale
        } else {
            1.0
        };
        let quant = move |v: f32| -> i16 {
            let x = (v * inv).round();
            x.clamp(f32::from(i16::MIN), f32::from(i16::MAX)) as i16
        };
        let chunks = samples.chunks(clamp_chunk(chunk_samples)).map(move |c| {
            c.iter()
                .map(|s| (quant(s.re), quant(s.im)))
                .collect::<Vec<(i16, i16)>>()
        });
        // `chunks` borrows `samples`; collect is avoided by sending inline.
        self.send_quantized(meta, chunks, rate)
    }

    /// Replays a `.rfdt` trace file without loading it whole: chunked reads
    /// of the raw i16 IQ payload go straight onto the wire, so the server
    /// reconstructs bit-identical samples to an offline `decode_trace`.
    pub fn send_trace_file(
        &mut self,
        path: &Path,
        rate: SendRate,
        chunk_samples: usize,
    ) -> io::Result<SendReport> {
        let mut reader = rfd_ether::trace::ChunkedTraceReader::open(path)?;
        let h = reader.header();
        let meta = StreamMeta {
            sample_rate: h.sample_rate,
            center_hz: h.center_hz,
            scale: h.scale,
        };
        let chunk = clamp_chunk(chunk_samples);
        let mut report = SendReport::default();
        let pacer = Pacer::start(Instant::now(), rate, &meta);
        self.open(meta, &mut report)?;
        while let Some(iq) = reader.next_chunk(chunk)? {
            self.send_chunk(&pacer, report.samples, iq, &mut report)?;
        }
        self.stream.flush()?;
        report.wall = pacer.t0.elapsed();
        Ok(report)
    }

    /// Ends the session cleanly (Bye) and closes the connection.
    pub fn finish(mut self) -> io::Result<()> {
        self.write_frame(&Frame::Bye)?;
        self.stream.flush()?;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        // Drain the reverse path until the server closes its end. Closing
        // with unread Throttle bytes in our receive buffer would turn this
        // into a TCP RST, destroying in-flight sample data the server has
        // not yet read.
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_read_timeout(Some(Duration::from_secs(30)));
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        Ok(())
    }
}

/// A trace sender that survives mid-stream disconnects: on any send error
/// it reconnects with [`RetryPolicy`] backoff, offers the server a
/// `Resume`, rewinds the trace file to the server's authoritative
/// acknowledged sample, and continues. The server deduplicates the overlap,
/// so the analyzed stream is byte-identical to an uninterrupted send.
///
/// With [`ResilientSender::with_source`] the same machinery runs under the
/// fleet handshake: every (re)connection opens with a `SourceHello` for the
/// stable source id, the fleet server reattaches the parked session and
/// acks its committed high-water mark, and the sender seeks the trace to
/// it — per-source resume.
pub struct ResilientSender {
    addr: String,
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    registry: Option<Arc<Registry>>,
    source: Option<String>,
}

impl ResilientSender {
    /// A resilient sender for `addr`, with default retries and the ambient
    /// (`RFD_FAULTS`) fault plan.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            retry: RetryPolicy::default(),
            faults: FaultPlan::ambient(),
            registry: None,
            source: None,
        }
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sends as the fleet source `source`: every (re)connection handshakes
    /// with a `SourceHello` for this id, so a fleet server resumes the
    /// session instead of seeing a stranger.
    pub fn with_source(mut self, source: &str) -> Self {
        self.source = Some(source.to_string());
        self
    }

    /// Overrides the fault plan (chaos testing).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Emits NetBackoff/NetResume events into `registry`'s event log.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn emit_backoff(&self, attempt: u32, err: &io::Error) {
        if let Some(r) = &self.registry {
            r.emit_event(
                EventKind::NetBackoff,
                format!("send attempt {attempt}: {err}"),
            );
        }
    }

    fn emit_resume(&self, session: Option<u64>, pos: u64) {
        if let Some(r) = &self.registry {
            let sess = session.map_or_else(|| "new".into(), |s| s.to_string());
            r.emit_event(
                EventKind::NetResume,
                format!("send resumed session {sess} at sample {pos}"),
            );
        }
    }

    /// Connects, declaring the fleet source id when one is set.
    fn connect(&self) -> io::Result<TraceSender> {
        match &self.source {
            Some(s) => TraceSender::connect_source(&self.addr[..], s),
            None => TraceSender::connect(&self.addr[..]),
        }
    }

    /// Completes the session handshake on a fresh connection: a
    /// `StreamMeta` when `session` is unknown, a `Resume` otherwise. Fleet
    /// sends open with a `SourceHello` instead — the source id *is* the
    /// resume token, and the Resume that follows a reconnect only declares
    /// the client's last-acked position (advisory; the server's ack is
    /// authoritative either way). Returns the sender positioned at the
    /// server's acknowledged sample (written into `pos`).
    fn handshake(
        &self,
        mut tx: TraceSender,
        meta: StreamMeta,
        session: Option<u64>,
        pos: &mut u64,
    ) -> io::Result<TraceSender> {
        match (&self.source, session) {
            (None, None) => {
                tx.write_frame(&Frame::StreamMeta(meta))?;
            }
            (None, Some(id)) => {
                tx.write_frame(&Frame::Resume {
                    session: id,
                    position: *pos,
                })?;
            }
            (Some(s), None) => {
                tx.write_frame(&Frame::SourceHello {
                    source: s.clone(),
                    meta,
                })?;
            }
            (Some(s), Some(id)) => {
                tx.write_frame(&Frame::SourceHello {
                    source: s.clone(),
                    meta,
                })?;
                tx.write_frame(&Frame::Resume {
                    session: id,
                    position: *pos,
                })?;
            }
        }
        tx.sent_meta = true;
        tx.stream.flush()?;
        let (_, position) = tx.wait_for_ack()?;
        *pos = position;
        Ok(tx)
    }

    /// Books one failed attempt: gives up with `err` once the retry budget
    /// is spent, otherwise emits the backoff event, sleeps the policy's
    /// delay and counts a reconnect.
    fn back_off(
        &self,
        attempt: &mut u32,
        report: &mut SendReport,
        err: io::Error,
    ) -> io::Result<()> {
        if *attempt >= self.retry.max_retries {
            return Err(err);
        }
        self.emit_backoff(*attempt, &err);
        std::thread::sleep(self.retry.backoff(*attempt));
        *attempt += 1;
        report.reconnects += 1;
        Ok(())
    }

    /// Streams a `.rfdt` trace file, transparently reconnecting and
    /// resuming on failure (injected or real).
    pub fn send_trace_file(
        &self,
        path: &Path,
        rate: SendRate,
        chunk_samples: usize,
    ) -> io::Result<SendReport> {
        let mut report = SendReport::default();
        let t0 = Instant::now();
        let mut attempt = 0u32;

        // Connect before touching the trace file — the plain sender's error
        // ordering, which callers rely on: a dead server surfaces as the
        // connect error, and a live server always observes the connection
        // even when the trace turns out to be unreadable.
        if let Some(s) = &self.source {
            crate::frame::validate_source_id(s).map_err(io::Error::from)?;
        }
        let mut pre = loop {
            match self.connect() {
                Ok(tx) => break Some(tx),
                Err(e) => self.back_off(&mut attempt, &mut report, e)?,
            }
        };
        attempt = 0;

        let mut reader = rfd_ether::trace::ChunkedTraceReader::open(path)?;
        let h = reader.header();
        let meta = StreamMeta {
            sample_rate: h.sample_rate,
            center_hz: h.center_hz,
            scale: h.scale,
        };
        meta.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let chunk = clamp_chunk(chunk_samples);
        let pacer = Pacer::start(t0, rate, &meta);

        let mut session: Option<u64> = None;
        let mut pos = 0u64;

        'session: loop {
            let conn = match pre.take() {
                Some(tx) => Ok(tx),
                None => self.connect(),
            };
            let mut tx = match conn.and_then(|tx| self.handshake(tx, meta, session, &mut pos)) {
                Ok(tx) => tx,
                Err(e) => {
                    self.back_off(&mut attempt, &mut report, e)?;
                    continue 'session;
                }
            };
            // Every backoff counts a reconnect, so a handshake that follows
            // one is a recovery.
            if report.reconnects > 0 {
                self.emit_resume(session, pos);
            }
            session = Some(tx.session);
            reader.seek_to_sample(pos)?;
            let mut start_sample = pos;
            while let Some(iq) = reader.next_chunk(chunk)? {
                let n = iq.len() as u64;
                match self.send_chunk(&mut tx, &pacer, start_sample, iq, &mut report) {
                    Ok(()) => {
                        start_sample += n;
                        attempt = 0; // progress resets the retry budget
                    }
                    Err(e) => {
                        self.back_off(&mut attempt, &mut report, e)?;
                        pos = tx.acked;
                        continue 'session;
                    }
                }
            }
            // End of trace: close cleanly. A failure here still has the
            // session parked server-side; retry the tail via resume.
            match tx.stream.flush().and(Ok(tx)).and_then(TraceSender::finish) {
                Ok(()) => {
                    report.wall = t0.elapsed();
                    return Ok(report);
                }
                Err(e) => self.back_off(&mut attempt, &mut report, e)?,
            }
        }
    }

    /// Sends one chunk, applying any injected fault at `net.send.chunk`.
    fn send_chunk(
        &self,
        tx: &mut TraceSender,
        pacer: &Pacer,
        start_sample: u64,
        iq: Vec<(i16, i16)>,
        report: &mut SendReport,
    ) -> io::Result<()> {
        match self
            .faults
            .as_ref()
            .and_then(|p| p.decide("net.send.chunk"))
        {
            Some(Action::Disconnect) => {
                let _ = tx.stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect",
                ));
            }
            Some(Action::Truncate) => {
                // Half a frame on the wire, then a hard close: the server
                // sees a truncated stream and must not mis-ingest it.
                let bytes = encode_frame(
                    &Frame::SampleChunk {
                        start_sample,
                        iq: iq.clone(),
                    },
                    tx.out_seq,
                );
                let _ = tx.stream.write_all(&bytes[..bytes.len() / 2]);
                let _ = tx.stream.flush();
                let _ = tx.stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected truncated frame",
                ));
            }
            Some(Action::Corrupt) => {
                // A bit-flipped payload: the server's CRC check rejects it
                // and drops the connection; resume re-sends it intact.
                let mut bytes = encode_frame(
                    &Frame::SampleChunk {
                        start_sample,
                        iq: iq.clone(),
                    },
                    tx.out_seq,
                );
                let last = bytes.len() - 1;
                bytes[last] ^= 0x55;
                let _ = tx.stream.write_all(&bytes);
                let _ = tx.stream.flush();
                let _ = tx.stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected corrupt frame",
                ));
            }
            Some(Action::Io) | Some(Action::Panic) => {
                return Err(io::Error::other("injected send error"));
            }
            Some(Action::Slow(d)) => std::thread::sleep(d),
            Some(Action::Spin(d)) => rfd_fault::spin_for(d),
            Some(Action::Kill) => std::process::abort(),
            None => {}
        }
        tx.send_chunk(pacer, start_sample, iq, report)
    }
}

/// One event from the server's record stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SubEvent {
    /// Stream metadata for a session now starting.
    Meta(StreamMeta),
    /// One decoded record.
    Record(RecordMsg),
    /// End-of-session statistics document (JSON).
    Stats(String),
    /// A fleet source joined the merged stream (its metadata).
    SourceMeta {
        /// The stable source id.
        source: String,
        /// The source's stream metadata.
        meta: StreamMeta,
    },
    /// One decoded record from a tagged fleet source.
    SourceRecord {
        /// The stable source id.
        source: String,
        /// The record.
        record: RecordMsg,
    },
    /// A fleet source's stream ended; no further records carry its tag.
    SourceBye {
        /// The stable source id.
        source: String,
    },
    /// Idle keep-alive.
    Heartbeat,
    /// The server is done; no further events follow.
    Bye,
}

/// A subscriber connection that receives the live record stream from an
/// `rfdump serve` instance.
pub struct RecordSubscriber {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Absolute stream position of the next expected message (anchored by
    /// the server's Ack at connect; the resume cursor).
    pos: u64,
}

impl RecordSubscriber {
    /// Connects for live streaming (no replay of missed messages).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_from(addr, u64::MAX)
    }

    /// Connects resuming from absolute stream position `pos` (`u64::MAX`
    /// means live-only). Blocks until the server acknowledges the
    /// subscription (an immediate Heartbeat plus a position Ack), so every
    /// record published after `connect` returns is guaranteed to reach
    /// this subscriber.
    pub fn connect_from<A: ToSocketAddrs>(addr: A, pos: u64) -> io::Result<Self> {
        let mut stream = connect_with_timeout(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SUB_READ_TIMEOUT))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.write_all(&encode_frame(&Frame::Hello(Role::Subscriber), 0))?;
        stream.write_all(&encode_frame(
            &Frame::Resume {
                session: 0,
                position: pos,
            },
            1,
        ))?;
        let mut sub = Self {
            stream,
            dec: FrameDecoder::new(),
            pos: 0,
        };
        match sub.next_raw()? {
            Frame::Heartbeat => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected subscription ack, got {other:?}"),
                ))
            }
        }
        match sub.next_raw()? {
            Frame::Ack { position, .. } => sub.pos = position,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected position ack, got {other:?}"),
                ))
            }
        }
        Ok(sub)
    }

    /// Absolute stream position of the next expected message — the value a
    /// reconnect passes to [`RecordSubscriber::connect_from`].
    pub fn position(&self) -> u64 {
        self.pos
    }

    fn next_raw(&mut self) -> io::Result<Frame> {
        loop {
            if let Some(SeqFrame { frame, .. }) = self.dec.next_frame().map_err(io::Error::from)? {
                return Ok(frame);
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the stream without a Bye",
                    ))
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks for the next event. `ErrorKind::UnexpectedEof` means the
    /// server went away without a Bye.
    pub fn next_event(&mut self) -> io::Result<SubEvent> {
        loop {
            let ev = match self.next_raw()? {
                Frame::StreamMeta(m) => SubEvent::Meta(m),
                Frame::Record(r) => SubEvent::Record(r),
                Frame::Stats(s) => SubEvent::Stats(s),
                Frame::SourceHello { source, meta } => SubEvent::SourceMeta { source, meta },
                Frame::SourceRecord { source, record } => SubEvent::SourceRecord { source, record },
                Frame::SourceBye { source } => SubEvent::SourceBye { source },
                Frame::Heartbeat => SubEvent::Heartbeat,
                Frame::Bye => SubEvent::Bye,
                // Late position acks just refresh the resume cursor.
                Frame::Ack { position, .. } => {
                    self.pos = self.pos.max(position);
                    continue;
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame on subscriber stream: {other:?}"),
                    ))
                }
            };
            // Stream messages advance the resume cursor; heartbeats and
            // the global Bye are connection events outside the replayable
            // stream.
            if matches!(
                ev,
                SubEvent::Meta(_)
                    | SubEvent::Record(_)
                    | SubEvent::Stats(_)
                    | SubEvent::SourceMeta { .. }
                    | SubEvent::SourceRecord { .. }
                    | SubEvent::SourceBye { .. }
            ) {
                self.pos += 1;
            }
            return Ok(ev);
        }
    }
}

/// A subscriber that survives server-side disconnects and injected read
/// faults: on any error it reconnects with backoff and resumes from its
/// stream position, so the observed event sequence has no duplicates and
/// no gaps (up to the server's bounded replay history).
pub struct ResilientSubscriber {
    addr: String,
    inner: Option<RecordSubscriber>,
    pos: u64,
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    attempt: u32,
    reconnects: u64,
    registry: Option<Arc<Registry>>,
}

impl ResilientSubscriber {
    /// Connects for live streaming with default retries and the ambient
    /// fault plan.
    pub fn connect(addr: impl Into<String>) -> io::Result<Self> {
        let addr = addr.into();
        let inner = RecordSubscriber::connect(&addr[..])?;
        let pos = inner.position();
        Ok(Self {
            addr,
            inner: Some(inner),
            pos,
            retry: RetryPolicy::default(),
            faults: FaultPlan::ambient(),
            attempt: 0,
            reconnects: 0,
            registry: None,
        })
    }

    /// Connects resuming from absolute stream position `pos` (`u64::MAX`
    /// means live-only), with default retries and the ambient fault plan.
    pub fn connect_from(addr: impl Into<String>, pos: u64) -> io::Result<Self> {
        let addr = addr.into();
        let inner = RecordSubscriber::connect_from(&addr[..], pos)?;
        let pos = inner.position();
        Ok(Self {
            addr,
            inner: Some(inner),
            pos,
            retry: RetryPolicy::default(),
            faults: FaultPlan::ambient(),
            attempt: 0,
            reconnects: 0,
            registry: None,
        })
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the fault plan (chaos testing).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Emits NetBackoff/NetResume events into `registry`'s event log.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Absolute stream position of the next expected message.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Blocks for the next event, reconnecting and resuming on failure.
    pub fn next_event(&mut self) -> io::Result<SubEvent> {
        loop {
            // Injected read faults force the reconnect path.
            let injected: Option<io::Error> =
                match self.faults.as_ref().and_then(|p| p.decide("net.sub.read")) {
                    Some(Action::Disconnect) | Some(Action::Io) => Some(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected subscriber fault",
                    )),
                    Some(Action::Slow(d)) => {
                        std::thread::sleep(d);
                        None
                    }
                    Some(Action::Spin(d)) => {
                        rfd_fault::spin_for(d);
                        None
                    }
                    _ => None,
                };
            let result = match injected {
                Some(e) => {
                    // Kill the socket so the server parks/evicts us for real.
                    if let Some(sub) = &self.inner {
                        let _ = sub.stream.shutdown(Shutdown::Both);
                    }
                    self.inner = None;
                    Err(e)
                }
                None => match self.inner.as_mut() {
                    Some(sub) => sub.next_event(),
                    None => Err(io::Error::new(io::ErrorKind::NotConnected, "not connected")),
                },
            };
            match result {
                Ok(ev) => {
                    if let Some(sub) = &self.inner {
                        self.pos = sub.position();
                    }
                    self.attempt = 0;
                    return Ok(ev);
                }
                Err(e) => {
                    self.inner = None;
                    if self.attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    if let Some(r) = &self.registry {
                        r.emit_event(
                            EventKind::NetBackoff,
                            format!("subscribe attempt {}: {e}", self.attempt),
                        );
                    }
                    std::thread::sleep(self.retry.backoff(self.attempt));
                    self.attempt += 1;
                    if let Ok(sub) = RecordSubscriber::connect_from(&self.addr[..], self.pos) {
                        self.reconnects += 1;
                        self.pos = sub.position();
                        self.inner = Some(sub);
                        if let Some(r) = &self.registry {
                            r.emit_event(
                                EventKind::NetResume,
                                format!("subscribe resumed at position {}", self.pos),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Checkpoint file a [`JournaledSubscriber`] keeps in its journal directory.
pub const SUBSCRIBER_CHECKPOINT: &str = "subscriber.rfdc";

/// A subscriber whose stream position survives process restarts: the last
/// durably *processed* position is persisted as an atomic checkpoint, and a
/// fresh process resumes the subscription from it — so across crashes each
/// stream message is delivered exactly once to a caller that checkpoints
/// between events (the position covering an event is written when the
/// caller comes back for the next one, i.e. after it finished processing).
pub struct JournaledSubscriber {
    inner: ResilientSubscriber,
    checkpoint: std::path::PathBuf,
    saved: u64,
}

impl JournaledSubscriber {
    /// Connects, resuming from the checkpoint under `dir` when one exists
    /// (live-only otherwise). Creates `dir` if missing.
    pub fn connect(addr: impl Into<String>, dir: &std::path::Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let checkpoint = dir.join(SUBSCRIBER_CHECKPOINT);
        let saved = match rfd_journal::read_checkpoint(&checkpoint)? {
            Some(payload) => {
                let mut pos = 0;
                rfd_journal::get_u64(&payload, &mut pos).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad subscriber checkpoint")
                })?
            }
            None => u64::MAX,
        };
        let inner = if saved == u64::MAX {
            ResilientSubscriber::connect(addr)?
        } else {
            ResilientSubscriber::connect_from(addr, saved)?
        };
        Ok(Self {
            inner,
            checkpoint,
            saved,
        })
    }

    /// Overrides the fault plan (chaos testing).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.inner = self.inner.with_faults(faults);
        self
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }

    /// Blocks for the next event. Before fetching, the position covering
    /// every previously returned event is checkpointed — returning from
    /// this call acknowledges everything before it.
    pub fn next_event(&mut self) -> io::Result<SubEvent> {
        let pos = self.inner.position();
        if pos != self.saved && pos != u64::MAX {
            let mut payload = Vec::with_capacity(8);
            rfd_journal::put_u64(&mut payload, pos);
            rfd_journal::write_checkpoint(&self.checkpoint, &payload)?;
            self.saved = pos;
        }
        self.inner.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
            seed: 42,
        };
        let a: Vec<Duration> = (0..8).map(|i| p.backoff(i)).collect();
        let b: Vec<Duration> = (0..8).map(|i| p.backoff(i)).collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        for (i, d) in a.iter().enumerate() {
            let raw = p.base.saturating_mul(1 << i.min(20)).min(p.cap);
            assert!(*d >= raw.mul_f64(0.5) && *d <= raw, "attempt {i}: {d:?}");
        }
        // Far attempts are capped (within jitter) regardless of exponent.
        assert!(p.backoff(30) <= p.cap);
    }

    #[test]
    fn a_chunk_no_frame_can_carry_is_clamped_or_refused_never_a_panic() {
        use crate::fleet::{FleetConfig, FleetServer, PipelineFactory};
        let factory: PipelineFactory =
            Box::new(|_| Box::new(|_: &StreamMeta, _: Vec<Complex32>| Vec::<RecordMsg>::new()));
        let cfg = FleetConfig {
            expect: Some(1),
            ..Default::default()
        };
        let server = FleetServer::bind("127.0.0.1:0", cfg, factory, None).unwrap();
        let addr = server.local_addr().unwrap();
        let run = std::thread::spawn(move || server.run().unwrap());
        let meta = crate::fleet::tests::meta();

        // send_samples cuts whatever it is asked for down to a legal size.
        let samples = vec![Complex32::new(0.1, -0.1); 300_000];
        let mut tx = TraceSender::connect(addr).unwrap();
        let report = tx
            .send_samples(meta, &samples, SendRate::Max, 1 << 20)
            .unwrap();
        assert_eq!(report.samples, 300_000);
        assert!(report.chunks > 1);

        // send_quantized sends the caller's own chunks, so it can only refuse.
        let oversize = vec![(1i16, -1i16); MAX_CHUNK_SAMPLES + 1];
        let err = tx
            .send_quantized(meta, [oversize], SendRate::Max)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        tx.finish().unwrap();
        assert_eq!(run.join().unwrap().net.samples_in, 300_000);
    }
}
