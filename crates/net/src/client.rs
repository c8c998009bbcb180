//! Client helpers: [`TraceSender`] (a producer that replays a `.rfdt` trace
//! or an in-memory sample buffer over TCP) and [`RecordSubscriber`] (a
//! consumer of the live record stream).
//!
//! Both speak the [`crate::frame`] protocol and are what the CLI's
//! `rfdump send` and `rfdump watch` modes wrap. Both survive a dropped
//! connection the same way: reconnect with capped exponential backoff and
//! deterministic jitter ([`RetryPolicy`]), then resume from the last
//! server-acknowledged position, so a mid-stream disconnect yields no
//! duplicated and no lost data. A subscriber opened on a checkpoint
//! directory keeps that position across process restarts as well.

use crate::frame::{
    append_pairs, encode_frame, encode_frame_into, seal_sample_chunk, Frame, FrameDecoder,
    RecordMsg, Role, SeqFrame, StreamMeta, CHUNK_BODY_OFFSET, DEFAULT_CHUNK_SAMPLES,
    MAX_CHUNK_SAMPLES,
};
use rfd_dsp::Complex32;
use rfd_fault::{Action, FaultPlan, SplitMix64};
use rfd_telemetry::{event::EventKind, Registry};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
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
/// Checkpoint file a subscriber keeps in its checkpoint directory.
const SUBSCRIBER_CHECKPOINT: &str = "subscriber.rfdc";

/// Connects with [`CONNECT_TIMEOUT`] per address.
fn connect_with_timeout(addrs: &[SocketAddr]) -> io::Result<TcpStream> {
    let mut last: Option<io::Error> = None;
    for a in addrs {
        match TcpStream::connect_timeout(a, CONNECT_TIMEOUT) {
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

    /// One attempt, no retries.
    fn single() -> Self {
        Self {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// Books one failed attempt: gives up with `err` once the budget is
    /// spent, otherwise sleeps retry number `*attempt`'s delay and counts it.
    fn pause(&self, attempt: &mut u32, err: io::Error) -> io::Result<()> {
        if *attempt >= self.max_retries {
            return Err(err);
        }
        std::thread::sleep(self.backoff(*attempt));
        *attempt += 1;
        Ok(())
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
    /// Failed attempts retried: reconnects during the send, plus the
    /// retried connects of [`TraceSender::connect_retrying`] on its first.
    pub reconnects: u64,
    /// Wall time spent sending.
    pub wall: Duration,
}

/// Where a send's chunks of i16 IQ samples come from.
trait ChunkSource {
    /// Whether the source can go back to an acknowledged sample, so a
    /// failed send may reconnect and resume instead of failing.
    const REWINDS: bool = true;
    /// Appends the next chunk's wire body — interleaved little-endian i16
    /// I/Q pairs, 4 bytes a sample — to `out` and returns its sample count;
    /// `0` at the end.
    fn append_chunk(&mut self, out: &mut Vec<u8>) -> io::Result<usize>;
    /// Moves to `sample`, the position a handshake's Ack carried, if this
    /// source resumes there (`reconnect` is false on the send's first
    /// connection); returns whether it did.
    fn seek(&mut self, sample: u64, reconnect: bool) -> io::Result<bool>;
}

/// A `.rfdt` file read `.1` samples at a time, its payload bytes copied
/// as they are stored: the trace's i16 I/Q layout is the wire's. It follows
/// the server's position from the first handshake on, so a restarted fleet
/// sender skips what already landed.
struct FileChunks(rfd_ether::trace::ChunkedTraceReader, usize);

impl ChunkSource for FileChunks {
    fn append_chunk(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        self.0.read_raw(out, self.1)
    }

    fn seek(&mut self, sample: u64, _reconnect: bool) -> io::Result<bool> {
        self.0.seek_to_sample(sample).map(|()| true)
    }
}

/// An in-memory buffer, quantized to the wire's i16 IQ chunk by chunk. It
/// starts at the caller's sample 0 and seeks only on a reconnect.
struct SliceChunks<'a> {
    samples: &'a [Complex32],
    inv_scale: f32,
    chunk: usize,
    next: usize,
}

impl ChunkSource for SliceChunks<'_> {
    fn append_chunk(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let rest = &self.samples[self.next..];
        let chunk = &rest[..rest.len().min(self.chunk)];
        self.next += chunk.len();
        let quant = |v: f32| -> i16 {
            let x = (v * self.inv_scale).round();
            x.clamp(f32::from(i16::MIN), f32::from(i16::MAX)) as i16
        };
        Ok(append_pairs(
            out,
            chunk.iter().map(|s| (quant(s.re), quant(s.im))),
        ))
    }

    fn seek(&mut self, sample: u64, reconnect: bool) -> io::Result<bool> {
        if reconnect {
            self.next = sample.min(self.samples.len() as u64) as usize;
        }
        Ok(reconnect)
    }
}

/// The caller's own chunks. An iterator cannot go back, so a send from one
/// fails on its first error.
struct IterChunks<I>(I);

impl<I: Iterator<Item = Vec<(i16, i16)>>> ChunkSource for IterChunks<I> {
    const REWINDS: bool = false;

    fn append_chunk(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        Ok(self
            .0
            .find(|iq| !iq.is_empty())
            .map_or(0, |iq| append_pairs(out, iq.into_iter())))
    }

    fn seek(&mut self, _sample: u64, _reconnect: bool) -> io::Result<bool> {
        Ok(false)
    }
}

/// Opens a producer connection and declares the role (the Hello is frame 0).
fn dial(addrs: &[SocketAddr]) -> io::Result<TcpStream> {
    let mut stream = connect_with_timeout(addrs)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))?;
    Ok(stream)
}

/// A producer connection that streams samples to an `rfdump serve`
/// instance.
///
/// Every stream opens with a handshake the server acks: a `StreamMeta`, or
/// for a fleet source a `SourceHello` (the source id is the resume token).
/// On a send error the sender reconnects under its [`RetryPolicy`] (by
/// default a single attempt, so the error is final), re-handshakes with a
/// `Resume` for its session, and continues from the server's acknowledged
/// sample. The server deduplicates any overlap, so the analyzed stream is
/// byte-identical to an uninterrupted send.
pub struct TraceSender {
    /// Where every (re)connect goes, resolved once.
    addrs: Vec<SocketAddr>,
    stream: TcpStream,
    dec: FrameDecoder,
    /// The one encode buffer every outgoing frame is built in.
    wire: Vec<u8>,
    out_seq: u32,
    /// Server-assigned session id; `None` until a stream is open.
    session: Option<u64>,
    /// Highest server-acknowledged contiguous sample position.
    acked: u64,
    /// Set once the session ended with a Bye.
    closed: bool,
    /// Fleet source id: the stream opens with a `SourceHello` carrying this
    /// instead of a bare `StreamMeta`.
    source: Option<String>,
    retry: RetryPolicy,
    faults: Option<Arc<FaultPlan>>,
    registry: Option<Arc<Registry>>,
    /// Retried first connects, booked into the next send's report.
    connect_retries: u64,
}

impl TraceSender {
    /// Connects and declares the producer role.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_retrying(addr, None, RetryPolicy::single())
    }

    /// Connects as a fleet capture sender: the stream opens with a
    /// `SourceHello` binding it to the stable source id `source` (validated
    /// here, so a bad id fails before any bytes hit the wire). A sender that
    /// reconnects and re-handshakes with the same id resumes its session
    /// from the server's acknowledged position.
    pub fn connect_source<A: ToSocketAddrs>(addr: A, source: &str) -> io::Result<Self> {
        Self::connect_retrying(addr, Some(source), RetryPolicy::single())
    }

    /// [`TraceSender::connect`] or, with a `source`,
    /// [`TraceSender::connect_source`], under the retry policy `retry`: a
    /// failed connect is retried, and so is every send that fails later
    /// (the other two make a single attempt).
    pub fn connect_retrying<A: ToSocketAddrs>(
        addr: A,
        source: Option<&str>,
        retry: RetryPolicy,
    ) -> io::Result<Self> {
        if let Some(s) = source {
            crate::frame::validate_source_id(s).map_err(io::Error::from)?;
        }
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut attempt = 0;
        let stream = loop {
            match dial(&addrs) {
                Ok(s) => break s,
                Err(e) => retry.pause(&mut attempt, e)?,
            }
        };
        Ok(Self {
            addrs,
            stream,
            dec: FrameDecoder::new(),
            wire: Vec::new(),
            out_seq: 1,
            session: None,
            acked: 0,
            closed: false,
            source: source.map(str::to_string),
            retry,
            faults: FaultPlan::ambient(),
            registry: None,
            connect_retries: u64::from(attempt),
        })
    }

    /// Overrides the fault plan (chaos testing; the ambient `RFD_FAULTS`
    /// plan by default).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Emits NetBackoff/NetResume events into `registry`'s event log.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    fn write_frame(&mut self, frame: &Frame) -> io::Result<u64> {
        self.wire.clear();
        encode_frame_into(frame, self.out_seq, &mut self.wire);
        self.out_seq = self.out_seq.wrapping_add(1);
        self.stream.write_all(&self.wire)?;
        Ok(self.wire.len() as u64)
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
            match frame {
                Frame::Throttle { .. } => throttles += 1,
                Frame::Ack { position, .. } => self.acked = self.acked.max(position),
                _ => {}
            }
        }
        Ok(throttles)
    }

    /// Blocks until the server's next Ack (the authoritative resume
    /// position). `ConnectionAborted` means the server sent Bye instead —
    /// the session cannot be resumed.
    fn wait_for_ack(&mut self) -> io::Result<(u64, u64)> {
        self.stream.set_read_timeout(Some(ACK_TIMEOUT))?;
        loop {
            match next_raw(&mut self.stream, &mut self.dec) {
                Ok(Frame::Ack { session, position }) => return Ok((session, position)),
                Ok(Frame::Bye) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server refused the session",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no ack within the timeout",
                    ))
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Opens the sample stream on this connection: the open frame, then a
    /// `Resume` declaring the last-acked position when the session is known
    /// (advisory; the server's ack is authoritative either way), then waits
    /// for the Ack. Returns the acknowledged sample.
    fn handshake(&mut self, meta: StreamMeta, report: &mut SendReport) -> io::Result<u64> {
        // An anonymous session reattaches by its number alone.
        let open = match (&self.source, self.session) {
            (Some(s), _) => Some(Frame::SourceHello {
                source: s.clone(),
                meta,
            }),
            (None, None) => Some(Frame::StreamMeta(meta)),
            (None, Some(_)) => None,
        };
        if let Some(open) = open {
            report.bytes += self.write_frame(&open)?;
        }
        let before = self.session;
        if let Some(session) = before {
            let position = self.acked;
            report.bytes += self.write_frame(&Frame::Resume { session, position })?;
        }
        self.stream.flush()?;
        let (session, position) = self.wait_for_ack()?;
        self.session = Some(session);
        self.acked = position;
        // Every backoff counts a reconnect, so a handshake that follows one
        // is a recovery.
        if let Some(r) = self.registry.as_ref().filter(|_| report.reconnects > 0) {
            let sess = before.map_or_else(|| "new".into(), |s| s.to_string());
            r.emit_event(
                EventKind::NetResume,
                format!("send resumed session {sess} at sample {position}"),
            );
        }
        Ok(position)
    }

    /// Replaces a broken connection with a fresh producer connection.
    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = dial(&self.addrs)?;
        self.dec = FrameDecoder::new();
        self.out_seq = 1;
        Ok(())
    }

    /// Drops the connection the way an injected fault says: at once, after
    /// half of the chunk frame in the send buffer, or after the whole frame
    /// with a flipped payload byte the server's CRC check rejects. The
    /// server must not mis-ingest either, and resume re-sends the chunk
    /// intact.
    fn cut(&mut self, action: Action) -> io::Error {
        let frame = &mut self.wire;
        let (bytes, why) = match action {
            Action::Truncate => (&frame[..frame.len() / 2], "injected truncated frame"),
            Action::Corrupt => {
                if let Some(last) = frame.last_mut() {
                    *last ^= 0x55;
                }
                (&frame[..], "injected corrupt frame")
            }
            _ => (&frame[..0], "injected disconnect"),
        };
        let _ = self.stream.write_all(bytes);
        let _ = self.stream.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
        io::Error::new(io::ErrorKind::ConnectionReset, why)
    }

    /// Frames `src`'s next chunk, starting at `start_sample`, in the send
    /// buffer: the source appends its body behind the room for the header
    /// and chunk prefix, which are then written around it, so the samples'
    /// bytes are copied once, from the source into the frame. Returns the
    /// sample count; `0` at the end of `src`. A chunk no frame can carry is
    /// left unsealed for [`send_chunk`](Self::send_chunk) to refuse.
    fn frame_chunk<S: ChunkSource>(&mut self, src: &mut S, start_sample: u64) -> io::Result<usize> {
        self.wire.clear();
        self.wire.resize(CHUNK_BODY_OFFSET, 0);
        let n = src.append_chunk(&mut self.wire)?;
        if n > 0 && n <= MAX_CHUNK_SAMPLES {
            seal_sample_chunk(&mut self.wire, start_sample, self.out_seq);
        }
        Ok(n)
    }

    /// Puts the `n`-sample chunk [`frame_chunk`](Self::frame_chunk) framed
    /// on the wire — the body of every send loop: the `net.send.chunk`
    /// fault hook, pace, drain the reverse path (throttles, acks), write,
    /// count. A chunk no frame can carry is the caller's error, not a panic
    /// in the encoder.
    fn send_chunk(
        &mut self,
        pacer: &Pacer,
        start_sample: u64,
        n: usize,
        report: &mut SendReport,
    ) -> io::Result<()> {
        if n > MAX_CHUNK_SAMPLES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk of {n} samples exceeds the frame limit of {MAX_CHUNK_SAMPLES}"),
            ));
        }
        match self
            .faults
            .as_ref()
            .and_then(|p| p.decide("net.send.chunk"))
        {
            None => {}
            Some(Action::Slow(d)) => std::thread::sleep(d),
            Some(Action::Spin(d)) => rfd_fault::spin_for(d),
            Some(Action::Kill) => std::process::abort(),
            Some(Action::Io | Action::Panic) => {
                return Err(io::Error::other("injected send error"))
            }
            Some(action) => return Err(self.cut(action)),
        }
        pacer.wait_until_due(start_sample);
        report.throttles += self.poll_throttles()?;
        self.out_seq = self.out_seq.wrapping_add(1);
        self.stream.write_all(&self.wire)?;
        report.bytes += self.wire.len() as u64;
        report.samples += n as u64;
        report.chunks += 1;
        Ok(())
    }

    /// The one send loop. Opens the stream if this connection has none,
    /// sends every chunk of `src`, and with `close` ends the session with a
    /// Bye. Any failure — handshake, chunk or close — reconnects under the
    /// retry policy, re-handshakes and resumes from the server's
    /// acknowledged sample, unless `src` cannot go back.
    fn send_from<S: ChunkSource>(
        &mut self,
        meta: StreamMeta,
        rate: SendRate,
        src: &mut S,
        close: bool,
    ) -> io::Result<SendReport> {
        meta.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let pacer = Pacer {
            t0: Instant::now(),
            rate,
            sample_rate: meta.sample_rate,
        };
        let mut report = SendReport {
            reconnects: std::mem::take(&mut self.connect_retries),
            ..SendReport::default()
        };
        let mut attempt = 0u32;
        let mut reconnected = false;
        let mut failed: Option<io::Error> = None;
        let mut next = 0u64;
        loop {
            if let Some(err) = failed.take() {
                if !S::REWINDS {
                    return Err(err);
                }
                if let Some(r) = &self.registry {
                    if attempt < self.retry.max_retries {
                        let what = format!("send attempt {attempt}: {err}");
                        r.emit_event(EventKind::NetBackoff, what);
                    }
                }
                self.retry.pause(&mut attempt, err)?;
                report.reconnects += 1;
                reconnected = true;
                if let Err(e) = self.reconnect() {
                    failed = Some(e);
                    continue;
                }
            }
            if reconnected || self.session.is_none() {
                match self.handshake(meta, &mut report) {
                    Ok(pos) => {
                        if src.seek(pos, reconnected)? {
                            next = pos;
                        }
                    }
                    Err(e) => {
                        failed = Some(e);
                        continue;
                    }
                }
            }
            let sent = loop {
                let n = self.frame_chunk(src, next)?;
                if n == 0 {
                    break if close {
                        self.close()
                    } else {
                        self.stream.flush()
                    };
                }
                let start = next;
                next += n as u64;
                match self.send_chunk(&pacer, start, n, &mut report) {
                    Ok(()) => attempt = 0, // progress resets the retry budget
                    Err(e) => break Err(e),
                }
            };
            match sent {
                Ok(()) => {
                    report.wall = pacer.t0.elapsed();
                    return Ok(report);
                }
                Err(e) => failed = Some(e),
            }
        }
    }

    /// Streams pre-quantized i16 IQ chunks. The caller supplies an iterator
    /// of chunks; pacing is applied per chunk. A chunk of more than
    /// [`MAX_CHUNK_SAMPLES`] samples fails the send with `InvalidInput`. An
    /// iterator cannot rewind, so the send fails on its first error.
    pub fn send_quantized<I>(
        &mut self,
        meta: StreamMeta,
        chunks: I,
        rate: SendRate,
    ) -> io::Result<SendReport>
    where
        I: IntoIterator<Item = Vec<(i16, i16)>>,
    {
        self.send_from(meta, rate, &mut IterChunks(chunks.into_iter()), false)
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
        let mut src = SliceChunks {
            samples,
            inv_scale: if meta.scale != 0.0 {
                1.0 / meta.scale
            } else {
                1.0
            },
            chunk: clamp_chunk(chunk_samples),
            next: 0,
        };
        self.send_from(meta, rate, &mut src, false)
    }

    /// Replays a `.rfdt` trace file as one whole session, ending it with a
    /// Bye ([`TraceSender::finish`] afterwards has nothing left to do).
    /// Chunked reads of the raw i16 IQ payload go straight onto the wire,
    /// so the server reconstructs bit-identical samples to an offline
    /// `decode_trace`, and the file is never loaded whole.
    pub fn send_trace_file(
        &mut self,
        path: &Path,
        rate: SendRate,
        chunk_samples: usize,
    ) -> io::Result<SendReport> {
        let reader = rfd_ether::trace::ChunkedTraceReader::open(path)?;
        let h = reader.header();
        let meta = StreamMeta {
            sample_rate: h.sample_rate,
            center_hz: h.center_hz,
            scale: h.scale,
        };
        let mut src = FileChunks(reader, clamp_chunk(chunk_samples));
        self.send_from(meta, rate, &mut src, true)
    }

    /// Writes the Bye and drains the connection until the server closes it.
    fn close(&mut self) -> io::Result<()> {
        self.write_frame(&Frame::Bye)?;
        self.stream.flush()?;
        self.closed = true;
        let _ = self.stream.shutdown(Shutdown::Write);
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

    /// Ends the session cleanly (Bye) and closes the connection.
    pub fn finish(mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.close()
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
///
/// On a server-side disconnect or an injected `net.sub.read` fault it
/// reconnects under [`RetryPolicy::default`] and resumes from its stream
/// position, so the observed event sequence has no duplicates and no gaps
/// (up to the server's bounded replay history). Opened with
/// [`RecordSubscriber::connect_journaled`], it also persists that position,
/// so a fresh process continues where the last one durably left off.
pub struct RecordSubscriber {
    /// Where every (re)connect goes, resolved once.
    addrs: Vec<SocketAddr>,
    /// `None` once a connection failed and no reconnect has replaced it.
    stream: Option<TcpStream>,
    dec: FrameDecoder,
    /// Absolute stream position of the next expected message (anchored by
    /// the server's Ack at connect; the resume cursor).
    pos: u64,
    faults: Option<Arc<FaultPlan>>,
    /// Failed attempts since the last event.
    attempt: u32,
    reconnects: u64,
    /// The checkpoint file and the position last written to it.
    checkpoint: Option<(PathBuf, u64)>,
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
        let mut sub = Self {
            addrs: addr.to_socket_addrs()?.collect(),
            stream: None,
            dec: FrameDecoder::new(),
            pos: 0,
            faults: FaultPlan::ambient(),
            attempt: 0,
            reconnects: 0,
            checkpoint: None,
        };
        sub.subscribe(pos)?;
        Ok(sub)
    }

    /// Connects resuming from the position checkpointed under `dir` (live
    /// only when there is none; `dir` is created if missing). Before each
    /// fetch the position covering every event returned so far is
    /// checkpointed there, so across crashes each stream message is
    /// delivered exactly once to a caller that finishes processing an event
    /// before asking for the next.
    pub fn connect_journaled<A: ToSocketAddrs>(addr: A, dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(SUBSCRIBER_CHECKPOINT);
        let saved = match rfd_journal::read_checkpoint(&path)? {
            Some(payload) => rfd_journal::get_u64(&payload, &mut 0).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "bad subscriber checkpoint")
            })?,
            None => u64::MAX,
        };
        let mut sub = Self::connect_from(addr, saved)?;
        sub.checkpoint = Some((path, saved));
        Ok(sub)
    }

    /// Overrides the fault plan (chaos testing; the ambient `RFD_FAULTS`
    /// plan by default).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Absolute stream position of the next expected message — where a
    /// reconnect resumes.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Opens a connection subscribed from `pos` and blocks until the server
    /// acknowledges it: an immediate Heartbeat, then the Ack that anchors
    /// the position.
    fn subscribe(&mut self, pos: u64) -> io::Result<()> {
        self.stream = None;
        let mut stream = connect_with_timeout(&self.addrs)?;
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
        let mut dec = FrameDecoder::new();
        let acks = (
            next_raw(&mut stream, &mut dec)?,
            next_raw(&mut stream, &mut dec)?,
        );
        let (Frame::Heartbeat, Frame::Ack { position, .. }) = acks else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected subscription and position acks, got {acks:?}"),
            ));
        };
        self.pos = position;
        self.stream = Some(stream);
        self.dec = dec;
        Ok(())
    }

    /// The next event on the current connection, after the `net.sub.read`
    /// fault hook.
    fn read_event(&mut self) -> io::Result<SubEvent> {
        match self.faults.as_ref().and_then(|p| p.decide("net.sub.read")) {
            Some(Action::Disconnect) | Some(Action::Io) => {
                // Kill the socket so the server parks/evicts us for real.
                if let Some(stream) = self.stream.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected subscriber fault",
                ));
            }
            Some(Action::Slow(d)) => std::thread::sleep(d),
            Some(Action::Spin(d)) => rfd_fault::spin_for(d),
            _ => {}
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "not connected"))?;
        loop {
            let ev = match next_raw(stream, &mut self.dec)? {
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
            if !matches!(ev, SubEvent::Heartbeat | SubEvent::Bye) {
                self.pos += 1;
            }
            return Ok(ev);
        }
    }

    /// Blocks for the next event, reconnecting and resuming on failure.
    /// Once the retries are spent it returns the last failure: the read
    /// error, or why the final reconnect did not succeed. With a
    /// checkpoint, returning from this call first acknowledges every event
    /// before it.
    pub fn next_event(&mut self) -> io::Result<SubEvent> {
        if let Some((path, saved)) = &mut self.checkpoint {
            if self.pos != *saved && self.pos != u64::MAX {
                let mut payload = Vec::with_capacity(8);
                rfd_journal::put_u64(&mut payload, self.pos);
                rfd_journal::write_checkpoint(path, &payload)?;
                *saved = self.pos;
            }
        }
        let retry = RetryPolicy::default();
        loop {
            let mut err = match self.read_event() {
                Ok(ev) => {
                    self.attempt = 0;
                    return Ok(ev);
                }
                Err(e) => e,
            };
            self.stream = None;
            loop {
                retry.pause(&mut self.attempt, err)?;
                match self.subscribe(self.pos) {
                    Ok(()) => break,
                    Err(e) => err = e,
                }
            }
            self.reconnects += 1;
        }
    }
}

/// The next frame off a subscriber connection.
fn next_raw(stream: &mut TcpStream, dec: &mut FrameDecoder) -> io::Result<Frame> {
    loop {
        if let Some(SeqFrame { frame, .. }) = dec.next_frame().map_err(io::Error::from)? {
            return Ok(frame);
        }
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the stream without a Bye",
                ))
            }
            Ok(n) => dec.push(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
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

    #[test]
    fn a_subscriber_that_runs_out_of_retries_reports_why() {
        // A raw listener acknowledges the subscription, then hangs up and
        // stops listening: every reconnect is refused, and that refusal is
        // what the subscriber must report, not "not connected".
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.write_all(&encode_frame(&Frame::Heartbeat, 0)).unwrap();
            let ack = Frame::Ack {
                session: 0,
                position: 0,
            };
            conn.write_all(&encode_frame(&ack, 1)).unwrap();
        });
        let mut sub = RecordSubscriber::connect(addr).unwrap();
        server.join().unwrap();
        let err = sub.next_event().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        assert_eq!(sub.reconnects(), 0);
    }

    /// A seeded 9 000-sample trace on disk: two default chunks and a short
    /// third, nine 1 000-sample chunks.
    fn wire_trace() -> PathBuf {
        let mut rng = rfd_dsp::rng::Xoshiro256::new(0x5E4D_2009);
        let samples: Vec<Complex32> = (0..9000)
            .map(|_| {
                let v = rng.next_u64();
                Complex32::new((v as i16) as f32 / 9e3, ((v >> 16) as i16) as f32 / 9e3)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("rfdump-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wire.rfdt");
        rfd_ether::trace::write_trace(&path, 8e6, 1e6, &samples).unwrap();
        path
    }

    /// Runs `send_trace_file(path, Max, chunk)` against a bare listener that
    /// acks the handshake and records every byte the sender writes until it
    /// hangs up. Returns the send's outcome and those bytes.
    fn record_send(
        path: &Path,
        chunk: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> (io::Result<SendReport>, Vec<u8>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let (mut wire, mut dec, mut frames) = (Vec::new(), FrameDecoder::new(), 0);
            let mut buf = [0u8; 4096];
            // Hello, then the open frame; nothing else is sent before the ack.
            while frames < 2 {
                let n = conn.read(&mut buf).unwrap();
                assert!(n > 0, "sender hung up during the handshake");
                wire.extend_from_slice(&buf[..n]);
                dec.push(&buf[..n]);
                while dec.next_frame().unwrap().is_some() {
                    frames += 1;
                }
            }
            let ack = Frame::Ack {
                session: 1,
                position: 0,
            };
            conn.write_all(&encode_frame(&ack, 0)).unwrap();
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => wire.extend_from_slice(&buf[..n]),
                }
            }
            wire
        });
        let mut tx = TraceSender::connect(addr).unwrap().with_faults(faults);
        let sent = tx.send_trace_file(path, SendRate::Max, chunk);
        drop(tx);
        (sent, server.join().unwrap())
    }

    /// The handshake a plain sender of `path` opens with, then every chunk
    /// `next_chunk(chunk)` yields, framed by `encode_frame` in sequence.
    fn expected_frames(path: &Path, chunk: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut r = rfd_ether::trace::ChunkedTraceReader::open(path).unwrap();
        let h = *r.header();
        let meta = StreamMeta {
            sample_rate: h.sample_rate,
            center_hz: h.center_hz,
            scale: h.scale,
        };
        let mut head = encode_frame(&Frame::Hello(Role::Producer), 0);
        head.extend(encode_frame(&Frame::StreamMeta(meta), 1));
        let (mut chunks, mut start) = (Vec::new(), 0u64);
        while let Some(iq) = r.next_chunk(chunk).unwrap() {
            let n = iq.len() as u64;
            let seq = 2 + chunks.len() as u32;
            let frame = Frame::SampleChunk {
                start_sample: start,
                iq,
            };
            chunks.push(encode_frame(&frame, seq));
            start += n;
        }
        (head, chunks)
    }

    #[test]
    fn a_trace_sender_puts_exactly_the_encoded_frames_on_the_wire() {
        let path = wire_trace();
        for chunk in [1, 1000, DEFAULT_CHUNK_SAMPLES] {
            let (head, chunks) = expected_frames(&path, chunk);
            let mut want = head;
            for c in &chunks {
                want.extend_from_slice(c);
            }
            let bye = encode_frame(&Frame::Bye, 2 + chunks.len() as u32);
            want.extend_from_slice(&bye);
            let (sent, wire) = record_send(&path, chunk, None);
            let report = sent.unwrap();
            assert_eq!(
                (report.samples, report.chunks),
                (9000, chunks.len() as u64),
                "chunk {chunk}"
            );
            // The report counts the stream's frames: not the Hello, not the Bye.
            let hello = encode_frame(&Frame::Hello(Role::Producer), 0).len();
            let counted = (want.len() - hello - bye.len()) as u64;
            assert_eq!(report.bytes, counted, "chunk {chunk}");
            assert!(wire == want, "chunk {chunk}: wire bytes differ");
        }

        // An injected fault on the third chunk cuts the connection after
        // two intact chunks: half the third frame, the whole frame with its
        // last byte flipped, or nothing at all.
        let (head, chunks) = expected_frames(&path, 1000);
        let third = &chunks[2];
        let mut corrupt = third.clone();
        *corrupt.last_mut().unwrap() ^= 0x55;
        for (spec, tail) in [
            (
                "truncate=net.send.chunk#3",
                third[..third.len() / 2].to_vec(),
            ),
            ("corrupt=net.send.chunk#3", corrupt),
            ("disconnect=net.send.chunk#3", Vec::new()),
        ] {
            let plan = Arc::new(FaultPlan::parse(spec).unwrap());
            let (sent, wire) = record_send(&path, 1000, Some(plan));
            let err = sent.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{spec}: {err}");
            let mut want = head.clone();
            want.extend_from_slice(&chunks[0]);
            want.extend_from_slice(&chunks[1]);
            want.extend_from_slice(&tail);
            assert!(wire == want, "{spec}: wire bytes differ");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
