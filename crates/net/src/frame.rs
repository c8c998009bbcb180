//! The `RFDN` framed wire protocol.
//!
//! Everything rfd-net puts on a TCP stream is a *frame*: a fixed 20-byte
//! header followed by a typed payload. The framing is deliberately dumb —
//! length-prefixed, versioned, CRC-protected — so both ends can validate
//! every byte before acting on it and a malformed stream is rejected with a
//! structured error instead of a panic or an unbounded allocation.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "RFDN"
//!      4     1  version      1
//!      5     1  frame type   (Hello .. Throttle, see below)
//!      6     2  flags        reserved, must be zero (LE u16)
//!      8     4  seq          per-direction frame sequence number (LE u32)
//!     12     4  payload_len  LE u32, <= MAX_PAYLOAD
//!     16     4  crc32        CRC-32/IEEE over the payload bytes (LE u32)
//!     20     …  payload      payload_len bytes, layout per frame type
//! ```
//!
//! All multi-byte integers are little-endian, matching the `.rfdt` trace
//! format. The `seq` field increments by one per frame *per direction*; a
//! receiver counts gaps for loss accounting (TCP itself never loses frames,
//! but a relay with a drop-oldest policy may legitimately skip sequence
//! numbers, and the counters make that visible end to end).
//!
//! Payload layouts:
//!
//! * **Hello** — `role: u8` (0 producer, 1 subscriber).
//! * **StreamMeta** — `sample_rate: f64, center_hz: f64, scale: f32`;
//!   validated exactly like a `.rfdt` header.
//! * **SampleChunk** — `start_sample: u64, n: u32`, then `n` interleaved
//!   `i16` I/Q pairs. Samples stay in the USRP's native quantized form on
//!   the wire; the receiving end applies `scale` from the stream meta, so a
//!   relayed trace decodes bit-identically to a locally read one.
//! * **Record** — `start_us: f64, end_us: f64, line_len: u16`, then the
//!   UTF-8 rendered record line.
//! * **Stats** — a UTF-8 JSON document (server-side session summary).
//! * **Heartbeat** / **Bye** — empty.
//! * **Throttle** — `depth: u32, cap: u32`: the server's ingest queue
//!   occupancy, sent to a producer as an explicit backpressure advisory.
//! * **Ack** — `session: u64, position: u64`: the server's durable
//!   high-water mark. For a producer, `position` is the contiguous sample
//!   count ingested for `session`; a reconnecting sender resumes from there.
//!   For a subscriber, acknowledgements are implicit in the stream position.
//! * **Resume** — `session: u64, position: u64`: sent by a reconnecting
//!   client right after Hello. A producer resumes session `session` (its
//!   `position` is advisory — the server replies with the authoritative Ack);
//!   a subscriber uses `session = 0` and `position` = the count of stream
//!   messages already seen (`u64::MAX` means live-only, no replay).
//! * **SourceHello** — `id_len: u8`, the source id bytes, then the
//!   StreamMeta layout. A fleet sender's handshake: declares the stable
//!   source id this connection streams for, plus the stream metadata. The
//!   id is 1..=[`MAX_SOURCE_ID`] bytes of `[A-Za-z0-9._-]` — validated
//!   before any allocation beyond the frame payload itself. Also sent
//!   server → subscriber to announce a source joining the merged stream.
//! * **SourceRecord** — `id_len: u8`, the source id bytes, then the Record
//!   layout: a decoded record tagged with the source it came from (fleet
//!   server → subscriber).
//! * **SourceBye** — `id_len: u8`, the source id bytes: one source's stream
//!   ended (fleet server → subscriber); other sources keep flowing.
//!
//! # Cost
//!
//! Every sample a live monitor analyses crosses this module twice, so
//! framing has to cost less than the analysis it feeds (≈ 15 ns/sample on a
//! quiet ether). Three things keep it there: the payload CRC is the
//! slice-by-8 [`rfd_dsp::coding::crc32`] (≈ 3 ns/sample; the bit-serial
//! engine it replaced cost ≈ 50); [`encode_frame_into`] writes the payload
//! straight behind the header into a buffer the sender reuses (one per
//! `TraceSender`, the outbox itself on a fleet connection) instead of
//! building it in one `Vec` and copying it into another; and sample bodies
//! are parsed in one bulk pass once their length has been validated, on
//! both ends of the wire. Measured on the 2-core reference box
//! (`bench/run.sh --workload fleet_max_quiet_x2 --trace 1`): encode 55 → 4.4
//! and decode 55 → 4.3 ns/sample, a small frame 3.7 µs → 0.29 µs. What is
//! left is ~70 % CRC. A carry-less-multiply (PCLMULQDQ) CRC would take
//! roughly 2 ns more off each way — under 8 % of a fleet ingest iteration,
//! below what the benchmark resolves — for a folding kernel of magic
//! constants behind `unsafe`, so there is none.

use rfd_dsp::coding::crc32;
use std::fmt;

/// Magic bytes opening every frame.
pub const MAGIC: &[u8; 4] = b"RFDN";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on a frame payload; anything larger is rejected before any
/// allocation happens.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Samples per [`Frame::SampleChunk`] the clients send by default (16 KiB
/// of I/Q per frame — small enough to interleave Throttle round-trips,
/// large enough to amortize the header).
pub const DEFAULT_CHUNK_SAMPLES: usize = 4096;
/// The most samples one [`Frame::SampleChunk`] can carry under
/// [`MAX_PAYLOAD`]: its payload is a 12-byte prefix (start sample, count)
/// plus 4 bytes per sample.
pub const MAX_CHUNK_SAMPLES: usize = (MAX_PAYLOAD - 12) / 4;
/// Upper bound on a fleet source id, in bytes. Small enough that tagging
/// every record with the full id stays cheap on the wire.
pub const MAX_SOURCE_ID: usize = 64;

/// Validates a fleet source id: 1..=[`MAX_SOURCE_ID`] bytes drawn from
/// `[A-Za-z0-9._-]`. The charset keeps ids safe to embed in metric names,
/// file names and record-line prefixes without quoting.
pub fn validate_source_id(id: &str) -> Result<(), FrameError> {
    if id.is_empty() {
        return Err(FrameError::BadPayload("empty source id"));
    }
    if id.len() > MAX_SOURCE_ID {
        return Err(FrameError::BadPayload("source id too long"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(FrameError::BadPayload("source id has invalid characters"));
    }
    Ok(())
}

/// CRC-32/IEEE over `data`, as stored in the frame header.
pub fn payload_crc(data: &[u8]) -> u32 {
    crc32(data)
}

/// Who a connection speaks for, declared in its Hello frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Pushes a sample stream into the server.
    Producer,
    /// Receives the decoded record stream.
    Subscriber,
}

impl Role {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Role::Producer),
            1 => Some(Role::Subscriber),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Role::Producer => 0,
            Role::Subscriber => 1,
        }
    }
}

/// Stream metadata a producer announces before its first sample chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMeta {
    /// Complex sample rate, Hz.
    pub sample_rate: f64,
    /// Band center relative to the 2.4 GHz band start, Hz.
    pub center_hz: f64,
    /// Amplitude scale applied to the wire's i16 I/Q values.
    pub scale: f32,
}

impl StreamMeta {
    /// Validates the fields the way `rfd_ether::trace::decode_trace` does.
    pub fn validate(&self) -> Result<(), FrameError> {
        if !self.sample_rate.is_finite() || self.sample_rate <= 0.0 {
            return Err(FrameError::BadPayload("non-positive sample rate"));
        }
        if !self.center_hz.is_finite() {
            return Err(FrameError::BadPayload("non-finite center frequency"));
        }
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(FrameError::BadPayload("non-positive scale"));
        }
        Ok(())
    }
}

/// A decoded record line as carried by a Record frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordMsg {
    /// Transmission start, µs from stream start.
    pub start_us: f64,
    /// Transmission end, µs.
    pub end_us: f64,
    /// The rendered (tcpdump-style) record line.
    pub line: String,
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener declaring the peer's role.
    Hello(Role),
    /// Sample-stream metadata (producer → server, server → subscriber).
    StreamMeta(StreamMeta),
    /// A run of quantized I/Q samples.
    SampleChunk {
        /// Index of the first sample in the stream.
        start_sample: u64,
        /// Interleaved i16 I/Q pairs.
        iq: Vec<(i16, i16)>,
    },
    /// One decoded packet record.
    Record(RecordMsg),
    /// Server session statistics, as a JSON document.
    Stats(String),
    /// Keep-alive on an otherwise idle direction.
    Heartbeat,
    /// Clean end of stream.
    Bye,
    /// Backpressure advisory: ingest queue at `depth` of `cap`.
    Throttle {
        /// Current ingest queue depth.
        depth: u32,
        /// Ingest queue capacity.
        cap: u32,
    },
    /// Durable-progress acknowledgement (server → client).
    Ack {
        /// The server-assigned session id.
        session: u64,
        /// Contiguous progress: samples ingested (producer sessions) or
        /// stream messages delivered (subscriber sessions).
        position: u64,
    },
    /// Reconnect request (client → server, right after Hello).
    Resume {
        /// The session to resume (producers; 0 for subscribers).
        session: u64,
        /// The client's last known position (see [`Frame::Ack`]).
        position: u64,
    },
    /// Fleet source handshake: a stable source id plus the stream metadata
    /// (sender → fleet server), also used server → subscriber to announce a
    /// source joining the merged stream.
    SourceHello {
        /// The stable source id (see [`validate_source_id`]).
        source: String,
        /// The source's stream metadata.
        meta: StreamMeta,
    },
    /// A decoded record tagged with the source it came from (fleet server →
    /// subscriber).
    SourceRecord {
        /// The source the record belongs to.
        source: String,
        /// The record itself.
        record: RecordMsg,
    },
    /// One source's stream ended; the merged stream continues (fleet server
    /// → subscriber).
    SourceBye {
        /// The source that finished.
        source: String,
    },
}

impl Frame {
    /// The wire type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello(_) => 0,
            Frame::StreamMeta(_) => 1,
            Frame::SampleChunk { .. } => 2,
            Frame::Record(_) => 3,
            Frame::Stats(_) => 4,
            Frame::Heartbeat => 5,
            Frame::Bye => 6,
            Frame::Throttle { .. } => 7,
            Frame::Ack { .. } => 8,
            Frame::Resume { .. } => 9,
            Frame::SourceHello { .. } => 10,
            Frame::SourceRecord { .. } => 11,
            Frame::SourceBye { .. } => 12,
        }
    }

    /// Short human name for counters and errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::StreamMeta(_) => "stream-meta",
            Frame::SampleChunk { .. } => "sample-chunk",
            Frame::Record(_) => "record",
            Frame::Stats(_) => "stats",
            Frame::Heartbeat => "heartbeat",
            Frame::Bye => "bye",
            Frame::Throttle { .. } => "throttle",
            Frame::Ack { .. } => "ack",
            Frame::Resume { .. } => "resume",
            Frame::SourceHello { .. } => "source-hello",
            Frame::SourceRecord { .. } => "source-record",
            Frame::SourceBye { .. } => "source-bye",
        }
    }
}

/// Why a byte stream was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes of a frame were not `RFDN`.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadType(u8),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload CRC did not match the header.
    BadCrc {
        /// CRC stored in the frame header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// The payload did not parse as its declared frame type.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (expected RFDN)"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::BadFlags(x) => write!(f, "reserved flags set ({x:#06x})"),
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds maximum {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { want, got } => {
                write!(
                    f,
                    "payload crc mismatch (header {want:08x}, computed {got:08x})"
                )
            }
            FrameError::BadPayload(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn write_meta(m: &StreamMeta, out: &mut Vec<u8>) {
    out.extend_from_slice(&m.sample_rate.to_le_bytes());
    out.extend_from_slice(&m.center_hz.to_le_bytes());
    out.extend_from_slice(&m.scale.to_le_bytes());
}

fn write_record(r: &RecordMsg, out: &mut Vec<u8>) {
    let line = r.line.as_bytes();
    out.reserve(18 + line.len());
    out.extend_from_slice(&r.start_us.to_le_bytes());
    out.extend_from_slice(&r.end_us.to_le_bytes());
    out.extend_from_slice(&(line.len() as u16).to_le_bytes());
    out.extend_from_slice(line);
}

fn write_source_id(source: &str, out: &mut Vec<u8>) {
    let id = source.as_bytes();
    out.push(id.len() as u8);
    out.extend_from_slice(id);
}

/// Appends `frame`'s payload to `out`.
fn write_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello(role) => out.push(role.as_u8()),
        Frame::StreamMeta(m) => write_meta(m, out),
        Frame::SampleChunk { start_sample, iq } => {
            out.reserve(12 + iq.len() * 4);
            out.extend_from_slice(&start_sample.to_le_bytes());
            out.extend_from_slice(&(iq.len() as u32).to_le_bytes());
            // Sized once, then filled through fixed 4-byte windows: no
            // per-sample capacity check, so the loop vectorizes.
            let at = out.len();
            out.resize(at + iq.len() * 4, 0);
            for (b, &(i, q)) in out[at..].chunks_exact_mut(4).zip(iq) {
                b[..2].copy_from_slice(&i.to_le_bytes());
                b[2..].copy_from_slice(&q.to_le_bytes());
            }
        }
        Frame::Record(r) => write_record(r, out),
        Frame::Stats(json) => out.extend_from_slice(json.as_bytes()),
        Frame::Heartbeat | Frame::Bye => {}
        Frame::Throttle { depth, cap } => {
            out.extend_from_slice(&depth.to_le_bytes());
            out.extend_from_slice(&cap.to_le_bytes());
        }
        Frame::Ack { session, position } | Frame::Resume { session, position } => {
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&position.to_le_bytes());
        }
        Frame::SourceHello { source, meta } => {
            write_source_id(source, out);
            write_meta(meta, out);
        }
        Frame::SourceRecord { source, record } => {
            write_source_id(source, out);
            write_record(record, out);
        }
        Frame::SourceBye { source } => write_source_id(source, out),
    }
}

/// Serializes `frame` with the given per-direction sequence number,
/// **appending** to `out`: the payload is written straight behind the
/// header, whose length and CRC fields are then patched from the bytes just
/// written. A sender that clears and reuses one buffer (or encodes directly
/// into its outbox) pays no allocation and no second copy per frame.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (a Record line or sample
/// chunk that large is a caller bug, not wire input).
pub fn encode_frame_into(frame: &Frame, seq: u32, out: &mut Vec<u8>) {
    // Flags stay zero; payload_len and crc32 are patched in below.
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(MAGIC);
    header[4] = VERSION;
    header[5] = frame.type_byte();
    header[8..12].copy_from_slice(&seq.to_le_bytes());
    let start = out.len();
    out.extend_from_slice(&header);
    let body = start + HEADER_LEN;
    write_payload(frame, out);
    let payload = &out[body..];
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "{} payload of {} bytes exceeds MAX_PAYLOAD",
        frame.type_name(),
        payload.len()
    );
    let len = (payload.len() as u32).to_le_bytes();
    let crc = payload_crc(payload).to_le_bytes();
    out[start + 12..start + 16].copy_from_slice(&len);
    out[start + 16..body].copy_from_slice(&crc);
}

/// Serializes `frame` into a fresh buffer; see [`encode_frame_into`].
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(frame: &Frame, seq: u32) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, seq, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        if self.remaining() < N {
            return Err(FrameError::BadPayload("payload truncated"));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_le_bytes(self.take()?))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::BadPayload("payload truncated"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// A length-prefixed fleet source id: `u8` length, then that many bytes,
    /// charset-checked before the `String` is built.
    fn source_id(&mut self) -> Result<String, FrameError> {
        let len = self.u8()? as usize;
        let raw = self.bytes(len)?;
        let id = std::str::from_utf8(raw)
            .map_err(|_| FrameError::BadPayload("source id is not UTF-8"))?;
        validate_source_id(id)?;
        Ok(id.to_string())
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::BadPayload("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn decode_payload(ty: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut r = Reader::new(payload);
    let frame = match ty {
        0 => {
            let role = Role::from_u8(r.u8()?).ok_or(FrameError::BadPayload("unknown role"))?;
            Frame::Hello(role)
        }
        1 => {
            let meta = StreamMeta {
                sample_rate: r.f64()?,
                center_hz: r.f64()?,
                scale: r.f32()?,
            };
            meta.validate()?;
            Frame::StreamMeta(meta)
        }
        2 => {
            let start_sample = r.u64()?;
            let n = r.u32()?;
            let body = &payload[r.pos..];
            // Compared by division: `n * 4` wraps on a 32-bit target, where
            // an empty body could then claim 2^30 samples.
            if !body.len().is_multiple_of(4) || (body.len() / 4) as u64 != u64::from(n) {
                return Err(FrameError::BadPayload("sample count disagrees with length"));
            }
            let iq = body
                .chunks_exact(4)
                .map(|b| {
                    (
                        i16::from_le_bytes([b[0], b[1]]),
                        i16::from_le_bytes([b[2], b[3]]),
                    )
                })
                .collect();
            return Ok(Frame::SampleChunk { start_sample, iq });
        }
        3 => {
            let start_us = r.f64()?;
            let end_us = r.f64()?;
            if !start_us.is_finite() || !end_us.is_finite() {
                return Err(FrameError::BadPayload("non-finite record times"));
            }
            let len = r.u16()? as usize;
            if r.remaining() != len {
                return Err(FrameError::BadPayload("line length disagrees with payload"));
            }
            let line = std::str::from_utf8(&payload[r.pos..])
                .map_err(|_| FrameError::BadPayload("record line is not UTF-8"))?
                .to_string();
            return Ok(Frame::Record(RecordMsg {
                start_us,
                end_us,
                line,
            }));
        }
        4 => {
            let json = std::str::from_utf8(payload)
                .map_err(|_| FrameError::BadPayload("stats document is not UTF-8"))?
                .to_string();
            return Ok(Frame::Stats(json));
        }
        5 => Frame::Heartbeat,
        6 => Frame::Bye,
        7 => Frame::Throttle {
            depth: r.u32()?,
            cap: r.u32()?,
        },
        8 => Frame::Ack {
            session: r.u64()?,
            position: r.u64()?,
        },
        9 => Frame::Resume {
            session: r.u64()?,
            position: r.u64()?,
        },
        10 => {
            let source = r.source_id()?;
            let meta = StreamMeta {
                sample_rate: r.f64()?,
                center_hz: r.f64()?,
                scale: r.f32()?,
            };
            meta.validate()?;
            Frame::SourceHello { source, meta }
        }
        11 => {
            let source = r.source_id()?;
            let start_us = r.f64()?;
            let end_us = r.f64()?;
            if !start_us.is_finite() || !end_us.is_finite() {
                return Err(FrameError::BadPayload("non-finite record times"));
            }
            let len = r.u16()? as usize;
            if r.remaining() != len {
                return Err(FrameError::BadPayload("line length disagrees with payload"));
            }
            let line = std::str::from_utf8(&payload[r.pos..])
                .map_err(|_| FrameError::BadPayload("record line is not UTF-8"))?
                .to_string();
            return Ok(Frame::SourceRecord {
                source,
                record: RecordMsg {
                    start_us,
                    end_us,
                    line,
                },
            });
        }
        12 => Frame::SourceBye {
            source: r.source_id()?,
        },
        other => return Err(FrameError::BadType(other)),
    };
    r.done()?;
    Ok(frame)
}

/// A frame together with its header sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqFrame {
    /// The header's per-direction sequence number.
    pub seq: u32,
    /// The decoded frame.
    pub frame: Frame,
}

/// Incremental frame decoder: feed raw socket bytes in, pop whole frames
/// out.
///
/// The decoder is strict — the first malformed byte poisons the stream and
/// every later call returns the same error, mirroring how a connection
/// handler should treat hostile input (drop the peer, don't resync).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted opportunistically).
    consumed: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the peer.
    pub fn push(&mut self, data: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(data);
        }
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Tries to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` for a
    /// valid frame, and `Err(_)` once the stream is malformed (sticky).
    pub fn next_frame(&mut self) -> Result<Option<SeqFrame>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.try_decode() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = Some(e.clone());
                self.buf = Vec::new();
                self.consumed = 0;
                Err(e)
            }
        }
    }

    fn try_decode(&mut self) -> Result<Option<SeqFrame>, FrameError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        // Header validation happens before waiting for the payload so a
        // hostile length field is rejected without buffering MAX_PAYLOAD
        // bytes first.
        if &avail[0..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if avail[4] != VERSION {
            return Err(FrameError::BadVersion(avail[4]));
        }
        let ty = avail[5];
        if ty > 12 {
            return Err(FrameError::BadType(ty));
        }
        let flags = u16::from_le_bytes([avail[6], avail[7]]);
        if flags != 0 {
            return Err(FrameError::BadFlags(flags));
        }
        let seq = u32::from_le_bytes([avail[8], avail[9], avail[10], avail[11]]);
        let len = u32::from_le_bytes([avail[12], avail[13], avail[14], avail[15]]);
        if len as usize > MAX_PAYLOAD {
            return Err(FrameError::Oversized(len));
        }
        let want_crc = u32::from_le_bytes([avail[16], avail[17], avail[18], avail[19]]);
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..total];
        let got_crc = payload_crc(payload);
        if got_crc != want_crc {
            return Err(FrameError::BadCrc {
                want: want_crc,
                got: got_crc,
            });
        }
        let frame = decode_payload(ty, payload)?;
        self.consumed += total;
        // Compact once the dead prefix dominates, keeping the buffer small
        // on long-lived connections.
        if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        Ok(Some(SeqFrame { seq, frame }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::rng::Xoshiro256;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Role::Producer),
            Frame::Hello(Role::Subscriber),
            Frame::StreamMeta(StreamMeta {
                sample_rate: 8e6,
                center_hz: 4e6,
                scale: 0.73,
            }),
            Frame::SampleChunk {
                start_sample: 12345,
                iq: vec![(0, 1), (-2, 3), (i16::MIN, i16::MAX)],
            },
            Frame::Record(RecordMsg {
                start_us: 1.5,
                end_us: 2.5,
                line: "    0.000001 802.11     snr  20.0 dB  ...".into(),
            }),
            Frame::Stats("{\"schema\":\"rfd-stats\"}".into()),
            Frame::Heartbeat,
            Frame::Bye,
            Frame::Throttle { depth: 60, cap: 64 },
            Frame::Ack {
                session: 3,
                position: 1 << 40,
            },
            Frame::Resume {
                session: 3,
                position: u64::MAX,
            },
            Frame::SourceHello {
                source: "usrp-roof.2".into(),
                meta: StreamMeta {
                    sample_rate: 8e6,
                    center_hz: 4e6,
                    scale: 0.5,
                },
            },
            Frame::SourceRecord {
                source: "usrp-roof.2".into(),
                record: RecordMsg {
                    start_us: 10.0,
                    end_us: 20.0,
                    line: "    0.000010 bluetooth  ...".into(),
                },
            },
            Frame::SourceBye {
                source: "a".repeat(MAX_SOURCE_ID),
            },
        ]
    }

    /// The encoder this one replaced — the payload built in its own `Vec`,
    /// one sample at a time, then copied behind a freshly assembled header —
    /// kept as the reference the in-place encoder must match byte for byte.
    fn payload_bytes(frame: &Frame) -> Vec<u8> {
        match frame {
            Frame::Hello(role) => vec![role.as_u8()],
            Frame::StreamMeta(m) => {
                let mut p = Vec::with_capacity(20);
                p.extend_from_slice(&m.sample_rate.to_le_bytes());
                p.extend_from_slice(&m.center_hz.to_le_bytes());
                p.extend_from_slice(&m.scale.to_le_bytes());
                p
            }
            Frame::SampleChunk { start_sample, iq } => {
                let mut p = Vec::with_capacity(12 + iq.len() * 4);
                p.extend_from_slice(&start_sample.to_le_bytes());
                p.extend_from_slice(&(iq.len() as u32).to_le_bytes());
                for &(i, q) in iq {
                    p.extend_from_slice(&i.to_le_bytes());
                    p.extend_from_slice(&q.to_le_bytes());
                }
                p
            }
            Frame::Record(r) => {
                let line = r.line.as_bytes();
                let mut p = Vec::with_capacity(18 + line.len());
                p.extend_from_slice(&r.start_us.to_le_bytes());
                p.extend_from_slice(&r.end_us.to_le_bytes());
                p.extend_from_slice(&(line.len() as u16).to_le_bytes());
                p.extend_from_slice(line);
                p
            }
            Frame::Stats(json) => json.as_bytes().to_vec(),
            Frame::Heartbeat | Frame::Bye => Vec::new(),
            Frame::Throttle { depth, cap } => {
                let mut p = Vec::with_capacity(8);
                p.extend_from_slice(&depth.to_le_bytes());
                p.extend_from_slice(&cap.to_le_bytes());
                p
            }
            Frame::Ack { session, position } | Frame::Resume { session, position } => {
                let mut p = Vec::with_capacity(16);
                p.extend_from_slice(&session.to_le_bytes());
                p.extend_from_slice(&position.to_le_bytes());
                p
            }
            Frame::SourceHello { source, meta } => {
                let id = source.as_bytes();
                let mut p = Vec::with_capacity(1 + id.len() + 20);
                p.push(id.len() as u8);
                p.extend_from_slice(id);
                p.extend_from_slice(&meta.sample_rate.to_le_bytes());
                p.extend_from_slice(&meta.center_hz.to_le_bytes());
                p.extend_from_slice(&meta.scale.to_le_bytes());
                p
            }
            Frame::SourceRecord { source, record } => {
                let id = source.as_bytes();
                let line = record.line.as_bytes();
                let mut p = Vec::with_capacity(1 + id.len() + 18 + line.len());
                p.push(id.len() as u8);
                p.extend_from_slice(id);
                p.extend_from_slice(&record.start_us.to_le_bytes());
                p.extend_from_slice(&record.end_us.to_le_bytes());
                p.extend_from_slice(&(line.len() as u16).to_le_bytes());
                p.extend_from_slice(line);
                p
            }
            Frame::SourceBye { source } => {
                let id = source.as_bytes();
                let mut p = Vec::with_capacity(1 + id.len());
                p.push(id.len() as u8);
                p.extend_from_slice(id);
                p
            }
        }
    }

    fn reference_encode(frame: &Frame, seq: u32) -> Vec<u8> {
        let payload = payload_bytes(frame);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(frame.type_byte());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload_crc(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// A seeded chunk of `n` samples; the extremes of `i16` are planted
    /// wherever there is room for them.
    fn seeded_chunk(rng: &mut Xoshiro256, start_sample: u64, n: usize) -> Frame {
        let mut iq: Vec<(i16, i16)> = (0..n)
            .map(|_| {
                let v = rng.next_u64();
                (v as i16, (v >> 16) as i16)
            })
            .collect();
        if let Some(first) = iq.first_mut() {
            *first = (i16::MIN, i16::MAX);
        }
        if let Some(last) = iq.last_mut() {
            *last = (i16::MAX, i16::MIN);
        }
        Frame::SampleChunk { start_sample, iq }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn in_place_encoder_matches_the_reference_encoder() {
        let mut frames = all_frames();
        let mut rng = Xoshiro256::new(0xF4A3_2009);
        for n in [0, 1, 2, 4095, 4096, 4097, 65_536] {
            let start_sample = rng.next_u64();
            frames.push(seeded_chunk(&mut rng, start_sample, n));
        }
        for (i, f) in frames.iter().enumerate() {
            let seq = (i as u32).wrapping_mul(0x9E37_79B9);
            assert!(
                encode_frame(f, seq) == reference_encode(f, seq),
                "frame {i} ({}) encodes differently",
                f.type_name()
            );
        }
    }

    /// Two frames as the commit before the in-place encoder put them on the
    /// wire, written down so the format is pinned independently of both
    /// implementations.
    #[test]
    fn wire_bytes_are_pinned() {
        let chunk = Frame::SampleChunk {
            start_sample: 12345,
            iq: vec![(0, 1), (-2, 3), (i16::MIN, i16::MAX)],
        };
        assert_eq!(
            hex(&encode_frame(&chunk, 3)),
            "5246444e0102000003000000180000005ff321f8\
             3930000000000000030000000000\
             0100feff03000080ff7f"
        );
        let record = Frame::Record(RecordMsg {
            start_us: 1.5,
            end_us: 2.5,
            line: "0.000001 802.11 snr 20.0 dB".into(),
        });
        assert_eq!(
            hex(&encode_frame(&record, 0x0102_0304)),
            "5246444e01030000040302012d0000001f61a201\
             000000000000f83f00000000000004401b00\
             302e303030303031203830322e313120736e722032302e30206442"
        );
    }

    #[test]
    fn encode_frame_into_appends_behind_what_the_buffer_holds() {
        let frames = &all_frames()[2..5]; // StreamMeta, SampleChunk, Record
        let sentinel = b"outbox bytes not yet flushed";
        let mut out = sentinel.to_vec();
        for (i, f) in frames.iter().enumerate() {
            encode_frame_into(f, 40 + i as u32, &mut out);
        }
        assert_eq!(&out[..sentinel.len()], sentinel);
        let mut dec = FrameDecoder::new();
        dec.push(&out[sentinel.len()..]);
        for (i, f) in frames.iter().enumerate() {
            let got = dec.next_frame().unwrap().expect("complete frame");
            assert_eq!(got.seq, 40 + i as u32);
            assert_eq!(&got.frame, f);
        }
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    /// Split feeding at the sizes a socket really delivers: default-sized
    /// chunks arriving in pieces smaller than, equal to and larger than a
    /// frame, which also drives the decoder's buffer compaction.
    #[test]
    fn split_feeding_of_full_size_chunks_matches_whole_feeding() {
        let mut rng = Xoshiro256::new(0x5B11_7009);
        let frames: Vec<Frame> = (0..6u64)
            .map(|k| {
                seeded_chunk(
                    &mut rng,
                    k * DEFAULT_CHUNK_SAMPLES as u64,
                    DEFAULT_CHUNK_SAMPLES,
                )
            })
            .collect();
        let mut wire = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            encode_frame_into(f, i as u32, &mut wire);
        }
        let drain = |dec: &mut FrameDecoder, got: &mut Vec<SeqFrame>| {
            while let Some(sf) = dec.next_frame().unwrap() {
                got.push(sf);
            }
        };
        let mut dec = FrameDecoder::new();
        let mut whole = Vec::new();
        dec.push(&wire);
        drain(&mut dec, &mut whole);
        assert_eq!(whole.len(), frames.len());
        for (i, (sf, f)) in whole.iter().zip(&frames).enumerate() {
            assert_eq!(sf.seq, i as u32);
            assert!(sf.frame == *f, "frame {i} changed in transit");
        }
        // 16 416 is header + payload of one default chunk: frame-aligned.
        for piece in [1, 3, 4096, 16_384, 16_416] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for part in wire.chunks(piece) {
                dec.push(part);
                drain(&mut dec, &mut got);
            }
            assert!(got == whole, "pieces of {piece} bytes decode differently");
            assert_eq!(dec.buffered(), 0);
        }
    }

    /// A count field that only matches the body if `n * 4` is allowed to
    /// wrap (as it would on a 32-bit target) must be refused by value, not
    /// trusted as an allocation size.
    #[test]
    fn chunk_sample_count_is_not_multiplied_before_it_is_checked() {
        for n in [0x4000_0000u32, u32::MAX] {
            let mut payload = 7u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&n.to_le_bytes());
            assert_eq!(payload.len(), 12);
            let mut bytes = encode_frame(&Frame::Heartbeat, 0);
            bytes[5] = 2; // SampleChunk
            bytes[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes[16..20].copy_from_slice(&payload_crc(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            assert_eq!(
                dec.next_frame(),
                Err(FrameError::BadPayload("sample count disagrees with length")),
                "n = {n:#x}"
            );
        }
    }

    #[test]
    fn every_frame_round_trips() {
        let mut dec = FrameDecoder::new();
        for (i, f) in all_frames().into_iter().enumerate() {
            let bytes = encode_frame(&f, i as u32);
            dec.push(&bytes);
            let got = dec.next_frame().unwrap().expect("complete frame");
            assert_eq!(got.seq, i as u32);
            assert_eq!(got.frame, f);
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_feeding_works() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            wire.extend_from_slice(&encode_frame(f, i as u32));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            dec.push(&[b]);
            while let Some(sf) = dec.next_frame().unwrap() {
                got.push(sf.frame);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn corrupt_crc_is_rejected_and_sticky() {
        let mut bytes = encode_frame(&Frame::Heartbeat, 0);
        // Heartbeat has no payload, so corrupt the stored CRC itself.
        bytes[16] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
        // Poisoned: even valid follow-up bytes are refused.
        dec.push(&encode_frame(&Frame::Bye, 1));
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn flipped_payload_byte_fails_the_crc() {
        let mut bytes = encode_frame(&Frame::Stats("{\"k\":1}".into()), 7);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut bytes = encode_frame(&Frame::Heartbeat, 0);
        bytes[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..HEADER_LEN]);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn bad_version_type_flags_magic_are_rejected() {
        let base = encode_frame(&Frame::Heartbeat, 0);
        for (at, val, check) in [
            (0usize, b'X', "magic"),
            (4, 9, "version"),
            (5, 99, "type"),
            (6, 1, "flags"),
        ] {
            let mut b = base.clone();
            b[at] = val;
            let mut dec = FrameDecoder::new();
            dec.push(&b);
            assert!(dec.next_frame().is_err(), "{check} should be rejected");
        }
    }

    #[test]
    fn meta_validation_rejects_hostile_fields() {
        for meta in [
            StreamMeta {
                sample_rate: f64::NAN,
                center_hz: 0.0,
                scale: 1.0,
            },
            StreamMeta {
                sample_rate: -8e6,
                center_hz: 0.0,
                scale: 1.0,
            },
            StreamMeta {
                sample_rate: 8e6,
                center_hz: f64::INFINITY,
                scale: 1.0,
            },
            StreamMeta {
                sample_rate: 8e6,
                center_hz: 0.0,
                scale: 0.0,
            },
        ] {
            assert!(meta.validate().is_err(), "{meta:?} should fail validation");
        }
    }

    #[test]
    fn source_ids_are_validated() {
        assert!(validate_source_id("usrp-roof.2").is_ok());
        assert!(validate_source_id(&"x".repeat(MAX_SOURCE_ID)).is_ok());
        for bad in [
            "",
            " ",
            "a b",
            "café",
            "x\0",
            &"x".repeat(MAX_SOURCE_ID + 1),
        ] {
            assert!(
                validate_source_id(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn malformed_source_hello_is_rejected() {
        // A SourceHello whose id length points past the payload end.
        let good = encode_frame(
            &Frame::SourceHello {
                source: "s1".into(),
                meta: StreamMeta {
                    sample_rate: 8e6,
                    center_hz: 0.0,
                    scale: 1.0,
                },
            },
            0,
        );
        let mut bytes = good.clone();
        bytes[HEADER_LEN] = 200; // id_len > remaining payload
        let crc = payload_crc(&bytes[HEADER_LEN..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadPayload(_))));

        // An id with a forbidden byte.
        let mut bytes = good;
        bytes[HEADER_LEN + 1] = b' ';
        let crc = payload_crc(&bytes[HEADER_LEN..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadPayload(_))));
    }

    #[test]
    fn chunk_sample_count_must_match_length() {
        let f = Frame::SampleChunk {
            start_sample: 0,
            iq: vec![(1, 2), (3, 4)],
        };
        let mut bytes = encode_frame(&f, 0);
        // Claim 3 samples while carrying 2; fix the CRC so only the inner
        // validation can catch it.
        bytes[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&3u32.to_le_bytes());
        let crc = payload_crc(&bytes[HEADER_LEN..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadPayload(_))));
    }
}
