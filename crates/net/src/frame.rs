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
//! quiet ether), and on a closed-loop fleet it is what sets the ingest
//! rate. Four things keep it cheap. The payload CRC is
//! [`rfd_dsp::coding::crc32`], which folds 64 bytes a step with carry-less
//! multiplies where the CPU has PCLMULQDQ (slice-by-8 elsewhere, and for
//! payloads under 128 bytes). `encode_frame_into` writes the payload
//! straight behind the header into a buffer the sender reuses (one per
//! `TraceSender`, the outbox itself on a fleet connection), and a sender
//! whose samples are already wire bytes (a `.rfdt` payload) appends them
//! behind `CHUNK_BODY_OFFSET` bytes of room and frames them in place with
//! `seal_sample_chunk`. A receiver reads the socket straight into the
//! decoder (the crate-internal `FrameDecoder::read_from`) and takes a chunk's body by
//! reference (`FrameDecoder::next_decoded`): the fleet server queues
//! those bytes as they are, and each source's analysis thread widens them
//! with `rfd_dsp::kernels::widen_i16_iq`, so no intermediate pair vector
//! exists on either end. Everything else is parsed in one bulk pass once
//! its length has been validated. Measured on the 2-core AVX2
//! reference box (`bench/run.sh --workload fleet_max_quiet_x2 --trace 1`):
//! encode 55 → 4.4 (slice-by-8) → 1.6 ns/sample, decode 55 → 4.2 → 1.4,
//! with the slice-by-8 CRC about 70 % of the middle figures.

use rfd_dsp::coding::crc32;
use std::fmt;
use std::io::{self, Read};
use std::ops::Range;

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
pub(crate) const MAX_CHUNK_SAMPLES: usize = (MAX_PAYLOAD - CHUNK_PREFIX) / 4;
/// Bytes of a SampleChunk payload before its I/Q body: `start_sample: u64`
/// and `n: u32`.
const CHUNK_PREFIX: usize = 12;
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
    pub(crate) fn type_byte(&self) -> u8 {
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

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
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

/// Appends `pairs` to `out` as a sample chunk body: little-endian i16 I/Q,
/// 4 bytes a sample. Returns how many pairs there were.
pub(crate) fn append_pairs(
    out: &mut Vec<u8>,
    pairs: impl ExactSizeIterator<Item = (i16, i16)>,
) -> usize {
    let (n, at) = (pairs.len(), out.len());
    // Sized once, then filled through fixed 4-byte windows: no per-sample
    // capacity check, so the loop vectorizes.
    out.resize(at + n * 4, 0);
    for (b, (i, q)) in out[at..].chunks_exact_mut(4).zip(pairs) {
        b[..2].copy_from_slice(&i.to_le_bytes());
        b[2..].copy_from_slice(&q.to_le_bytes());
    }
    n
}

/// Appends `frame`'s payload to `out`.
fn write_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello(role) => out.push(role.as_u8()),
        Frame::StreamMeta(m) => write_meta(m, out),
        Frame::SampleChunk { start_sample, iq } => {
            out.reserve(CHUNK_PREFIX + iq.len() * 4);
            out.extend_from_slice(&start_sample.to_le_bytes());
            out.extend_from_slice(&(iq.len() as u32).to_le_bytes());
            append_pairs(out, iq.iter().copied());
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
pub(crate) fn encode_frame_into(frame: &Frame, seq: u32, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + HEADER_LEN, 0);
    write_payload(frame, out);
    let payload = out.len() - start - HEADER_LEN;
    assert!(
        payload <= MAX_PAYLOAD,
        "{} payload of {payload} bytes exceeds MAX_PAYLOAD",
        frame.type_name(),
    );
    seal(&mut out[start..], frame.type_byte(), seq);
}

/// Writes the header of the frame `frame` holds — its first [`HEADER_LEN`]
/// bytes, whatever they are, followed by the whole payload: magic, version,
/// type `ty`, zero flags, `seq`, and the payload's length and CRC.
fn seal(frame: &mut [u8], ty: u8, seq: u32) {
    let (header, payload) = frame.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(MAGIC);
    header[4] = VERSION;
    header[5] = ty;
    header[6..8].fill(0);
    header[8..12].copy_from_slice(&seq.to_le_bytes());
    header[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[16..20].copy_from_slice(&payload_crc(payload).to_le_bytes());
}

/// Where a SampleChunk frame's I/Q body starts: behind the header and the
/// chunk prefix. A sender that frames a chunk in place lays this many bytes
/// out (any value), appends the body behind them, then calls
/// [`seal_sample_chunk`].
pub(crate) const CHUNK_BODY_OFFSET: usize = HEADER_LEN + CHUNK_PREFIX;

/// Completes a SampleChunk frame built in place: `frame` is
/// [`CHUNK_BODY_OFFSET`] bytes of room followed by the interleaved
/// little-endian i16 I/Q body. Writes the chunk prefix (`start_sample`, the
/// sample count) and the header, so the bytes equal
/// `encode_frame(&Frame::SampleChunk { start_sample, iq }, seq)` for the
/// pairs the body holds — without the pairs ever existing.
///
/// # Panics
/// Panics if the body ends in a partial pair or holds more than
/// [`MAX_CHUNK_SAMPLES`] samples.
pub(crate) fn seal_sample_chunk(frame: &mut [u8], start_sample: u64, seq: u32) {
    let body = frame.len() - CHUNK_BODY_OFFSET;
    assert!(
        body.is_multiple_of(4) && body / 4 <= MAX_CHUNK_SAMPLES,
        "sample chunk body of {body} bytes is not 0..={MAX_CHUNK_SAMPLES} whole samples"
    );
    let prefix = &mut frame[HEADER_LEN..CHUNK_BODY_OFFSET];
    prefix[..8].copy_from_slice(&start_sample.to_le_bytes());
    prefix[8..].copy_from_slice(&((body / 4) as u32).to_le_bytes());
    seal(frame, 2, seq);
}

/// Serializes `frame` into a fresh buffer; see `encode_frame_into`.
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

/// Validates a SampleChunk payload — its body, the bytes after the
/// [`CHUNK_PREFIX`], must hold exactly the declared sample count — and
/// returns its start sample.
fn sample_chunk(payload: &[u8]) -> Result<u64, FrameError> {
    let mut r = Reader::new(payload);
    let start_sample = r.u64()?;
    let n = r.u32()?;
    let body = payload.len() - CHUNK_PREFIX;
    // Compared by division: `n * 4` wraps on a 32-bit target, where an
    // empty body could then claim 2^30 samples.
    if !body.is_multiple_of(4) || (body / 4) as u64 != u64::from(n) {
        return Err(FrameError::BadPayload("sample count disagrees with length"));
    }
    Ok(start_sample)
}

/// The interleaved i16 I/Q pairs of a validated sample body.
fn parse_pairs(body: &[u8]) -> Vec<(i16, i16)> {
    body.chunks_exact(4)
        .map(|b| {
            (
                i16::from_le_bytes([b[0], b[1]]),
                i16::from_le_bytes([b[2], b[3]]),
            )
        })
        .collect()
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
            let start_sample = sample_chunk(payload)?;
            return Ok(Frame::SampleChunk {
                start_sample,
                iq: parse_pairs(&payload[CHUNK_PREFIX..]),
            });
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

/// One frame out of [`FrameDecoder::next_decoded`]: a sample chunk's I/Q
/// body borrowed from the decoder's buffer, any other frame decoded.
#[derive(Debug, PartialEq)]
pub(crate) enum Decoded<'a> {
    /// A validated SampleChunk, its body still in wire form.
    Samples {
        /// The header's per-direction sequence number.
        seq: u32,
        /// Index of the first sample in the stream.
        start_sample: u64,
        /// The interleaved little-endian i16 I/Q pairs: 4 bytes a sample.
        body: &'a [u8],
    },
    /// Any other frame.
    Frame(SeqFrame),
}

/// The most bytes one [`FrameDecoder::read_from`] call reads: four default
/// sample-chunk frames.
pub(crate) const READ_BOUND: usize = 64 * 1024;

/// Incremental frame decoder: feed raw socket bytes in, pop whole frames
/// out.
///
/// Bytes arrive either copied in ([`push`](Self::push)) or, inside this
/// crate, read straight into the decoder's own buffer (`read_from`, at most
/// `READ_BOUND` a call), so the fleet server, which owns the socket, copies
/// nothing on the way to the frame check.
///
/// The decoder is strict — the first malformed byte poisons the stream and
/// every later call returns the same error, mirroring how a connection
/// handler should treat hostile input (drop the peer, don't resync).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `buf[..filled]` is received bytes; the rest is room `read_from`
    /// reads into, zeroed once when the buffer grows, not on every read.
    buf: Vec<u8>,
    filled: usize,
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
            self.compact();
            self.buf.truncate(self.filled);
            self.buf.extend_from_slice(data);
            self.filled = self.buf.len();
        }
    }

    /// Reads once from `src` straight into the decoder's buffer, at most
    /// [`READ_BOUND`] bytes, and returns how many arrived (`0` is end of
    /// stream) — [`push`](Self::push) without the caller's buffer and its
    /// copy. Errors are `src`'s, passed through as they are; a poisoned
    /// decoder reads nothing and returns its poison as `InvalidData`.
    ///
    /// A caller that decodes every complete frame before it reads again
    /// keeps the buffer within [`READ_BOUND`] plus one maximum frame.
    pub(crate) fn read_from<R: Read + ?Sized>(&mut self, src: &mut R) -> io::Result<usize> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone().into());
        }
        self.compact();
        let end = self.filled + READ_BOUND;
        if self.buf.len() < end {
            self.buf.reserve_exact(end - self.buf.len());
            self.buf.resize(end, 0);
        }
        let n = src.read(&mut self.buf[self.filled..end])?;
        self.filled += n;
        Ok(n)
    }

    /// Tries to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` for a
    /// valid frame, and `Err(_)` once the stream is malformed (sticky).
    pub fn next_frame(&mut self) -> Result<Option<SeqFrame>, FrameError> {
        Ok(self.next_decoded()?.map(|d| match d {
            Decoded::Samples {
                seq,
                start_sample,
                body,
            } => SeqFrame {
                seq,
                frame: Frame::SampleChunk {
                    start_sample,
                    iq: parse_pairs(body),
                },
            },
            Decoded::Frame(sf) => sf,
        }))
    }

    /// [`next_frame`](Self::next_frame) without the pair parse: a sample
    /// chunk comes back as its validated wire body, borrowed from this
    /// decoder until the next call on it. Same checks, same order, same
    /// errors, same poisoning.
    pub(crate) fn next_decoded(&mut self) -> Result<Option<Decoded<'_>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let (seq, ty, payload) = match self.next_payload() {
            Ok(Some(next)) => next,
            Ok(None) => return Ok(None),
            Err(e) => return Err(self.poison(e)),
        };
        if ty == 2 {
            return match sample_chunk(&self.buf[payload.clone()]) {
                Ok(start_sample) => Ok(Some(Decoded::Samples {
                    seq,
                    start_sample,
                    body: &self.buf[payload.start + CHUNK_PREFIX..payload.end],
                })),
                Err(e) => Err(self.poison(e)),
            };
        }
        match decode_payload(ty, &self.buf[payload]) {
            Ok(frame) => Ok(Some(Decoded::Frame(SeqFrame { seq, frame }))),
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Moves the undecoded bytes to the front once the consumed prefix
    /// dominates, or once more than a maximum frame has been received (the
    /// undecoded rest is then less than a frame, for a caller that drains
    /// before it reads), keeping the buffer small on long-lived
    /// connections. [`push`](Self::push) and [`read_from`](Self::read_from)
    /// run it before they take bytes in, the only places the buffer
    /// changes: decoding never moves the bytes, so a body
    /// [`next_decoded`](Self::next_decoded) lent out stays put until the
    /// borrow ends.
    fn compact(&mut self) {
        let dominates = self.consumed > 4096 && self.consumed * 2 >= self.filled;
        let overfull = self.consumed > 0 && self.filled > HEADER_LEN + MAX_PAYLOAD;
        if dominates || overfull {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
    }

    /// Poisons the stream with `e` and frees the buffer.
    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        self.buf = Vec::new();
        self.filled = 0;
        self.consumed = 0;
        e
    }

    /// Validates the next frame's header and CRC and consumes it: its
    /// sequence number, type byte and where its payload sits in `buf`.
    fn next_payload(&mut self) -> Result<Option<(u32, u8, Range<usize>)>, FrameError> {
        let avail = &self.buf[self.consumed..self.filled];
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
        let got_crc = payload_crc(&avail[HEADER_LEN..total]);
        if got_crc != want_crc {
            return Err(FrameError::BadCrc {
                want: want_crc,
                got: got_crc,
            });
        }
        let start = self.consumed + HEADER_LEN;
        self.consumed += total;
        Ok(Some((seq, ty, start..self.consumed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::rng::Xoshiro256;

    impl FrameDecoder {
        /// Bytes buffered but not yet decoded into frames.
        fn buffered(&self) -> usize {
            self.filled - self.consumed
        }
    }

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

    /// Everything a decoder yields for `wire` fed `piece` bytes at a time:
    /// the frames, then the error that poisoned it (checked sticky against
    /// a valid frame pushed behind it), and what it still buffers.
    fn drive(
        wire: &[u8],
        piece: usize,
        mut next: impl FnMut(&mut FrameDecoder) -> Result<Option<SeqFrame>, FrameError>,
    ) -> (Vec<SeqFrame>, Option<FrameError>, usize) {
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for part in wire.chunks(piece) {
            dec.push(part);
            loop {
                match next(&mut dec) {
                    Ok(Some(sf)) => got.push(sf),
                    Ok(None) => break,
                    Err(e) => {
                        dec.push(&encode_frame(&Frame::Bye, 0));
                        assert_eq!(next(&mut dec), Err(e.clone()), "not sticky");
                        assert_eq!(next(&mut dec), Err(e.clone()), "not sticky");
                        return (got, Some(e), dec.buffered());
                    }
                }
            }
        }
        (got, None, dec.buffered())
    }

    /// The borrowed decode with its pairs parsed here, independently of
    /// `next_frame`'s own parse.
    fn borrowed(dec: &mut FrameDecoder) -> Result<Option<SeqFrame>, FrameError> {
        Ok(dec.next_decoded()?.map(|d| match d {
            Decoded::Samples {
                seq,
                start_sample,
                body,
            } => {
                let mut iq = Vec::new();
                for b in body.chunks(4) {
                    assert_eq!(b.len(), 4, "body not whole pairs");
                    let i = i16::from_le_bytes([b[0], b[1]]);
                    iq.push((i, i16::from_le_bytes([b[2], b[3]])));
                }
                SeqFrame {
                    seq,
                    frame: Frame::SampleChunk { start_sample, iq },
                }
            }
            Decoded::Frame(sf) => {
                assert_ne!(sf.frame.type_byte(), 2, "a chunk decoded owned");
                sf
            }
        }))
    }

    /// A SampleChunk frame carrying `payload` verbatim, its length and CRC
    /// fields consistent with it.
    fn raw_chunk(payload: &[u8], seq: u32) -> Vec<u8> {
        let mut bytes = encode_frame(&Frame::Heartbeat, seq);
        bytes[5] = 2;
        bytes[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes[16..20].copy_from_slice(&payload_crc(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn borrowed_decode_equals_next_frame_on_valid_and_malformed_chunks() {
        let mut rng = Xoshiro256::new(0xB0DD_2009);
        // Valid traffic first: chunks of several sizes between other frames.
        let mut valid = Vec::new();
        let mut seq = 0u32;
        for (k, n) in [300usize, 0, 1, 257].into_iter().enumerate() {
            encode_frame_into(&seeded_chunk(&mut rng, 1000 * k as u64, n), seq, &mut valid);
            encode_frame_into(&all_frames()[k + 4], seq + 1, &mut valid);
            seq += 2;
        }
        let chunk = encode_frame(&seeded_chunk(&mut rng, 1 << 40, 100), seq);
        let payload = chunk[HEADER_LEN..].to_vec();
        let mut bad_crc = chunk.clone();
        bad_crc[HEADER_LEN + 12 + 37] ^= 0x10;
        let mut count_off = payload.clone();
        count_off[8..12].copy_from_slice(&101u32.to_le_bytes());
        let mut ragged = payload.clone();
        ragged.extend_from_slice(&[0xAB, 0xCD]);
        let mut oversized = chunk.clone();
        oversized[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let crc_error = Some(FrameError::BadCrc {
            want: payload_crc(&payload),
            got: payload_crc(&bad_crc[HEADER_LEN..]),
        });
        let count_error = Some(FrameError::BadPayload("sample count disagrees with length"));
        let truncated = Some(FrameError::BadPayload("payload truncated"));
        let too_long = Some(FrameError::Oversized(MAX_PAYLOAD as u32 + 1));
        // (case, bytes after the valid traffic, error, frames decoded)
        let cases = [
            ("valid", chunk.clone(), None, 9),
            ("cut short", chunk[..chunk.len() - 3].to_vec(), None, 8),
            ("bad crc", bad_crc, crc_error, 8),
            (
                "count disagrees",
                raw_chunk(&count_off, seq),
                count_error.clone(),
                8,
            ),
            (
                "body not whole pairs",
                raw_chunk(&ragged, seq),
                count_error,
                8,
            ),
            ("prefix cut", raw_chunk(&payload[..7], seq), truncated, 8),
            ("oversized length", oversized, too_long, 8),
        ];
        for (what, tail, want, frames) in cases {
            let mut wire = valid.clone();
            wire.extend_from_slice(&tail);
            let whole = drive(&wire, wire.len(), |d| d.next_frame());
            assert_eq!(whole.1, want, "{what}");
            assert_eq!(whole.0.len(), frames, "{what}");
            for piece in [wire.len(), 1] {
                let owned = drive(&wire, piece, |d| d.next_frame());
                let lent = drive(&wire, piece, borrowed);
                assert!(
                    owned == whole,
                    "{what}: next_frame depends on piece {piece}"
                );
                assert!(
                    lent == whole,
                    "{what}: borrowed decode differs, piece {piece}"
                );
            }
        }
    }

    /// A reader that hands `wire` out in pieces of seeded random length,
    /// from one byte up to three default chunk frames.
    struct Pieces<'a> {
        wire: &'a [u8],
        rng: Xoshiro256,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let most = 3 * (CHUNK_BODY_OFFSET + 4 * DEFAULT_CHUNK_SAMPLES) as u64;
            let want = 1 + (self.rng.next_u64() % most) as usize;
            let n = want.min(buf.len()).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    /// A decoded item with a sample body copied out of the decoder.
    #[derive(Debug, PartialEq)]
    enum Owned {
        Samples(u32, u64, Vec<u8>),
        Frame(SeqFrame),
    }

    fn drain_owned(dec: &mut FrameDecoder, got: &mut Vec<Owned>) {
        while let Some(d) = dec.next_decoded().unwrap() {
            got.push(match d {
                Decoded::Samples {
                    seq,
                    start_sample,
                    body,
                } => Owned::Samples(seq, start_sample, body.to_vec()),
                Decoded::Frame(sf) => Owned::Frame(sf),
            });
        }
    }

    /// The most a decoder fed by `read_from` may hold: one read on top of
    /// one maximum frame.
    const DECODER_BOUND: usize = READ_BOUND + HEADER_LEN + MAX_PAYLOAD;

    #[test]
    fn read_from_decodes_what_push_decodes_within_its_bound() {
        let mut rng = Xoshiro256::new(0x4EAD_2009);
        let mut wire = Vec::new();
        let mut seq = 0u32;
        for n in [4096, 0, 1, 4096, 4097, 20_000, MAX_CHUNK_SAMPLES, 3, 4096] {
            let start_sample = rng.next_u64() >> 8;
            encode_frame_into(&seeded_chunk(&mut rng, start_sample, n), seq, &mut wire);
            let other = &all_frames()[seq as usize % 14];
            encode_frame_into(other, seq + 1, &mut wire);
            seq += 2;
        }
        let mut pushed = FrameDecoder::new();
        pushed.push(&wire);
        let mut want = Vec::new();
        drain_owned(&mut pushed, &mut want);
        assert_eq!(want.len(), 18);

        for seed in 0..4u64 {
            let mut src = Pieces {
                wire: &wire,
                rng: Xoshiro256::new(seed),
            };
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut reads = 0;
            while dec.read_from(&mut src).unwrap() > 0 {
                reads += 1;
                assert!(dec.buffered() <= DECODER_BOUND, "seed {seed}");
                assert!(dec.buf.capacity() <= DECODER_BOUND, "seed {seed}");
                drain_owned(&mut dec, &mut got);
            }
            assert!(
                reads > wire.len() / READ_BOUND,
                "seed {seed}: reads not bounded"
            );
            assert!(got == want, "seed {seed}: read_from decodes differently");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn read_from_refuses_a_hostile_length_and_stays_poisoned() {
        let mut hostile = encode_frame(&Frame::Heartbeat, 0);
        hostile[5] = 2;
        hostile[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        hostile.resize(HEADER_LEN + 3 * READ_BOUND, 0xA5);
        let mut src = &hostile[..];
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.read_from(&mut src).unwrap(), READ_BOUND);
        let refused = Err(FrameError::Oversized(MAX_PAYLOAD as u32 + 1));
        assert_eq!(dec.next_frame(), refused);
        // Nothing of the claimed payload is kept, and nothing more is read.
        assert_eq!((dec.buffered(), dec.buf.capacity()), (0, 0));
        let left = src.len();
        let err = dec.read_from(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(src.len(), left);
        dec.push(&encode_frame(&Frame::Bye, 1));
        assert_eq!(dec.next_frame(), refused);
        assert!(matches!(dec.next_decoded(), Err(FrameError::Oversized(_))));

        // A bad CRC poisons a reading decoder the same way.
        let mut bad = encode_frame(&Frame::Stats("{}".into()), 0);
        *bad.last_mut().unwrap() ^= 1;
        bad.extend(encode_frame(&Frame::Bye, 1));
        let mut dec = FrameDecoder::new();
        dec.read_from(&mut &bad[..]).unwrap();
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
        let again = dec.read_from(&mut &encode_frame(&Frame::Bye, 2)[..]);
        assert_eq!(again.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn an_in_place_sample_chunk_equals_the_encoded_one() {
        let mut rng = Xoshiro256::new(0x5EA1_2009);
        for n in [0, 1, 4096, MAX_CHUNK_SAMPLES] {
            let start_sample = rng.next_u64();
            let frame = seeded_chunk(&mut rng, start_sample, n);
            let Frame::SampleChunk { iq, .. } = &frame else {
                unreachable!()
            };
            let mut out = vec![0xEE; CHUNK_BODY_OFFSET];
            for &(i, q) in iq {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&q.to_le_bytes());
            }
            seal_sample_chunk(&mut out, start_sample, 77);
            assert!(out == encode_frame(&frame, 77), "{n} samples");
        }
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
