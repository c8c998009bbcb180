//! USRP-style binary trace files.
//!
//! The paper's methodology is trace-driven: "The traces are simply files
//! that store the streams of samples recorded by the USRP." This module
//! defines a compact binary format — a fixed header followed by interleaved
//! i16 I/Q pairs (the USRP's native wire format) with a stored scale factor
//! so unit-amplitude baseband round-trips without clipping.

use rfd_dsp::complex::to_i16_iq;
use rfd_dsp::{kernels, Complex32};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes identifying a trace file.
pub const MAGIC: &[u8; 4] = b"RFDT";
/// Current format version.
pub const VERSION: u32 = 1;

/// Trace file header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceHeader {
    /// Complex sample rate in Hz.
    pub sample_rate: f64,
    /// Band center relative to the 2.4 GHz band start, Hz.
    pub center_hz: f64,
    /// Number of complex samples.
    pub n_samples: u64,
    /// Amplitude scale: stored i16 values are `sample * i16::MAX / scale`.
    pub scale: f32,
}

/// A little-endian read cursor over a byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        out
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

/// Serializes a trace (header + samples) into bytes.
pub fn encode_trace(header: &TraceHeader, samples: &[Complex32]) -> Vec<u8> {
    assert_eq!(header.n_samples as usize, samples.len());
    let mut buf = Vec::with_capacity(36 + samples.len() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&header.sample_rate.to_le_bytes());
    buf.extend_from_slice(&header.center_hz.to_le_bytes());
    buf.extend_from_slice(&header.n_samples.to_le_bytes());
    buf.extend_from_slice(&header.scale.to_le_bytes());
    let inv = 1.0 / header.scale;
    for &z in samples {
        let (i, q) = to_i16_iq(z.scale(inv));
        buf.extend_from_slice(&i.to_le_bytes());
        buf.extend_from_slice(&q.to_le_bytes());
    }
    buf
}

/// Size of the serialized header in bytes.
pub(crate) const HEADER_LEN: usize = 36;

/// Parses and validates the fixed 36-byte header. Shared by the whole-file
/// decoder and the chunked reader so both enforce identical rules.
pub(crate) fn decode_header(data: &[u8; HEADER_LEN]) -> io::Result<TraceHeader> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut cur = Cursor::new(data);
    let magic: [u8; 4] = cur.take();
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = cur.get_u32_le();
    if version != VERSION {
        return Err(bad(&format!(
            "unsupported version {version} (this build reads version {VERSION})"
        )));
    }
    let sample_rate = cur.get_f64_le();
    let center_hz = cur.get_f64_le();
    let n_samples = cur.get_u64_le();
    let scale = cur.get_f32_le();
    if !sample_rate.is_finite() || sample_rate <= 0.0 || !scale.is_finite() || scale <= 0.0 {
        return Err(bad("invalid header fields"));
    }
    if !center_hz.is_finite() {
        return Err(bad("invalid header fields"));
    }
    Ok(TraceHeader {
        sample_rate,
        center_hz,
        n_samples,
        scale,
    })
}

/// Deserializes a trace from bytes, widening the payload with
/// [`kernels::widen_i16_iq`].
pub fn decode_trace(data: &[u8]) -> io::Result<(TraceHeader, Vec<Complex32>)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if data.len() < HEADER_LEN {
        return Err(bad("trace too short for header"));
    }
    let mut head = [0u8; HEADER_LEN];
    head.copy_from_slice(&data[..HEADER_LEN]);
    let header = decode_header(&head)?;
    let payload = &data[HEADER_LEN..];
    if (payload.len() as u64) < header.n_samples.saturating_mul(4) {
        return Err(bad("truncated sample payload"));
    }
    let mut samples = Vec::new();
    let bytes = &payload[..header.n_samples as usize * 4];
    kernels::widen_i16_iq(bytes, header.scale, &mut samples);
    Ok((header, samples))
}

/// Chooses a scale that maps the largest-magnitude component to ~0.95 of
/// full range.
pub fn auto_scale(samples: &[Complex32]) -> f32 {
    let max = samples
        .iter()
        .map(|z| z.re.abs().max(z.im.abs()))
        .fold(0.0f32, f32::max);
    if max <= 0.0 {
        1.0
    } else {
        max / 0.95
    }
}

/// Writes a trace file to disk.
pub fn write_trace(
    path: &Path,
    sample_rate: f64,
    center_hz: f64,
    samples: &[Complex32],
) -> io::Result<TraceHeader> {
    let header = TraceHeader {
        sample_rate,
        center_hz,
        n_samples: samples.len() as u64,
        scale: auto_scale(samples),
    };
    let bytes = encode_trace(&header, samples);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(header)
}

/// Reads a trace file from disk.
pub fn read_trace(path: &Path) -> io::Result<(TraceHeader, Vec<Complex32>)> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    decode_trace(&data)
}

/// Streams a trace file's raw i16 I/Q pairs in bounded chunks instead of
/// loading the whole payload, so arbitrarily long captures can be replayed
/// (e.g. over the network) with constant memory. Header validation is the
/// same `decode_header` the whole-file decoder uses.
pub struct ChunkedTraceReader {
    file: std::io::BufReader<std::fs::File>,
    header: TraceHeader,
    remaining: u64,
    /// Byte scratch [`read_into`](Self::read_into) refills.
    raw: Vec<u8>,
}

impl ChunkedTraceReader {
    /// Opens `path`, reading and validating the header (including that the
    /// file is long enough for the declared sample count, so truncation is
    /// reported up front, not mid-stream).
    pub fn open(path: &Path) -> io::Result<Self> {
        let f = std::fs::File::open(path)?;
        let payload_len = f.metadata()?.len().saturating_sub(HEADER_LEN as u64);
        let mut file = std::io::BufReader::new(f);
        let mut head = [0u8; HEADER_LEN];
        file.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::InvalidData, "trace too short for header")
            } else {
                e
            }
        })?;
        let header = decode_header(&head)?;
        if payload_len < header.n_samples.saturating_mul(4) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated sample payload",
            ));
        }
        Ok(Self {
            remaining: header.n_samples,
            file,
            header,
            raw: Vec::new(),
        })
    }

    /// The validated header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Reads up to `max_samples` raw (i, q) pairs; `None` once the trace is
    /// exhausted. Convert with `from_i16_iq(i, q).scale(header.scale)` for
    /// exactly the samples [`decode_trace`] would produce.
    pub fn next_chunk(&mut self, max_samples: usize) -> io::Result<Option<Vec<(i16, i16)>>> {
        let mut raw = Vec::new();
        if self.read_raw(&mut raw, max_samples)? == 0 {
            return Ok(None);
        }
        let out = raw
            .chunks_exact(4)
            .map(|b| {
                (
                    i16::from_le_bytes([b[0], b[1]]),
                    i16::from_le_bytes([b[2], b[3]]),
                )
            })
            .collect();
        Ok(Some(out))
    }

    /// Appends the next up-to-`max_samples` samples' raw payload bytes —
    /// little-endian i16 I/Q pairs, 4 bytes a sample, exactly as stored —
    /// to `out` and returns how many samples they are; `0` once the trace
    /// is exhausted. A network sender reads straight into the frame it is
    /// building this way, behind the header it has already laid out. On an
    /// error `out` is left as it was.
    pub fn read_raw(&mut self, out: &mut Vec<u8>, max_samples: usize) -> io::Result<usize> {
        let n = (self.remaining.min(max_samples.max(1) as u64)) as usize;
        let at = out.len();
        out.resize(at + n * 4, 0);
        if let Err(e) = self.file.read_exact(&mut out[at..]) {
            out.truncate(at);
            return Err(e);
        }
        self.remaining -= n as u64;
        Ok(n)
    }

    /// Repositions the reader so the next chunk starts at absolute sample
    /// index `n`. This is what a resuming network sender uses to continue
    /// from the server's last acknowledged sample after a reconnect, and
    /// what `--resume` uses to skip already-checkpointed input. Seeking to
    /// exactly `n_samples` positions at end-of-trace; anything beyond is an
    /// `InvalidInput` error (a silent clamp would hide a corrupt resume
    /// offset as an empty read).
    pub fn seek_to_sample(&mut self, n: u64) -> io::Result<()> {
        use std::io::Seek;
        if n > self.header.n_samples {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "seek to sample {n} past end of trace ({} samples)",
                    self.header.n_samples
                ),
            ));
        }
        let byte = HEADER_LEN as u64 + n * 4;
        self.file.seek(io::SeekFrom::Start(byte))?;
        self.remaining = self.header.n_samples - n;
        Ok(())
    }

    /// Refills `buf` with the next up-to-`max_samples` scaled complex
    /// samples — exactly the values [`decode_trace`] produces, through the
    /// same [`kernels::widen_i16_iq`] — and returns how many there are; `0`
    /// once the trace is exhausted. `buf` and the reader's byte scratch are
    /// reused, so a replay loop allocates nothing per call.
    pub fn read_into(&mut self, buf: &mut Vec<Complex32>, max_samples: usize) -> io::Result<usize> {
        buf.clear();
        let n = (self.remaining.min(max_samples.max(1) as u64)) as usize;
        self.raw.resize(n * 4, 0);
        self.file.read_exact(&mut self.raw)?;
        self.remaining -= n as u64;
        kernels::widen_i16_iq(&self.raw, self.header.scale, buf);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_dsp::complex::from_i16_iq;

    fn ramp(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.37).sin() * 2.0, (i as f32 * 0.21).cos() * 2.0))
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let samples = ramp(1000);
        let header = TraceHeader {
            sample_rate: 8e6,
            center_hz: 37e6,
            n_samples: 1000,
            scale: auto_scale(&samples),
        };
        let bytes = encode_trace(&header, &samples);
        let (h2, s2) = decode_trace(&bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(s2.len(), samples.len());
        for (a, b) in samples.iter().zip(s2.iter()) {
            assert!((*a - *b).abs() < 2e-4 * header.scale, "{a} vs {b}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rfdump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.rfdt");
        let samples = ramp(500);
        let h = write_trace(&path, 8e6, 37e6, &samples).unwrap();
        let (h2, s2) = read_trace(&path).unwrap();
        assert_eq!(h, h2);
        assert_eq!(s2.len(), 500);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let samples = ramp(10);
        let header = TraceHeader {
            sample_rate: 8e6,
            center_hz: 0.0,
            n_samples: 10,
            scale: 1.0,
        };
        let bytes = encode_trace(&header, &samples);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_trace(&bad).is_err());
        assert!(decode_trace(&bytes[..bytes.len() - 8]).is_err());
        assert!(decode_trace(&[0u8; 4]).is_err());
    }

    #[test]
    fn auto_scale_handles_silence() {
        assert_eq!(auto_scale(&[Complex32::ZERO; 4]), 1.0);
    }

    #[test]
    fn chunked_reader_matches_whole_file_decode() {
        let dir = std::env::temp_dir().join("rfdump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunked.rfdt");
        let samples = ramp(1003); // deliberately not a multiple of the chunk
        write_trace(&path, 8e6, 37e6, &samples).unwrap();
        let (h, whole) = read_trace(&path).unwrap();

        let mut r = ChunkedTraceReader::open(&path).unwrap();
        assert_eq!(r.header(), &h);
        let mut streamed = Vec::new();
        let mut chunk = Vec::new();
        while r.read_into(&mut chunk, 256).unwrap() > 0 {
            assert!(chunk.len() <= 256);
            streamed.extend_from_slice(&chunk);
        }
        assert_eq!(r.remaining, 0);
        assert_eq!(streamed.len(), whole.len());
        // Bit-identical, not merely close: both paths apply the same
        // i16 → f32 conversion.
        for (a, b) in whole.iter().zip(streamed.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }

        // The raw pairs a network sender puts on the wire: the documented
        // conversion gives the same samples, and the last chunk is short.
        r.seek_to_sample(0).unwrap();
        let mut lens = Vec::new();
        let mut raw = Vec::new();
        while let Some(chunk) = r.next_chunk(256).unwrap() {
            lens.push(chunk.len());
            raw.extend(chunk);
        }
        assert_eq!(lens, [256, 256, 256, 235]);
        for (a, &(i, q)) in whole.iter().zip(&raw) {
            let b = from_i16_iq(i, q).scale(h.scale);
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits())
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A trace holding exactly `pairs`: the header `encode_trace` writes,
    /// with the payload replaced by the raw little-endian pairs.
    fn raw_trace(scale: f32, pairs: &[(i16, i16)]) -> Vec<u8> {
        let header = TraceHeader {
            sample_rate: 8e6,
            center_hz: 0.0,
            n_samples: pairs.len() as u64,
            scale,
        };
        let mut bytes = encode_trace(&header, &vec![Complex32::ZERO; pairs.len()]);
        bytes.truncate(HEADER_LEN);
        for &(i, q) in pairs {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&q.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn every_decoder_widens_extreme_pairs_bit_for_bit() {
        // Every pairing of the extremes, 0 and -1 first, then a spread of
        // ordinary values; 4 099 samples is a multiple of no vector width.
        let special = [i16::MIN, i16::MAX, 0, -1, 1, i16::MIN + 1];
        let pairs: Vec<(i16, i16)> = (0..4099usize)
            .map(|k| match k {
                0..36 => (special[k % 6], special[k / 6]),
                _ => ((k as i16).wrapping_mul(7919), (k as i16).wrapping_mul(-104)),
            })
            .collect();
        let bits = |v: &[Complex32]| -> Vec<(u32, u32)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let dir = std::env::temp_dir().join("rfdump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("extremes.rfdt");
        for scale in [1.0f32, 0.37] {
            let want: Vec<Complex32> = pairs
                .iter()
                .map(|&(i, q)| from_i16_iq(i, q).scale(scale))
                .collect();
            let bytes = raw_trace(scale, &pairs);
            let (_, whole) = decode_trace(&bytes).unwrap();
            assert_eq!(bits(&whole), bits(&want), "decode_trace, scale {scale}");

            std::fs::write(&path, &bytes).unwrap();
            let mut r = ChunkedTraceReader::open(&path).unwrap();
            for max in [1usize, 7, 8, 12_800] {
                r.seek_to_sample(0).unwrap();
                let (mut streamed, mut chunk) = (Vec::new(), Vec::new());
                while r.read_into(&mut chunk, max).unwrap() > 0 {
                    streamed.extend_from_slice(&chunk);
                }
                assert_eq!(
                    bits(&streamed),
                    bits(&want),
                    "read_into({max}), scale {scale}"
                );
            }

            r.seek_to_sample(0).unwrap();
            let mut raw = Vec::new();
            while let Some(chunk) = r.next_chunk(1000).unwrap() {
                raw.extend(chunk);
            }
            assert_eq!(raw, pairs, "next_chunk, scale {scale}");

            // The raw bytes are the stored payload verbatim, appended behind
            // whatever the buffer already holds.
            r.seek_to_sample(0).unwrap();
            let mut out = b"head".to_vec();
            let mut lens = Vec::new();
            loop {
                match r.read_raw(&mut out, 1000).unwrap() {
                    0 => break,
                    n => lens.push(n),
                }
            }
            assert_eq!(lens, [1000, 1000, 1000, 1000, 99], "scale {scale}");
            assert_eq!(&out[..4], b"head");
            assert!(out[4..] == bytes[HEADER_LEN..], "read_raw, scale {scale}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_seeks_to_an_absolute_sample() {
        let dir = std::env::temp_dir().join("rfdump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seek.rfdt");
        let samples = ramp(500);
        write_trace(&path, 8e6, 0.0, &samples).unwrap();

        // Read a prefix, then seek backwards and forwards; chunks must
        // restart exactly at the requested sample.
        let mut r = ChunkedTraceReader::open(&path).unwrap();
        let first = r.next_chunk(100).unwrap().unwrap();
        r.seek_to_sample(40).unwrap();
        assert_eq!(r.remaining, 460);
        let resumed = r.next_chunk(60).unwrap().unwrap();
        assert_eq!(resumed[..], first[40..100]);

        r.seek_to_sample(499).unwrap();
        assert_eq!(r.next_chunk(100).unwrap().unwrap().len(), 1);
        assert_eq!(r.next_chunk(100).unwrap(), None);

        // Exactly the end is a valid (empty) position; past it is an error,
        // not a silent clamp.
        r.seek_to_sample(500).unwrap();
        assert_eq!(r.remaining, 0);
        assert_eq!(r.next_chunk(100).unwrap(), None);
        let err = r.seek_to_sample(10_000).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_rejects_truncation_up_front() {
        let dir = std::env::temp_dir().join("rfdump-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.rfdt");
        let samples = ramp(100);
        let header = TraceHeader {
            sample_rate: 8e6,
            center_hz: 0.0,
            n_samples: 100,
            scale: 1.0,
        };
        let bytes = encode_trace(&header, &samples);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(ChunkedTraceReader::open(&path).is_err());
        std::fs::write(&path, &bytes[..20]).unwrap();
        assert!(ChunkedTraceReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_valid() {
        let header = TraceHeader {
            sample_rate: 8e6,
            center_hz: 0.0,
            n_samples: 0,
            scale: 1.0,
        };
        let bytes = encode_trace(&header, &[]);
        let (h, s) = decode_trace(&bytes).unwrap();
        assert_eq!(h.n_samples, 0);
        assert!(s.is_empty());
    }
}
