//! Crash-safe durability primitives for RFDump.
//!
//! This crate is deliberately std-only (no workspace dependencies) so both
//! `rfdump` (core) and `rfd-net` can use it without cycles. It provides three
//! building blocks:
//!
//! * [`atomic_write`] — temp-file + rename + fsync publication of a byte blob,
//!   so a crash can never leave a truncated or half-written artifact behind.
//! * A segmented, CRC32-framed append-only **journal**
//!   ([`JournalWriter`] / [`recover`]). Every entry is framed as
//!   `len | type | seq | crc` with a global monotonically increasing sequence
//!   number; segments rotate at a byte threshold. Recovery scans segments in
//!   order and replays the *longest valid prefix*: a torn tail, a truncated
//!   segment, or arbitrary trailing corruption simply shortens the prefix and
//!   is never replayed.
//! * Atomic **checkpoints** ([`write_checkpoint`] / [`read_checkpoint`]) — a
//!   single CRC-protected blob published with [`atomic_write`]. A corrupt or
//!   missing checkpoint degrades to journal-only recovery rather than erroring.
//!
//! The framing is self-describing enough that recovery needs no out-of-band
//! metadata: each segment starts with an 8-byte header (`RFDJ`, version,
//! reserved) and entries are accepted only while the frame parses, the CRC
//! matches, and the sequence number is exactly the one expected next. The
//! sequence check is what lets recovery bridge segment boundaries after a torn
//! tail: a resumed writer always opens a *fresh* segment, so the first entry of
//! the next segment carries the sequence number right after the recovered
//! prefix, and stale bytes in the torn segment can never be mistaken for a
//! continuation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Journal segment file magic.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"RFDJ";
/// Journal format version.
pub(crate) const JOURNAL_VERSION: u16 = 1;
/// Bytes of per-segment header: magic + version + reserved.
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Bytes of per-entry framing: u32 payload len, u16 type, u64 seq, u32 crc.
pub const ENTRY_HEADER_LEN: usize = 18;
/// Upper bound on a single entry payload; guards recovery against hostile or
/// garbage length fields claiming multi-gigabyte entries.
pub(crate) const MAX_ENTRY_LEN: usize = 1 << 20;
/// Default segment rotation threshold in bytes.
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Checkpoint file magic.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"RFDC";
/// Checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u16 = 1;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, bit-reflected), byte at a time. The same
// value as `rfd_dsp::coding::crc32` (the kernel-dispatched one RFDN frames
// use: slice-by-8, or carry-less-multiply folding where the CPU has
// PCLMULQDQ), kept separate on purpose: this crate has no dependencies, and
// a new crate -> crate edge would make cargo rewrite `bench/Cargo.lock`,
// which no PR may edit. Entries are ~63 bytes per record, below the folding
// kernel's 128-byte cut-over anyway, so this CRC is on no measured path.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC32 over several byte slices.
#[derive(Debug, Clone)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the running checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finalize and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

fn entry_crc(kind: u16, seq: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&kind.to_le_bytes());
    c.update(&seq.to_le_bytes());
    c.update(payload);
    c.finish()
}

// ---------------------------------------------------------------------------
// Atomic file publication
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` atomically: write to a temp file in the same
/// directory, fsync it, rename over the target, then fsync the directory so
/// the rename itself is durable. Readers either see the old content or the
/// complete new content — never a truncated file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "atomic_write: path has no file name",
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp_path, path) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    if let Some(d) = dir {
        // Directory fsync makes the rename durable; best-effort on platforms
        // where directories cannot be opened for sync.
        if let Ok(df) = File::open(d) {
            let _ = df.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal entries
// ---------------------------------------------------------------------------

/// A decoded journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Application-defined entry type tag.
    pub kind: u16,
    /// Global sequence number (0-based, contiguous across segments).
    pub seq: u64,
    /// Entry payload.
    pub payload: Vec<u8>,
}

/// Encode one entry frame (header + payload) into a byte vector.
pub fn encode_entry(kind: u16, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&entry_crc(kind, seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.rfdj")
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(segment_name(index))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".rfdj")?;
    if rest.len() != 6 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only segmented journal writer.
///
/// Entries are assigned contiguous sequence numbers starting from the value
/// the writer was opened with; segments rotate once the current segment
/// exceeds the configured byte threshold. The writer never rewrites existing
/// bytes — recovery integrity rests on append-only discipline.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    segment_index: u64,
    segment_bytes: u64,
    rotate_at: u64,
    next_seq: u64,
}

impl JournalWriter {
    /// Create a fresh journal in `dir`, deleting any previous segments and
    /// checkpoint files. The directory is created if missing.
    pub fn create(dir: &Path) -> io::Result<Self> {
        Self::create_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`JournalWriter::create`] with an explicit rotation threshold.
    pub(crate) fn create_with(dir: &Path, rotate_at: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if parse_segment_name(&name).is_some()
                || name.ends_with(".rfdc")
                || name.ends_with(".tmp")
            {
                let _ = fs::remove_file(entry.path());
            }
        }
        Self::open_segment(dir.to_path_buf(), 0, 0, rotate_at)
    }

    /// Resume appending after recovery: continues sequence numbers at
    /// `next_seq` and opens a *new* segment `next_segment` (one past the last
    /// segment recovery looked at), leaving any torn tail untouched.
    pub fn resume(dir: &Path, next_seq: u64, next_segment: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Self::open_segment(
            dir.to_path_buf(),
            next_segment,
            next_seq,
            DEFAULT_SEGMENT_BYTES,
        )
    }

    fn open_segment(dir: PathBuf, index: u64, next_seq: u64, rotate_at: u64) -> io::Result<Self> {
        let path = segment_path(&dir, index);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&segment_header())?;
        Ok(JournalWriter {
            dir,
            file,
            segment_index: index,
            segment_bytes: SEGMENT_HEADER_LEN as u64,
            rotate_at,
            next_seq,
        })
    }

    /// Sequence number the next appended entry will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one entry, returning its sequence number. The entry reaches the
    /// kernel (surviving process death) before this returns; call [`sync`]
    /// to force it to stable storage (surviving power loss).
    ///
    /// [`sync`]: JournalWriter::sync
    pub fn append(&mut self, kind: u16, payload: &[u8]) -> io::Result<u64> {
        if payload.len() > MAX_ENTRY_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "journal entry payload {} exceeds max {}",
                    payload.len(),
                    MAX_ENTRY_LEN
                ),
            ));
        }
        if self.segment_bytes >= self.rotate_at {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let frame = encode_entry(kind, seq, payload);
        self.file.write_all(&frame)?;
        self.segment_bytes += frame.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Deliberately append only a *prefix* of a valid entry frame (a torn
    /// tail), as left behind by a crash mid-write. Test/fault-injection hook:
    /// the truncated entry must be discarded by recovery.
    pub fn append_torn(&mut self, kind: u16, payload: &[u8]) -> io::Result<()> {
        let frame = encode_entry(kind, self.next_seq, payload);
        let keep = ENTRY_HEADER_LEN.min(frame.len().saturating_sub(1)).max(1);
        self.file.write_all(&frame[..keep])?;
        self.file.flush()?;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        let next = self.segment_index + 1;
        let path = segment_path(&self.dir, next);
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&segment_header())?;
        self.file = file;
        self.segment_index = next;
        self.segment_bytes = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Result of scanning a journal directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The longest valid entry prefix, in sequence order.
    pub entries: Vec<Entry>,
    /// Segment index a resumed [`JournalWriter`] should open next (one past
    /// the last segment examined).
    pub next_segment: u64,
    /// True if the scan stopped because of a torn/corrupt entry (as opposed
    /// to a clean end of the last segment).
    pub truncated: bool,
}

/// Scan `dir` and return the longest valid prefix of journal entries.
///
/// Never panics and never returns an entry whose CRC does not match: corrupt
/// frames, torn tails, impossible lengths, and sequence gaps all terminate
/// the scan. A missing directory yields an empty recovery.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    let mut segments: Vec<u64> = match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_name(&e.file_name().to_string_lossy()))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(e) => return Err(e),
    };
    segments.sort_unstable();

    let mut out = Recovered::default();
    let mut expected_seq = 0u64;
    for index in segments {
        // Segment indices themselves must be contiguous from 0; a gap means
        // earlier history is missing and nothing beyond it can be trusted.
        if index != out.next_segment {
            out.truncated = true;
            break;
        }
        let bytes = match fs::read(segment_path(dir, index)) {
            Ok(b) => b,
            Err(_) => {
                out.truncated = true;
                break;
            }
        };
        let (entries, clean) = scan_segment(&bytes, expected_seq);
        expected_seq += entries.len() as u64;
        out.entries.extend(entries);
        out.next_segment = index + 1;
        if !clean {
            // Torn or corrupt data inside this segment: a later segment can
            // only continue the prefix if a resumed writer created it, in
            // which case its first entry carries `expected_seq` — the scan
            // loop's seq check enforces that automatically.
            out.truncated = true;
        }
    }
    Ok(out)
}

/// Decode entries from one segment starting at `expected_seq`. Returns the
/// decoded prefix and whether the segment ended cleanly (true) or stopped at
/// garbage (false).
fn scan_segment(bytes: &[u8], mut expected_seq: u64) -> (Vec<Entry>, bool) {
    let mut entries = Vec::new();
    if bytes.len() < SEGMENT_HEADER_LEN
        || bytes[..4] != SEGMENT_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != JOURNAL_VERSION
    {
        return (entries, false);
    }
    let mut pos = SEGMENT_HEADER_LEN;
    loop {
        if pos == bytes.len() {
            return (entries, true);
        }
        if bytes.len() - pos < ENTRY_HEADER_LEN {
            return (entries, false);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let kind = u16::from_le_bytes(bytes[pos + 4..pos + 6].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[pos + 6..pos + 14].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 14..pos + 18].try_into().unwrap());
        if len > MAX_ENTRY_LEN || bytes.len() - pos - ENTRY_HEADER_LEN < len {
            return (entries, false);
        }
        let payload = &bytes[pos + ENTRY_HEADER_LEN..pos + ENTRY_HEADER_LEN + len];
        if seq != expected_seq || entry_crc(kind, seq, payload) != crc {
            return (entries, false);
        }
        entries.push(Entry {
            kind,
            seq,
            payload: payload.to_vec(),
        });
        expected_seq += 1;
        pos += ENTRY_HEADER_LEN + len;
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Atomically publish a checkpoint blob: `RFDC | version | len | crc | payload`.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut out = Vec::with_capacity(14 + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    atomic_write(path, &out)
}

/// Read a checkpoint written by [`write_checkpoint`]. Returns `Ok(None)` when
/// the file is missing *or* fails validation — recovery then proceeds from
/// the journal alone instead of erroring.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            if f.read_to_end(&mut bytes).is_err() {
                return Ok(None);
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    if bytes.len() < 14 || bytes[..4] != CHECKPOINT_MAGIC {
        return Ok(None);
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != CHECKPOINT_VERSION {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[10..14].try_into().unwrap());
    if bytes.len() - 14 != len {
        return Ok(None);
    }
    let payload = &bytes[14..];
    if crc32(payload) != crc {
        return Ok(None);
    }
    Ok(Some(payload.to_vec()))
}

// ---------------------------------------------------------------------------
// Little-endian field helpers for checkpoint payload encoding. Kept here so
// every crate that serializes durability state shares one idiom.
// ---------------------------------------------------------------------------

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u64` little-endian, advancing `pos`. `None` on underflow.
pub fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let b = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// Append a length-prefixed byte slice (u32 length).
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    out.extend_from_slice(v);
}

/// Read a length-prefixed byte slice, advancing `pos`. `None` on underflow.
pub fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let lb = bytes.get(*pos..*pos + 4)?;
    let len = u32::from_le_bytes(lb.try_into().ok()?) as usize;
    *pos += 4;
    let b = bytes.get(*pos..*pos + len)?;
    *pos += len;
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rfd-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC32("123456789") is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut w = JournalWriter::create(&dir).unwrap();
        for i in 0..100u64 {
            let seq = w.append((i % 3) as u16, &i.to_le_bytes()).unwrap();
            assert_eq!(seq, i);
        }
        w.sync().unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 100);
        assert!(!rec.truncated);
        for (i, e) in rec.entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, (i % 3) as u16);
            assert_eq!(e.payload, (i as u64).to_le_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_recover_across_boundaries() {
        let dir = tmpdir("rotate");
        let mut w = JournalWriter::create_with(&dir, 128).unwrap();
        for i in 0..50u64 {
            w.append(1, &[i as u8; 20]).unwrap();
        }
        assert!(w.segment_index > 0, "small threshold must rotate");
        drop(w);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 50);
        assert!(!rec.truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_resume_continues() {
        let dir = tmpdir("torn");
        let mut w = JournalWriter::create(&dir).unwrap();
        for i in 0..10u64 {
            w.append(2, &i.to_le_bytes()).unwrap();
        }
        w.append_torn(2, b"half-written entry").unwrap();
        let next_segment = w.segment_index + 1;
        drop(w);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 10);
        assert!(rec.truncated);
        assert_eq!(rec.next_segment, next_segment);

        // Resume in a fresh segment; the combined history recovers cleanly.
        let mut w =
            JournalWriter::resume(&dir, rec.entries.len() as u64, rec.next_segment).unwrap();
        for i in 10..15u64 {
            w.append(2, &i.to_le_bytes()).unwrap();
        }
        drop(w);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 15);
        assert_eq!(rec.entries[14].payload, 14u64.to_le_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_missing_dir_is_empty() {
        let rec = recover(Path::new("/nonexistent/rfd-journal-nowhere")).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.next_segment, 0);
    }

    #[test]
    fn checkpoint_round_trip_and_corruption_tolerance() {
        let dir = tmpdir("ckpt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.rfdc");
        assert!(read_checkpoint(&path).unwrap().is_none());
        write_checkpoint(&path, b"hello durable world").unwrap();
        assert_eq!(
            read_checkpoint(&path).unwrap().unwrap(),
            b"hello durable world"
        );

        // Flip a payload byte: the checkpoint must be rejected, not mis-read.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = tmpdir("aw");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("out.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn field_helpers_round_trip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xDEAD_BEEF_CAFE);
        put_bytes(&mut buf, b"payload");
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), Some(0xDEAD_BEEF_CAFE));
        assert_eq!(get_bytes(&buf, &mut pos), Some(&b"payload"[..]));
        assert_eq!(get_u64(&buf, &mut pos), None);
    }
}
