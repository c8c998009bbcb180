//! # rfdump — an architecture for monitoring the wireless ether
//!
//! A Rust reproduction of *RFDump* (Lakshminarayanan, Sapra, Seshan,
//! Steenkiste — CoNEXT 2009). Unlike tcpdump, which reads a protocol tag out
//! of each header, a wireless monitor sees only raw signal; running every
//! protocol demodulator over every sample (the *naïve* architecture) costs
//! many times real time. RFDump interposes a cheap **detection stage**:
//!
//! 1. a **protocol-agnostic** pass — the [`peak`] detector with integrated
//!    energy filtering turns the raw stream into compact per-peak metadata
//!    (start, end, power) plus the peak's samples;
//! 2. **protocol-specific fast detectors** ([`detect`]) — timing grammars
//!    (802.11 SIFS/DIFS, Bluetooth 625 µs slots, microwave AC periodicity,
//!    ZigBee ACK turnaround), phase signatures (Barker-chipped DBPSK, GFSK's
//!    zero second phase derivative, O-QPSK/MSK slopes) and FFT channel
//!    occupancy — each mapping peaks to `(protocol, confidence)` votes;
//! 3. a **dispatcher** ([`dispatch`]) that forwards only promising peaks to
//!    the expensive per-protocol **analyzers** ([`analyze`]) built on the
//!    full `rfd-phy` demodulators.
//!
//! [`arch`] assembles three comparable architectures on the `rfd-flowgraph`
//! runtime — naïve, naïve+energy-filter, and RFDump (timing / phase / both,
//! with or without demodulation) — and [`eval`] scores any of them against
//! `rfd-ether` ground truth (packet miss rate, false-positive sample rate,
//! CPU time / real time), reproducing the paper's §5 methodology.
//!
//! Every stage reports through the `rfd-telemetry` registry (vote counters,
//! confidence histograms, queue depths, decode-latency spans); [`stats`]
//! folds a whole run into one versioned JSON document for `--stats-json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod analyze;
pub mod arch;
pub mod chunk;
pub mod detect;
pub mod dispatch;
pub mod durability;
pub mod eval;
pub mod fleet;
pub mod governor;
pub mod latency;
pub mod live;
pub mod peak;
pub mod protocols;
pub mod records;
pub mod stats;

pub use chunk::{Peak, PeakBlock, SampleChunk};
pub use peak::{PeakDetector, PeakDetectorConfig};

/// Default chunk size in samples (25 µs at 8 Msps, §4.2 of the paper).
pub const CHUNK_SAMPLES: usize = 200;
/// Default energy-averaging window (2.5 µs at 8 Msps, §4.3).
pub(crate) const AVG_WINDOW: usize = 20;
/// Energy threshold above the noise floor for peak detection, dB (§4.3).
pub(crate) const PEAK_THRESHOLD_DB: f32 = 4.0;
