//! Stage-latency conventions for the live metrics plane.
//!
//! Every chunk leaving the source is stamped with an ingest [`Instant`]
//! (telemetry runs only — the stamp is an `Option` side channel that never
//! reaches serialized records). Each pipeline stage records *time since
//! ingest* into its own histogram when work for that stamp completes, so
//! the per-stage histograms form a monotone waterfall:
//!
//! `latency.detect_us ≤ latency.dispatch_us ≤ latency.analyze_us ≤
//! latency.merge_us ≤ latency.journal_us ≤ latency.e2e_us`
//!
//! The one exception is `latency.net_fanout_us`, which is a plain duration
//! (the cost of one publish call) because records crossing the network
//! boundary no longer carry stamps.
//!
//! All of these histograms are *cumulative*, which is the right shape for
//! scrape endpoints but useless for a control loop: bounded-latency mode
//! (`--latency-budget`) needs the p99 of the last window, not of the whole
//! run. [`HistogramWindow`] (re-exported here) turns any cumulative
//! histogram into a cheap streaming quantile window by diffing bucket
//! counts between snapshots; the `crate::governor::LoadGovernor` drives
//! its shed ladder from exactly that windowed p99.

pub use rfd_telemetry::{HistogramWindow, WindowSnapshot};

use rfd_telemetry::{Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Smallest stage-latency bucket, µs.
pub(crate) const STAGE_MIN_US: f64 = 1.0;
/// Largest stage-latency bucket, µs (10 s — far past any healthy stage).
pub(crate) const STAGE_MAX_US: f64 = 1e7;
/// Bucket count for stage-latency histograms.
pub(crate) const STAGE_BUCKETS: usize = 28;

/// Ingest-to-detect stage histogram name.
pub(crate) const DETECT: &str = "latency.detect_us";
/// Ingest-to-dispatch stage histogram name.
pub(crate) const DISPATCH: &str = "latency.dispatch_us";
/// Ingest-to-analyze stage histogram name.
pub(crate) const ANALYZE: &str = "latency.analyze_us";
/// Ingest-to-reorder/merge stage histogram name (pooled path only).
pub(crate) const MERGE: &str = "latency.merge_us";
/// Ingest-to-journal-append stage histogram name (durability runs only).
pub(crate) const JOURNAL: &str = "latency.journal_us";
/// End-to-end sample-to-record histogram name.
pub(crate) const E2E: &str = "latency.e2e_us";

/// Fetches (creating on first use) a stage-latency histogram with the
/// standard exponential bucket layout.
pub(crate) fn stage_histogram(reg: &Registry, name: &str) -> Arc<Histogram> {
    reg.histogram(name, || {
        Histogram::exponential(STAGE_MIN_US, STAGE_MAX_US, STAGE_BUCKETS)
    })
}

/// Records time since `ingest` (µs) into `h`; no-op without a stamp.
pub(crate) fn record_since(h: &Histogram, ingest: Option<Instant>) {
    if let Some(t0) = ingest {
        h.record(t0.elapsed().as_secs_f64() * 1e6);
    }
}
