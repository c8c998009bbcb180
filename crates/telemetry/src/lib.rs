//! # rfd-telemetry — unified observability for the rfdump pipeline
//!
//! The paper's central evaluation claim is an efficiency one — "CPU time /
//! real time" per stage — which makes observability a first-class subsystem,
//! not an afterthought: you cannot optimize hot paths you cannot see. This
//! crate provides the pieces every layer of the pipeline reports through:
//!
//! * [`Registry`] — a named collection of [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s. Handles are `Arc`-shared plain atomics: recording on
//!   the hot path is a single `fetch_add` (counters/gauges) or a bucket
//!   index + `fetch_add` (histograms) — no locks, no allocation per sample.
//! * [`span::SpanTracer`] — span timing into a bounded ring buffer, with
//!   chrome://tracing JSON export for timeline inspection.
//! * [`json`] — a dependency-free JSON writer *and* parser, so stats
//!   documents can be emitted and verified in offline builds.
//! * [`ladder`] — the shed ladder every degradation loop walks: a clamped
//!   rung and the streak hysteresis that steps it.
//!
//! A [`Registry`] snapshot serializes to a stable, versioned JSON schema
//! (see [`Snapshot::to_json`]); the `rfdump` CLI exposes it via
//! `--stats-json` and the bench harness writes `BENCH_*.json` summaries in
//! the same dialect.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod event;
pub mod json;
pub mod ladder;
pub mod span;

use json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, pending windows).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) and returns the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.0.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with lock-free recording.
///
/// Bucket bounds are chosen at creation ([`Histogram::linear`] /
/// [`Histogram::exponential`] / explicit). `record` finds the bucket by
/// binary search over the bounds and does one atomic increment — no
/// allocation, no locking — so it is safe on per-peak and per-packet paths.
/// Quantile estimates return the upper bound of the bucket containing the
/// requested rank, which makes them monotone in the quantile by
/// construction.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing. Values above
    /// the last bound land in an overflow bucket.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Sum of recorded values, as f64 bits updated by CAS.
    sum_bits: AtomicU64,
    /// Largest recorded value, as f64 bits updated by CAS. Only meaningful
    /// when `total > 0`.
    max_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram from explicit, strictly increasing upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub(crate) fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let n = bounds.len() + 1;
        Self {
            bounds,
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// `n` equal-width buckets covering `[lo, hi]`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && hi > lo);
        let w = (hi - lo) / n as f64;
        Self::with_bounds((1..=n).map(|i| lo + w * i as f64).collect())
    }

    /// `n` exponentially growing buckets from `lo` to `hi` (log-uniform).
    pub fn exponential(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1 && lo > 0.0 && hi > lo);
        let r = (hi / lo).powf(1.0 / n as f64);
        Self::with_bounds((1..=n).map(|i| lo * r.powi(i as i32)).collect())
    }

    /// Records one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // CAS-add into the f64 sum.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // CAS-max into the f64 max.
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest recorded observation (0 when empty).
    pub(crate) fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.max_bits.load(Ordering::Relaxed))
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): the upper bound of the bucket
    /// holding the rank. Returns 0 when empty. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: report the last finite bound (the
                    // histogram cannot resolve beyond its range).
                    *self.bounds.last().unwrap()
                };
            }
        }
        *self.bounds.last().unwrap()
    }

    /// Point-in-time copy of bounds, counts and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Windowed delta view over a cumulative [`Histogram`].
///
/// The pipeline's histograms are cumulative — right for dashboards, wrong
/// for control loops: a latency governor must react to the *recent* tail,
/// not the run-lifetime tail, or one slow startup window would pin p99
/// forever. A `HistogramWindow` remembers the bucket counts it last saw and
/// returns quantiles over the delta since then, turning any cumulative
/// histogram into a cheap streaming window without touching the record
/// path (snapshots read the same atomics recording writes).
///
/// Counts are diffed with `saturating_sub`, so a histogram that was reset
/// or replaced between snapshots yields an empty window rather than a
/// bogus giant one.
#[derive(Debug, Default)]
pub struct HistogramWindow {
    /// Bucket counts (finite + overflow) at the previous snapshot.
    prev_counts: Vec<u64>,
    /// Total count at the previous snapshot.
    prev_total: u64,
    /// Sum at the previous snapshot.
    prev_sum: f64,
}

/// Quantiles over one window of a [`HistogramWindow`] advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Observations recorded inside the window.
    pub count: u64,
    /// Mean over the window (0 when empty).
    pub mean: f64,
    /// Estimated median over the window (0 when empty).
    pub p50: f64,
    /// Estimated 99th percentile over the window (0 when empty).
    pub p99: f64,
}

impl HistogramWindow {
    /// An empty window baseline: the first [`advance`](Self::advance) covers
    /// everything the histogram has ever recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the observations recorded in `h` since the previous call
    /// and returns the window's quantiles. The baseline moves: each
    /// observation is counted in exactly one window.
    pub fn advance(&mut self, h: &Histogram) -> WindowSnapshot {
        let counts: Vec<u64> = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let total = h.count();
        let sum = h.sum();
        self.prev_counts.resize(counts.len(), 0);
        let delta: Vec<u64> = counts
            .iter()
            .zip(self.prev_counts.iter())
            .map(|(&now, &then)| now.saturating_sub(then))
            .collect();
        let n: u64 = delta.iter().sum();
        let win_sum = sum - self.prev_sum;
        let quantile = |q: f64| -> f64 {
            if n == 0 {
                return 0.0;
            }
            let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
            let mut cum = 0u64;
            for (i, &c) in delta.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return h.bounds[i.min(h.bounds.len() - 1)];
                }
            }
            *h.bounds.last().unwrap()
        };
        let snap = WindowSnapshot {
            count: n,
            mean: if n == 0 { 0.0 } else { win_sum / n as f64 },
            p50: quantile(0.50),
            p99: quantile(0.99),
        };
        self.prev_counts = counts;
        self.prev_total = total;
        self.prev_sum = sum;
        snap
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Counts per bucket (one extra overflow bucket at the end).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Largest observation (exact, unlike the bucketed quantiles).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// JSON object for the stats schema.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("count", JsonValue::num(self.count as f64)),
            ("sum", JsonValue::num(self.sum)),
            ("max", JsonValue::num(self.max)),
            ("p50", JsonValue::num(self.p50)),
            ("p95", JsonValue::num(self.p95)),
            ("p99", JsonValue::num(self.p99)),
            (
                "bounds",
                JsonValue::Arr(self.bounds.iter().map(|&b| JsonValue::num(b)).collect()),
            ),
            (
                "counts",
                JsonValue::Arr(
                    self.counts
                        .iter()
                        .map(|&c| JsonValue::num(c as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The central metrics registry.
///
/// Layers obtain named instrument handles once (at block construction time)
/// and record through plain atomics afterwards; the registry itself is only
/// locked on handle creation and snapshotting. A registry also owns a
/// [`span::SpanTracer`] so metrics and trace events travel together.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    tracer: span::SpanTracer,
    events: event::EventLog,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram `name`; `make` supplies the bucket
    /// layout on first use (later calls reuse the existing instrument).
    pub fn histogram(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// The registry's span tracer.
    pub fn tracer(&self) -> &span::SpanTracer {
        &self.tracer
    }

    /// The registry's typed event log.
    pub fn events(&self) -> &event::EventLog {
        &self.events
    }

    /// Records a typed event in the log *and* bumps the matching
    /// `events.<kind>` counter, so incident rates are scrapeable without
    /// walking the ring.
    pub fn emit_event(&self, kind: event::EventKind, detail: impl Into<String>) {
        self.counter(&format!("events.{}", kind.as_str())).inc();
        self.events.emit(kind, detail);
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// JSON object with `counters` / `gauges` / `histograms` sections.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::Obj(Vec::new());
        for (k, v) in &self.counters {
            counters.push(k, JsonValue::num(*v as f64));
        }
        let mut gauges = JsonValue::Obj(Vec::new());
        for (k, v) in &self.gauges {
            gauges.push(k, JsonValue::num(*v as f64));
        }
        let mut histograms = JsonValue::Obj(Vec::new());
        for (k, h) in &self.histograms {
            histograms.push(k, h.to_json());
        }
        JsonValue::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("peaks");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("peaks").get(), 5);
        let g = r.gauge("depth");
        g.set(3);
        assert_eq!(g.add(-1), 2);
        assert_eq!(r.gauge("depth").get(), 2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::linear(0.0, 1.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 100.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() / h.count() as f64 - 0.495).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((p50 - 0.5).abs() < 0.11, "p50 {p50}");
        assert!(p99 <= 1.0);
    }

    #[test]
    fn quantiles_are_monotone_for_any_distribution() {
        let h = Histogram::exponential(1.0, 1e6, 24);
        let mut x = 1u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((x % 2_000_000) as f64);
        }
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles {qs:?}");
    }

    #[test]
    fn max_tracks_the_largest_observation_exactly() {
        let h = Histogram::exponential(1.0, 1e6, 16);
        assert_eq!(h.max(), 0.0, "empty histogram reports 0");
        h.record(3.5);
        h.record(17_000.25);
        h.record(42.0);
        assert_eq!(h.max(), 17_000.25);
        let s = h.snapshot();
        assert_eq!(s.max, 17_000.25);
        let doc = json::parse(&s.to_json().to_json()).unwrap();
        assert_eq!(doc.get("max").unwrap().as_f64(), Some(17_000.25));
    }

    #[test]
    fn overflow_values_land_in_the_last_bucket() {
        let h = Histogram::linear(0.0, 10.0, 5);
        h.record(1e9);
        let s = h.snapshot();
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let r = Arc::new(Registry::new());
        let c1 = r.counter("x");
        let c2 = r.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(r.snapshot().counters["x"], 2);
    }

    #[test]
    fn snapshot_json_parses_and_round_trips() {
        let r = Registry::new();
        r.counter("a.b").add(7);
        r.gauge("q").set(-3);
        r.histogram("h", || Histogram::linear(0.0, 1.0, 4))
            .record(0.3);
        let text = r.snapshot().to_json().to_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("a.b").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("q").unwrap().as_f64(),
            Some(-3.0)
        );
        let h = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(h.get("counts").unwrap().as_arr().unwrap().len(), 5);
    }

    #[test]
    fn window_consumes_each_observation_exactly_once() {
        let h = Histogram::exponential(1.0, 1e6, 16);
        let mut w = HistogramWindow::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        let a = w.advance(&h);
        assert_eq!(a.count, 3);
        assert!((a.mean - 20.0).abs() < 1e-9);
        h.record(5000.0);
        let b = w.advance(&h);
        assert_eq!(b.count, 1, "second window sees only the new sample");
        assert!(b.p99 >= 5000.0, "p99 {} must cover 5000", b.p99);
        assert_eq!(w.prev_total, 4);
    }

    #[test]
    fn empty_window_is_all_zeros() {
        let h = Histogram::exponential(1.0, 1e6, 16);
        let mut w = HistogramWindow::new();
        // Empty histogram, empty window.
        let s = w.advance(&h);
        assert_eq!((s.count, s.mean, s.p50, s.p99), (0, 0.0, 0.0, 0.0));
        // Non-empty histogram but nothing new since the last advance.
        h.record(42.0);
        w.advance(&h);
        let s = w.advance(&h);
        assert_eq!((s.count, s.p50, s.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_window_puts_every_quantile_in_its_bucket() {
        let h = Histogram::exponential(1.0, 1e6, 16);
        let mut w = HistogramWindow::new();
        h.record(777.0);
        let s = w.advance(&h);
        assert_eq!(s.count, 1);
        assert!((s.mean - 777.0).abs() < 1e-9);
        assert_eq!(s.p50, s.p99, "one sample: all quantiles agree");
        assert!(s.p50 >= 777.0, "bucket upper bound covers the sample");
    }

    #[test]
    fn window_saturates_instead_of_underflowing() {
        // A window primed on one histogram then advanced over a fresh one
        // (fewer counts than the baseline) must saturate to empty, not wrap.
        let a = Histogram::linear(0.0, 10.0, 4);
        for _ in 0..100 {
            a.record(3.0);
        }
        let mut w = HistogramWindow::new();
        w.advance(&a);
        let b = Histogram::linear(0.0, 10.0, 4);
        b.record(9.0);
        let s = w.advance(&b);
        assert_eq!(s.count, 1, "only the bucket with *more* counts registers");
        assert!(s.p99 <= 10.0);
        // Overflow values land (and stay) in the last bucket's bound.
        let c = Histogram::linear(0.0, 10.0, 4);
        let mut w2 = HistogramWindow::new();
        c.record(1e18);
        let s = w2.advance(&c);
        assert_eq!(s.count, 1);
        assert_eq!(s.p99, 10.0, "overflow reports the last finite bound");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Arc::new(Registry::new());
        let c = r.counter("n");
        let h = r.histogram("lat", || Histogram::exponential(1.0, 1e6, 16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record((t * 10_000 + i) as f64 % 997.0 + 1.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        let s = h.snapshot();
        assert_eq!(s.counts.iter().sum::<u64>(), 40_000);
    }
}
