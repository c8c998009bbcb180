//! Lightweight span timing with a bounded ring-buffer event trace.
//!
//! A span measures one unit of pipeline work (a packet decode, a detector
//! pass). Completed spans land in a fixed-capacity ring buffer — when the
//! buffer is full the *oldest* events are dropped, so a long run keeps the
//! tail of its timeline and a bounded memory footprint. The trace exports to
//! the chrome://tracing / Perfetto JSON array format for visual inspection.

use crate::json::JsonValue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name (e.g. `analyze:802.11`).
    pub name: String,
    /// Category (chrome trace `cat` field; groups rows in the viewer).
    pub cat: &'static str,
    /// Start time in microseconds since the tracer's epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Thread the span ran on (stable hash of the thread id).
    pub tid: u64,
}

/// A bounded ring-buffer span recorder.
#[derive(Debug)]
pub struct SpanTracer {
    events: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    epoch: Instant,
    dropped: AtomicU64,
}

impl Default for SpanTracer {
    fn default() -> Self {
        Self::new(16_384)
    }
}

impl SpanTracer {
    /// Creates a tracer keeping up to `capacity` most-recent events.
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a completed span explicitly.
    pub fn record(&self, name: &str, cat: &'static str, start: Instant, dur: Duration) {
        let ts_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let ev = SpanEvent {
            name: name.to_string(),
            cat,
            ts_us,
            dur_us: dur.as_secs_f64() * 1e6,
            tid: thread_tid(),
        };
        let mut q = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Exports the buffered events as a chrome://tracing JSON array
    /// (load via `chrome://tracing` or https://ui.perfetto.dev).
    pub fn to_chrome_json(&self) -> String {
        let items: Vec<JsonValue> = self
            .events()
            .into_iter()
            .map(|e| {
                JsonValue::obj(vec![
                    ("name", JsonValue::str(e.name)),
                    ("cat", JsonValue::str(e.cat)),
                    ("ph", JsonValue::str("X")),
                    ("ts", JsonValue::num(e.ts_us)),
                    ("dur", JsonValue::num(e.dur_us)),
                    ("pid", JsonValue::num(1.0)),
                    ("tid", JsonValue::num(e.tid as f64)),
                ])
            })
            .collect();
        JsonValue::Arr(items).to_json()
    }
}

/// A small stable integer for the current thread (chrome trace `tid`).
fn thread_tid() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() % 100_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_is_bounded_and_keeps_the_tail() {
        let t = SpanTracer::new(4);
        for i in 0..10 {
            t.record(
                &format!("ev{i}"),
                "test",
                Instant::now(),
                Duration::from_micros(i),
            );
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].name, "ev6");
        assert_eq!(evs[3].name, "ev9");
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let t = SpanTracer::new(8);
        t.record("a", "cat", Instant::now(), Duration::from_micros(3));
        let doc = crate::json::parse(&t.to_chrome_json()).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("a"));
    }
}
