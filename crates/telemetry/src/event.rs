//! Typed, timestamped pipeline events in a bounded ring.
//!
//! Where [`crate::span::SpanTracer`] records *how long* work took, the
//! [`EventLog`] records *that something noteworthy happened*: an analyzer
//! was quarantined, the governor shed load, a slow net subscriber was
//! evicted. Events are typed ([`EventKind`]) so dashboards can filter and
//! count them without parsing free text, and the ring is bounded — a
//! week-long run keeps the tail of its incident history in constant memory.

use crate::json::JsonValue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What kind of incident an [`Event`] records.
///
/// One variant per emitting mechanism in the pipeline; the string form
/// (via [`EventKind::as_str`]) is the stable wire name used in stats-json
/// and the scrape endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An analyzer hit its panic quarantine threshold and was disabled.
    Quarantine,
    /// A pool worker died and was respawned by the supervisor.
    WorkerRespawn,
    /// The load governor escalated to a higher shedding level.
    GovernorShed,
    /// The load governor recovered to a lower shedding level.
    GovernorRestore,
    /// A slow or disconnected record subscriber was evicted from fan-out.
    SlowConsumerEvicted,
    /// A throttle advisory was sent to a sample producer.
    ThrottleAdvisory,
    /// A net client entered reconnect backoff.
    NetBackoff,
    /// A net client resumed after backoff.
    NetResume,
    /// The journal degraded to lossy / disabled operation.
    JournalDegrade,
    /// A recovery checkpoint was written.
    Checkpoint,
    /// A fleet source completed its handshake and joined the merged stream.
    SourceJoined,
    /// A fleet source's stream ended (analyzed and published).
    SourceLeft,
    /// A fleet source crossed the flapping threshold (disconnecting faster
    /// than it makes progress).
    SourceFlapping,
    /// A fleet source was quarantined (its stream finalized, reconnects
    /// refused).
    SourceQuarantined,
    /// A fleet source was evicted (resume grace expired or a quarantined
    /// id kept reconnecting).
    SourceEvicted,
    /// A fleet source reattached after a disconnect (session resume) or
    /// recovered from the flapping state.
    SourceResumed,
    /// Windowed p99 sample→record latency exceeded the configured budget.
    BudgetViolated,
    /// Fleet overload control shed load from a deadline-violating source
    /// (throttle advisory or drop-oldest).
    SourceShed,
    /// A new fleet `SourceHello` was refused while the server was over its
    /// latency budget.
    AdmissionRefused,
}

impl EventKind {
    /// Stable snake_case wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Quarantine => "quarantine",
            EventKind::WorkerRespawn => "worker_respawn",
            EventKind::GovernorShed => "governor_shed",
            EventKind::GovernorRestore => "governor_restore",
            EventKind::SlowConsumerEvicted => "slow_consumer_evicted",
            EventKind::ThrottleAdvisory => "throttle_advisory",
            EventKind::NetBackoff => "net_backoff",
            EventKind::NetResume => "net_resume",
            EventKind::JournalDegrade => "journal_degrade",
            EventKind::Checkpoint => "checkpoint",
            EventKind::SourceJoined => "source_joined",
            EventKind::SourceLeft => "source_left",
            EventKind::SourceFlapping => "source_flapping",
            EventKind::SourceQuarantined => "source_quarantined",
            EventKind::SourceEvicted => "source_evicted",
            EventKind::SourceResumed => "source_resumed",
            EventKind::BudgetViolated => "budget_violated",
            EventKind::SourceShed => "source_shed",
            EventKind::AdmissionRefused => "admission_refused",
        }
    }
}

/// One recorded incident.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (counts all events ever emitted, including
    /// ones since evicted from the ring).
    pub seq: u64,
    /// Microseconds since the log's epoch (its creation).
    pub ts_us: f64,
    /// Incident type.
    pub kind: EventKind,
    /// Human-readable detail (`analyze:zigbee after 3 panics`).
    pub detail: String,
}

impl Event {
    /// JSON object for the stats schema / scrape endpoint.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("seq", JsonValue::num(self.seq as f64)),
            ("ts_us", JsonValue::num(self.ts_us)),
            ("kind", JsonValue::str(self.kind.as_str())),
            ("detail", JsonValue::str(self.detail.clone())),
        ])
    }
}

/// A bounded ring of typed events; oldest events are dropped when full.
#[derive(Debug)]
pub struct EventLog {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    epoch: Instant,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl EventLog {
    /// Creates a log keeping up to `capacity` most-recent events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event.
    pub fn emit(&self, kind: EventKind, detail: impl Into<String>) {
        let ev = Event {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            kind,
            detail: detail.into(),
        };
        let mut q = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    }

    /// Total events ever emitted (including evicted ones).
    pub fn emitted(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// JSON: `{ "emitted": n, "dropped": d, "ring": [event, ...] }`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("emitted", JsonValue::num(self.emitted() as f64)),
            ("dropped", JsonValue::num(self.dropped() as f64)),
            (
                "ring",
                JsonValue::Arr(self.events().iter().map(Event::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_typed_and_ordered() {
        let log = EventLog::new(8);
        log.emit(EventKind::GovernorShed, "level 0 -> 1");
        log.emit(EventKind::GovernorRestore, "level 1 -> 0");
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::GovernorShed);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert!(evs[1].ts_us >= evs[0].ts_us);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let log = EventLog::new(4);
        for i in 0..10 {
            log.emit(EventKind::Checkpoint, format!("cp{i}"));
        }
        let evs = log.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].detail, "cp6");
        assert_eq!(evs[2].detail, "cp8");
        assert_eq!(evs[3].detail, "cp9");
        assert_eq!(log.dropped(), 6);
        assert_eq!(log.emitted(), 10);
    }

    #[test]
    fn json_round_trips() {
        let log = EventLog::new(8);
        log.emit(EventKind::Quarantine, "analyze:zigbee after 3 panics");
        let doc = crate::json::parse(&log.to_json().to_json()).unwrap();
        assert_eq!(doc.get("emitted").unwrap().as_f64(), Some(1.0));
        let ring = doc.get("ring").unwrap().as_arr().unwrap();
        assert_eq!(ring[0].get("kind").unwrap().as_str(), Some("quarantine"));
    }
}
