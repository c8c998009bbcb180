//! Record fan-out: one decoded record stream, N live subscribers.
//!
//! Every subscriber gets its own *bounded* queue, drained by that
//! subscriber's connection thread. Publishing never blocks on a subscriber:
//! a queue that is full when a record arrives means the subscriber cannot
//! keep up with the ether, and the hub **evicts** it (drops the queue, which
//! the connection thread observes as a disconnect) rather than letting one
//! slow reader stall the stream for everyone — the same policy a production
//! pub/sub fan-out applies to lagging consumers.

use crate::frame::RecordMsg;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// What flows to subscribers, in publish order.
///
/// An anonymous producer session is published in the untagged variants; a
/// tagged source in the `Source*` variants, so each message carries the
/// source it belongs to and subscribers can filter per source. The untagged
/// `Bye` is the *global* end-of-stream marker — it passes every filter, so
/// even a filtered subscriber observes server shutdown.
#[derive(Debug, Clone, PartialEq)]
pub enum HubMsg {
    /// Stream metadata for the session now starting.
    Meta(crate::frame::StreamMeta),
    /// One decoded record.
    Record(RecordMsg),
    /// End-of-session statistics document.
    Stats(String),
    /// The server is shutting the stream down; no further messages follow.
    Bye,
    /// A fleet source joined the merged stream.
    SourceMeta {
        /// The stable source id.
        source: Arc<str>,
        /// That source's stream metadata.
        meta: crate::frame::StreamMeta,
    },
    /// One decoded record, tagged with the fleet source it came from.
    SourceRecord {
        /// The stable source id.
        source: Arc<str>,
        /// The record itself.
        record: RecordMsg,
    },
    /// One fleet source's stream ended; the merged stream continues.
    SourceBye {
        /// The stable source id.
        source: Arc<str>,
    },
}

impl HubMsg {
    /// The source this message is tagged with, if any.
    pub(crate) fn source(&self) -> Option<&str> {
        match self {
            HubMsg::SourceMeta { source, .. }
            | HubMsg::SourceRecord { source, .. }
            | HubMsg::SourceBye { source } => Some(source),
            _ => None,
        }
    }

    /// Whether a subscription filtered to `filter` should receive this
    /// message. `None` (unfiltered) receives everything; a source filter
    /// receives that source's messages plus the global `Bye`.
    fn passes(&self, filter: Option<&str>) -> bool {
        match filter {
            None => true,
            Some(want) => matches!(self, HubMsg::Bye) || self.source() == Some(want),
        }
    }
}

struct SubEntry {
    tx: SyncSender<HubMsg>,
    /// `Some(id)` restricts delivery to one source (plus the global Bye).
    filter: Option<Arc<str>>,
}

struct HubInner {
    subs: HashMap<u64, SubEntry>,
    next_id: u64,
    /// Bounded replay history of stream messages (Meta/Record/Stats; never
    /// Bye), so a reconnecting subscriber can resume without duplicates or
    /// gaps. `base` is the absolute stream position of `history[0]`.
    history: VecDeque<HubMsg>,
    base: u64,
}

/// The fan-out hub.
pub struct RecordHub {
    inner: Mutex<HubInner>,
    cap: usize,
    history_cap: usize,
    evicted: AtomicU64,
}

/// One subscription: an id (for unsubscribe) plus the receiving end of the
/// subscriber's bounded queue.
pub struct Subscription {
    /// Hub-assigned subscriber id.
    pub id: u64,
    /// The subscriber's private queue.
    pub rx: Receiver<HubMsg>,
}

impl RecordHub {
    /// A hub whose subscriber queues hold at most `cap` messages, keeping a
    /// default-sized replay history (see `RecordHub::with_history_cap`).
    pub fn new(cap: usize) -> Self {
        Self::with_history_cap(cap, 65_536)
    }

    /// A hub with an explicit bound on the replay history (stream messages
    /// kept for reconnecting subscribers; oldest dropped past the cap).
    pub(crate) fn with_history_cap(cap: usize, history_cap: usize) -> Self {
        Self {
            inner: Mutex::new(HubInner {
                subs: HashMap::new(),
                next_id: 0,
                history: VecDeque::new(),
                base: 0,
            }),
            cap: cap.max(1),
            history_cap,
            evicted: AtomicU64::new(0),
        }
    }

    /// Registers a new subscriber receiving live messages only.
    pub fn subscribe(&self) -> Subscription {
        self.subscribe_from(None).0
    }

    /// Registers a subscriber that receives only messages tagged with
    /// `source` (plus the global `Bye`), live messages only.
    pub(crate) fn subscribe_filtered(&self, source: &str) -> Subscription {
        self.subscribe_from_filtered(None, Some(source)).0
    }

    /// Registers a subscriber resuming from absolute stream position `pos`
    /// (the count of Meta/Record/Stats messages it has already seen), or
    /// live-only when `pos` is `None`.
    ///
    /// Returns the subscription, the replay backlog (`history[pos..]`), the
    /// absolute position of the first message the subscription will deliver
    /// (replay included), and how many messages were lost because the
    /// history had already dropped them. Registration and the replay
    /// snapshot happen under one lock, so the backlog plus the live queue
    /// is exactly the stream from that position with no gap and no
    /// duplicate.
    pub(crate) fn subscribe_from(&self, pos: Option<u64>) -> (Subscription, Vec<HubMsg>, u64, u64) {
        self.subscribe_from_filtered(pos, None)
    }

    /// [`subscribe_from`] with an optional source filter. Positions stay
    /// *global* (the filter does not renumber the stream): the replay is
    /// the matching subset of `history[pos..]`, and `start`/`lost` count
    /// stream messages of every source, so a resume cursor learned from an
    /// unfiltered subscription remains valid here.
    ///
    /// [`subscribe_from`]: RecordHub::subscribe_from
    pub(crate) fn subscribe_from_filtered(
        &self,
        pos: Option<u64>,
        filter: Option<&str>,
    ) -> (Subscription, Vec<HubMsg>, u64, u64) {
        let (tx, rx) = sync_channel(self.cap);
        let filter: Option<Arc<str>> = filter.map(Arc::from);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let end = inner.base + inner.history.len() as u64;
        let want = pos.unwrap_or(end).min(end);
        let lost = inner.base.saturating_sub(want);
        let start = want.max(inner.base);
        let replay: Vec<HubMsg> = inner
            .history
            .iter()
            .skip((start - inner.base) as usize)
            .filter(|m| m.passes(filter.as_deref()))
            .cloned()
            .collect();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.insert(id, SubEntry { tx, filter });
        (Subscription { id, rx }, replay, start, lost)
    }

    /// Removes a subscriber (normal disconnect; not counted as eviction).
    pub(crate) fn unsubscribe(&self, id: u64) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .subs
            .remove(&id);
    }

    /// Broadcasts `msg` to every live subscriber. A subscriber whose queue
    /// is full is evicted on the spot. Returns how many subscribers
    /// received the message.
    pub fn publish(&self, msg: HubMsg) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Stream messages enter the replay history; `Bye` is a connection
        // lifecycle event, not stream content, and is never replayed.
        if !matches!(msg, HubMsg::Bye) && self.history_cap > 0 {
            inner.history.push_back(msg.clone());
            while inner.history.len() > self.history_cap {
                inner.history.pop_front();
                inner.base += 1;
            }
        }
        let mut slow: Vec<u64> = Vec::new();
        let mut delivered = 0usize;
        for (&id, entry) in inner.subs.iter() {
            if !msg.passes(entry.filter.as_deref()) {
                continue;
            }
            match entry.tx.try_send(msg.clone()) {
                Ok(()) => delivered += 1,
                Err(TrySendError::Full(_)) => slow.push(id),
                // Receiver already gone: connection thread exited; prune.
                Err(TrySendError::Disconnected(_)) => slow.push(id),
            }
        }
        for id in slow {
            inner.subs.remove(&id);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        delivered
    }

    /// Subscribers evicted (or found disconnected) during publishes.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RecordHub {
        /// The absolute position the next stream message will occupy.
        fn stream_pos(&self) -> u64 {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.base + inner.history.len() as u64
        }

        /// Live subscriber count.
        fn subscriber_count(&self) -> usize {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .subs
                .len()
        }
    }

    fn rec(line: &str) -> HubMsg {
        HubMsg::Record(RecordMsg {
            start_us: 0.0,
            end_us: 1.0,
            line: line.into(),
        })
    }

    #[test]
    fn fan_out_preserves_order_per_subscriber() {
        let hub = RecordHub::new(16);
        let a = hub.subscribe();
        let b = hub.subscribe();
        for i in 0..5 {
            assert_eq!(hub.publish(rec(&format!("r{i}"))), 2);
        }
        hub.publish(HubMsg::Bye);
        for sub in [a, b] {
            let got: Vec<HubMsg> = sub.rx.try_iter().collect();
            assert_eq!(got.len(), 6);
            for (i, m) in got.iter().take(5).enumerate() {
                assert_eq!(m, &rec(&format!("r{i}")));
            }
            assert_eq!(got[5], HubMsg::Bye);
        }
    }

    #[test]
    fn slow_subscriber_is_evicted_not_waited_on() {
        let hub = RecordHub::new(2);
        let slow = hub.subscribe();
        let fast = hub.subscribe();
        // Fill the slow subscriber's queue without draining it.
        hub.publish(rec("a"));
        hub.publish(rec("b"));
        // Drain only the fast one.
        assert_eq!(fast.rx.try_iter().count(), 2);
        // Third publish finds `slow` full → evicted; `fast` still receives.
        assert_eq!(hub.publish(rec("c")), 1);
        assert_eq!(hub.subscriber_count(), 1);
        assert_eq!(hub.evicted(), 1);
        // The evicted subscriber still sees its backlog, then disconnect.
        assert_eq!(slow.rx.try_iter().count(), 2);
        assert!(slow.rx.recv().is_err(), "sender must be dropped");
    }

    #[test]
    fn subscribe_from_replays_exactly_the_missed_suffix() {
        let hub = RecordHub::new(16);
        for i in 0..5 {
            hub.publish(rec(&format!("r{i}")));
        }
        assert_eq!(hub.stream_pos(), 5);
        // A subscriber that saw 2 messages before disconnecting resumes at 2.
        let (sub, replay, start, lost) = hub.subscribe_from(Some(2));
        assert_eq!(start, 2);
        assert_eq!(lost, 0);
        assert_eq!(
            replay,
            vec![rec("r2"), rec("r3"), rec("r4")],
            "replay must be history[2..]"
        );
        // Live messages continue in the queue with no duplicate of the replay.
        hub.publish(rec("r5"));
        let live: Vec<HubMsg> = sub.rx.try_iter().collect();
        assert_eq!(live, vec![rec("r5")]);
    }

    #[test]
    fn subscribe_from_reports_loss_when_history_trimmed() {
        let hub = RecordHub::with_history_cap(16, 3);
        for i in 0..10 {
            hub.publish(rec(&format!("r{i}")));
        }
        // History holds only [r7, r8, r9]; resuming from 5 loses 2 messages.
        let (_sub, replay, start, lost) = hub.subscribe_from(Some(5));
        assert_eq!(start, 7);
        assert_eq!(lost, 2);
        assert_eq!(replay, vec![rec("r7"), rec("r8"), rec("r9")]);
        // A position past the end clamps to live-only.
        let (_sub2, replay2, _start2, lost2) = hub.subscribe_from(Some(999));
        assert_eq!(lost2, 0);
        assert!(replay2.is_empty());
    }

    #[test]
    fn bye_is_never_replayed() {
        let hub = RecordHub::new(8);
        hub.publish(rec("a"));
        hub.publish(HubMsg::Bye);
        let (_sub, replay, _start, _lost) = hub.subscribe_from(Some(0));
        assert_eq!(replay, vec![rec("a")]);
    }

    fn srec(source: &str, line: &str) -> HubMsg {
        HubMsg::SourceRecord {
            source: source.into(),
            record: RecordMsg {
                start_us: 0.0,
                end_us: 1.0,
                line: line.into(),
            },
        }
    }

    #[test]
    fn filtered_subscription_sees_only_its_source_plus_global_bye() {
        let hub = RecordHub::new(16);
        let all = hub.subscribe();
        let only_a = hub.subscribe_filtered("a");
        hub.publish(srec("a", "a0"));
        hub.publish(srec("b", "b0"));
        hub.publish(srec("a", "a1"));
        hub.publish(HubMsg::SourceBye { source: "a".into() });
        hub.publish(srec("b", "b1"));
        hub.publish(HubMsg::Bye);
        let got: Vec<HubMsg> = only_a.rx.try_iter().collect();
        assert_eq!(
            got,
            vec![
                srec("a", "a0"),
                srec("a", "a1"),
                HubMsg::SourceBye { source: "a".into() },
                HubMsg::Bye,
            ],
        );
        // The unfiltered subscriber saw everything.
        assert_eq!(all.rx.try_iter().count(), 6);
    }

    #[test]
    fn filtered_replay_keeps_global_positions() {
        let hub = RecordHub::new(16);
        hub.publish(srec("a", "a0")); // pos 0
        hub.publish(srec("b", "b0")); // pos 1
        hub.publish(srec("a", "a1")); // pos 2
        hub.publish(srec("b", "b1")); // pos 3
        let (sub, replay, start, lost) = hub.subscribe_from_filtered(Some(1), Some("a"));
        // Positions are global: the cursor starts at 1 even though only one
        // of history[1..] matches the filter.
        assert_eq!(start, 1);
        assert_eq!(lost, 0);
        assert_eq!(replay, vec![srec("a", "a1")]);
        hub.publish(srec("b", "b2"));
        hub.publish(srec("a", "a2"));
        let live: Vec<HubMsg> = sub.rx.try_iter().collect();
        assert_eq!(live, vec![srec("a", "a2")]);
    }

    #[test]
    fn filtered_subscriber_not_evicted_by_other_sources_flood() {
        // A filtered subscriber with a tiny queue survives a flood of
        // non-matching traffic: filtering happens before the queue.
        let hub = RecordHub::new(2);
        let only_a = hub.subscribe_filtered("a");
        for i in 0..50 {
            hub.publish(srec("b", &format!("b{i}")));
        }
        assert_eq!(hub.evicted(), 0);
        assert_eq!(hub.subscriber_count(), 1);
        hub.publish(srec("a", "a0"));
        let got: Vec<HubMsg> = only_a.rx.try_iter().collect();
        assert_eq!(got, vec![srec("a", "a0")]);
    }

    #[test]
    fn unsubscribe_is_not_an_eviction() {
        let hub = RecordHub::new(4);
        let s = hub.subscribe();
        hub.unsubscribe(s.id);
        hub.publish(rec("x"));
        assert_eq!(hub.evicted(), 0);
        assert_eq!(hub.subscriber_count(), 0);
    }
}
