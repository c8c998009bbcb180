//! The bounded ingest queue between a producer connection and the analysis
//! stage, with an explicit, configurable overflow policy.
//!
//! Real-time ingest must answer one question decisively: *what happens when
//! samples arrive faster than they are consumed?* This queue makes the two
//! defensible answers first-class:
//!
//! * [`OverflowPolicy::Block`] — the pushing thread waits for room. Over a
//!   TCP connection this propagates as transport backpressure (the socket
//!   buffer fills, the producer's writes stall), so nothing is ever lost;
//!   the stream simply falls behind real time.
//! * [`OverflowPolicy::DropOldest`] — the oldest queued item is discarded
//!   to make room and a dropped counter ticks. The stream stays real-time
//!   at the cost of holes, the same trade a hardware ring buffer makes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What `push` does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the pusher until the consumer makes room (lossless).
    #[default]
    Block,
    /// Discard the oldest queued item to admit the new one (lossy).
    DropOldest,
}

impl OverflowPolicy {
    /// Parses the CLI spelling (`block` / `drop-oldest`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "block" => Some(OverflowPolicy::Block),
            "drop-oldest" => Some(OverflowPolicy::DropOldest),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::DropOldest => "drop-oldest",
        }
    }
}

/// What a `push` did, so the caller can react (e.g. send a Throttle frame
/// the first time the queue saturates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued without hitting the bound.
    Queued,
    /// The queue was full: the push blocked until room appeared.
    QueuedAfterBlock,
    /// The queue was full: the oldest item was dropped to make room.
    QueuedDroppingOldest,
}

/// Why a [`ChunkQueue::try_push`] returned the item instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryPushError<T> {
    /// The queue is at capacity under [`OverflowPolicy::Block`]; retry when
    /// the consumer makes room.
    Full(T),
    /// The queue is closed; the item can never be enqueued.
    Closed(T),
}

struct QueueState<T> {
    q: VecDeque<T>,
    closed: bool,
    /// Threads blocked in `push` waiting for room, and in `pop` waiting
    /// for an item. Counted under the mutex, so a notify is owed only when
    /// one is nonzero: a thread that is about to wait has not yet looked at
    /// the queue, and will see the change itself.
    pushers: usize,
    poppers: usize,
}

struct Shared<T> {
    state: Mutex<QueueState<T>>,
    room: Condvar,
    items: Condvar,
    cap: usize,
    policy: OverflowPolicy,
    dropped: AtomicU64,
}

impl<T> Shared<T> {
    /// Appends `item` and releases the lock, waking a popper only if one
    /// is waiting: an uncontended push costs no futex call.
    fn enqueue(&self, mut st: MutexGuard<'_, QueueState<T>>, item: T) {
        st.q.push_back(item);
        let wake = st.poppers > 0;
        drop(st);
        if wake {
            self.items.notify_one();
        }
    }

    /// Releases the lock after an item left the queue, waking a pusher
    /// only if one is waiting for room.
    fn made_room(&self, st: MutexGuard<'_, QueueState<T>>) {
        let wake = st.pushers > 0;
        drop(st);
        if wake {
            self.room.notify_one();
        }
    }
}

/// A bounded SPSC/MPSC queue with a chosen [`OverflowPolicy`].
pub struct ChunkQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for ChunkQueue<T> {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> ChunkQueue<T> {
    /// A queue holding at most `cap` items (≥ 1).
    pub fn new(cap: usize, policy: OverflowPolicy) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState {
                    q: VecDeque::with_capacity(cap.max(1)),
                    closed: false,
                    pushers: 0,
                    poppers: 0,
                }),
                room: Condvar::new(),
                items: Condvar::new(),
                cap: cap.max(1),
                policy,
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Enqueues `item` under the queue's overflow policy. Returns what
    /// happened, or `Err(item)` if the queue is closed.
    pub fn push(&self, item: T) -> Result<PushOutcome, T> {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(item);
        }
        let mut outcome = PushOutcome::Queued;
        while st.q.len() >= sh.cap {
            match sh.policy {
                OverflowPolicy::DropOldest => {
                    st.q.pop_front();
                    sh.dropped.fetch_add(1, Ordering::Relaxed);
                    outcome = PushOutcome::QueuedDroppingOldest;
                    break;
                }
                OverflowPolicy::Block => {
                    outcome = PushOutcome::QueuedAfterBlock;
                    st.pushers += 1;
                    st = sh.room.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.pushers -= 1;
                    if st.closed {
                        return Err(item);
                    }
                }
            }
        }
        sh.enqueue(st, item);
        Ok(outcome)
    }

    /// Nonblocking [`push`]: never waits, so a readiness loop can offer an
    /// item and keep servicing other connections when the queue is full.
    /// Under [`OverflowPolicy::Block`] a full queue returns
    /// [`TryPushError::Full`] (the loop's backpressure signal); under
    /// [`OverflowPolicy::DropOldest`] it behaves exactly like `push`.
    ///
    /// [`push`]: ChunkQueue::push
    pub(crate) fn try_push(&self, item: T) -> Result<PushOutcome, TryPushError<T>> {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(TryPushError::Closed(item));
        }
        let mut outcome = PushOutcome::Queued;
        if st.q.len() >= sh.cap {
            match sh.policy {
                OverflowPolicy::DropOldest => {
                    st.q.pop_front();
                    sh.dropped.fetch_add(1, Ordering::Relaxed);
                    outcome = PushOutcome::QueuedDroppingOldest;
                }
                OverflowPolicy::Block => return Err(TryPushError::Full(item)),
            }
        }
        sh.enqueue(st, item);
        Ok(outcome)
    }

    /// Discards the oldest queued item to make room, regardless of policy.
    /// This is the fleet shed ladder's drop-oldest rung: a queue built with
    /// [`OverflowPolicy::Block`] (lossless by default) can still be forced
    /// to trade its oldest chunk for latency when a source is being shed.
    /// Returns whether anything was dropped; the drop counts toward
    /// [`dropped`](Self::dropped).
    pub(crate) fn drop_oldest(&self) -> bool {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.q.pop_front().is_some() {
            sh.dropped.fetch_add(1, Ordering::Relaxed);
            sh.made_room(st);
            true
        } else {
            false
        }
    }

    /// Blocks for the next item; `None` once the queue is closed and
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(it) = st.q.pop_front() {
                sh.made_room(st);
                return Some(it);
            }
            if st.closed {
                return None;
            }
            st.poppers += 1;
            st = sh.items.wait(st).unwrap_or_else(|e| e.into_inner());
            st.poppers -= 1;
        }
    }

    /// Closes the queue: pending items remain poppable, further pushes
    /// fail, blocked pushers and poppers wake.
    pub(crate) fn close(&self) {
        let sh = &self.shared;
        sh.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        sh.items.notify_all();
        sh.room.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .q
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.shared.cap
    }

    /// Items discarded by the drop-oldest policy so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_and_close_semantics() {
        let q = ChunkQueue::new(4, OverflowPolicy::Block);
        assert_eq!(q.push(1), Ok(PushOutcome::Queued));
        assert_eq!(q.push(2), Ok(PushOutcome::Queued));
        q.close();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn block_policy_waits_for_room() {
        let q = ChunkQueue::new(1, OverflowPolicy::Block);
        q.push(10).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(20).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "pusher must be blocked");
        assert_eq!(q.pop(), Some(10));
        assert_eq!(t.join().unwrap(), PushOutcome::QueuedAfterBlock);
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn drop_oldest_policy_counts_losses() {
        let q = ChunkQueue::new(2, OverflowPolicy::DropOldest);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Ok(PushOutcome::QueuedDroppingOldest));
        assert_eq!(q.push(4), Ok(PushOutcome::QueuedDroppingOldest));
        assert_eq!(q.dropped(), 2);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn try_push_never_blocks() {
        let q = ChunkQueue::new(1, OverflowPolicy::Block);
        assert_eq!(q.try_push(1), Ok(PushOutcome::Queued));
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(2), Ok(PushOutcome::Queued));
        q.close();
        assert_eq!(q.try_push(3), Err(TryPushError::Closed(3)));

        let lossy = ChunkQueue::new(1, OverflowPolicy::DropOldest);
        lossy.try_push(1).unwrap();
        assert_eq!(lossy.try_push(2), Ok(PushOutcome::QueuedDroppingOldest));
        assert_eq!(lossy.dropped(), 1);
        assert_eq!(lossy.pop(), Some(2));
    }

    #[test]
    fn drop_oldest_helper_forces_room_under_block_policy() {
        let q = ChunkQueue::new(2, OverflowPolicy::Block);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert!(q.drop_oldest());
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.try_push(3), Ok(PushOutcome::Queued));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(!q.drop_oldest(), "empty queue has nothing to drop");
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn close_unblocks_a_blocked_pusher() {
        let q = ChunkQueue::new(1, OverflowPolicy::Block);
        q.push(1).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), Err(2));
    }

    /// A capacity-1 queue makes every item a full/empty handoff, so a
    /// skipped notify would leave one side waiting for good: 100 000 items
    /// must cross in order, once from a blocking pusher and once from a
    /// `try_push` retry loop, each against a blocking popper.
    #[test]
    fn no_wakeup_is_lost_at_capacity_one() {
        const N: u64 = 100_000;
        for blocking in [true, false] {
            let q = ChunkQueue::new(1, OverflowPolicy::Block);
            let tx = q.clone();
            let producer = std::thread::spawn(move || {
                for i in 0..N {
                    if blocking {
                        tx.push(i).unwrap();
                        continue;
                    }
                    let mut item = i;
                    loop {
                        match tx.try_push(item) {
                            Ok(_) => break,
                            Err(TryPushError::Full(back)) => {
                                item = back;
                                std::thread::yield_now();
                            }
                            Err(TryPushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
                tx.close();
            });
            let mut next = 0;
            while let Some(i) = q.pop() {
                assert_eq!(i, next, "out of order (blocking push: {blocking})");
                next += 1;
            }
            producer.join().unwrap();
            assert_eq!(next, N, "blocking push: {blocking}");
            assert_eq!(q.dropped(), 0);
        }
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [OverflowPolicy::Block, OverflowPolicy::DropOldest] {
            assert_eq!(OverflowPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(OverflowPolicy::parse("nope"), None);
    }
}
