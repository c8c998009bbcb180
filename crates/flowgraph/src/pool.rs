//! Work-stealing task pool with a deterministic merge.
//!
//! The RFDump paper (§2.2) points out that its dataflow decomposition has
//! "inherent parallelism that can be exploited using multi-threading":
//! once the shared detection stage has classified a block, the expensive
//! per-protocol analyzers are independent across blocks. This module is
//! that parallelism, packaged so the *observable output stays byte-
//! identical* at any worker count:
//!
//! * [`StealDeque`] — an in-tree work-stealing deque. The owner pushes and
//!   pops at the front (FIFO for cache-friendly, roughly arrival-ordered
//!   execution); idle thieves steal the back half in one lock acquisition.
//! * [`bounded`] — a bounded MPMC channel. Senders block while the queue
//!   is full, giving the trace reader backpressure so it can never outrun
//!   demodulation; receivers drain in global FIFO order (which implies
//!   per-producer FIFO).
//! * [`Reorderer`] — the deterministic merge: results tagged with their
//!   submission sequence number come out strictly in submission order, no
//!   matter which worker finished first.
//! * [`TaskPool`] — N workers, one deque each, fed in batches from the
//!   bounded injector channel. Each completed task's result is published
//!   with its sequence number; the consumer re-sequences through a
//!   [`Reorderer`], so a pool with any worker count is observationally a
//!   FIFO `map()`. With zero workers no thread is spawned and each task
//!   runs on the submitting thread — the same stage, run inline.
//!
//! Everything is built on `std` (`Mutex`/`Condvar`/atomics) — the
//! workspace carries no external concurrency dependencies — and the file
//! stays inside the crate-wide `#![forbid(unsafe_code)]`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rfd_telemetry::{Gauge, Registry};

// ---------------------------------------------------------------------------
// Work-stealing deque
// ---------------------------------------------------------------------------

/// A work-stealing deque: the owner works the front, thieves take the back.
///
/// The implementation is a mutex-protected `VecDeque` rather than a lock-free
/// Chase–Lev deque: the workspace forbids `unsafe`, and the tasks moved here
/// (whole-peak demodulations, tens of microseconds to milliseconds each)
/// amortize a short uncontended lock to noise. What matters is the *policy*:
/// thieves take half the queue in one acquisition, so load balancing cost is
/// logarithmic in imbalance, not linear.
#[derive(Debug)]
pub struct StealDeque<T> {
    q: Mutex<VecDeque<T>>,
    /// Live queue-depth gauge (optional).
    gauge: Option<Arc<Gauge>>,
}

impl<T> Default for StealDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StealDeque<T> {
    /// An empty deque.
    pub fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            gauge: None,
        }
    }

    /// An empty deque whose depth is mirrored into `gauge`.
    pub fn with_gauge(gauge: Arc<Gauge>) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            gauge: Some(gauge),
        }
    }

    fn track(&self, delta: i64) {
        if let Some(g) = &self.gauge {
            g.add(delta);
        }
    }

    /// Pushes one item at the owner's end.
    pub fn push(&self, item: T) {
        self.lock().push_back(item);
        self.track(1);
    }

    /// Pushes a batch at the owner's end, preserving order.
    pub fn push_batch(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let n = items.len() as i64;
        let mut q = self.lock();
        q.extend(items);
        drop(q);
        self.track(n);
    }

    /// Owner pop: the oldest item.
    pub fn pop(&self) -> Option<T> {
        let it = self.lock().pop_front();
        if it.is_some() {
            self.track(-1);
        }
        it
    }

    /// Thief steal: up to half the queue (at least one item when nonempty),
    /// taken from the *newest* end so the owner keeps the items it is about
    /// to reach anyway. Returned oldest-first.
    pub fn steal_half(&self) -> Vec<T> {
        let mut q = self.lock();
        let n = q.len();
        if n == 0 {
            return Vec::new();
        }
        let take = (n / 2).max(1);
        let stolen: Vec<T> = q.split_off(n - take).into_iter().collect();
        drop(q);
        self.track(-(stolen.len() as i64));
        stolen
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the deque is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Bounded MPMC channel
// ---------------------------------------------------------------------------

struct ChannelState<T> {
    q: VecDeque<T>,
    /// Live senders; 0 means the channel is closed for writing.
    senders: usize,
    /// Live receivers; 0 means sends can never be observed again.
    receivers: usize,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    cap: usize,
    not_full: Condvar,
    not_empty: Condvar,
    /// Live injector-depth gauge (optional).
    gauge: Mutex<Option<Arc<Gauge>>>,
}

impl<T> Channel<T> {
    fn track(&self, delta: i64) {
        if let Some(g) = self
            .gauge
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            g.add(delta);
        }
    }
}

/// Sending half of a [`bounded`] channel. Cloneable; the channel closes when
/// the last sender drops.
pub struct Sender<T> {
    ch: Arc<Channel<T>>,
}

/// Receiving half of a [`bounded`] channel. Cloneable (MPMC).
pub struct Receiver<T> {
    ch: Arc<Channel<T>>,
}

/// Error returned by [`Sender::send`] when every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Outcome of [`Receiver::recv_timeout`].
#[derive(Debug)]
pub enum RecvTimeout<T> {
    /// An item arrived.
    Item(T),
    /// The wait timed out; the channel may still produce items.
    Timeout,
    /// Every sender is gone and the queue is drained.
    Closed,
}

/// Creates a bounded MPMC channel with capacity `cap` (≥ 1).
///
/// `send` blocks while the queue holds `cap` items — this is the
/// backpressure that keeps a fast producer (the trace reader) from
/// buffering unbounded work ahead of slow consumers (the demodulation
/// workers). Items leave in global FIFO order, so each producer observes
/// its own items delivered in the order it sent them.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "bounded channel needs capacity >= 1");
    let ch = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            q: VecDeque::with_capacity(cap),
            senders: 1,
            receivers: 1,
        }),
        cap,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        gauge: Mutex::new(None),
    });
    (Sender { ch: ch.clone() }, Receiver { ch })
}

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `item`. Fails only if all
    /// receivers are gone (returning the item).
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        self.send_by(item, None)
    }

    /// Like [`Sender::send`], but also fails (returning the item) when the
    /// queue is still full after `timeout`.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<(), SendError<T>> {
        self.send_by(item, Some(Instant::now() + timeout))
    }

    fn send_by(&self, item: T, deadline: Option<Instant>) -> Result<(), SendError<T>> {
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.receivers == 0 {
                return Err(SendError(item));
            }
            if st.q.len() < self.ch.cap {
                st.q.push_back(item);
                drop(st);
                self.ch.track(1);
                self.ch.not_empty.notify_one();
                return Ok(());
            }
            st = match deadline {
                None => self.ch.not_full.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(SendError(item));
                    }
                    let wait = self.ch.not_full.wait_timeout(st, deadline - now);
                    wait.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    /// Mirrors the queue depth into `gauge` from now on.
    pub fn set_gauge(&self, gauge: Arc<Gauge>) {
        *self.ch.gauge.lock().unwrap_or_else(|e| e.into_inner()) = Some(gauge);
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.ch
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .senders += 1;
        Self {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            // Wake receivers so they can observe the close.
            self.ch.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next item; `None` once the channel is closed and
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(it) = st.q.pop_front() {
                drop(st);
                self.ch.track(-1);
                self.ch.not_full.notify_one();
                return Some(it);
            }
            if st.senders == 0 {
                return None;
            }
            st = self
                .ch
                .not_empty
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`Receiver::recv`] but gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(it) = st.q.pop_front() {
                drop(st);
                self.ch.track(-1);
                self.ch.not_full.notify_one();
                return RecvTimeout::Item(it);
            }
            if st.senders == 0 {
                return RecvTimeout::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvTimeout::Timeout;
            }
            let (guard, _) = self
                .ch
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Non-blocking batch receive of up to `max` items.
    pub fn try_recv_batch(&self, max: usize) -> Vec<T> {
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        let n = st.q.len().min(max);
        let out: Vec<T> = st.q.drain(..n).collect();
        drop(st);
        if !out.is_empty() {
            self.ch.track(-(out.len() as i64));
            self.ch.not_full.notify_all();
        }
        out
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.ch
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .receivers += 1;
        Self {
            ch: self.ch.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.ch.state.lock().unwrap_or_else(|e| e.into_inner());
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            // Wake blocked senders so they can fail fast.
            self.ch.not_full.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

/// Re-sequences `(seq, value)` pairs into strict `seq` order.
///
/// This is the stage that makes the pool deterministic: whatever
/// interleaving the workers produce, values leave the reorderer exactly in
/// submission order, so downstream observers cannot tell how many workers
/// ran (or that any ran at all).
#[derive(Debug)]
pub struct Reorderer<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
    /// Sequence numbers declared lost (a supervised task panicked); skipped
    /// instead of waited for.
    released: BTreeSet<u64>,
    released_total: u64,
}

impl<T> Default for Reorderer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Reorderer<T> {
    /// An empty reorderer expecting sequence number 0 first.
    pub fn new() -> Self {
        Self {
            next: 0,
            pending: BTreeMap::new(),
            released: BTreeSet::new(),
            released_total: 0,
        }
    }

    /// Offers an out-of-order result.
    ///
    /// # Panics
    /// Panics if `seq` was already emitted, already pending, or was released
    /// as lost — any of these means the producer duplicated a sequence
    /// number.
    pub fn push(&mut self, seq: u64, value: T) {
        assert!(seq >= self.next, "sequence {seq} already emitted");
        assert!(
            !self.released.contains(&seq),
            "sequence {seq} was released as lost"
        );
        assert!(
            self.pending.insert(seq, value).is_none(),
            "sequence {seq} pushed twice"
        );
    }

    /// Declares `seq` permanently missing (its task died), so later results
    /// are not buffered forever behind a gap that can never fill. Idempotent;
    /// a release for an already-emitted sequence is ignored, and a release
    /// for a sequence whose value *did* arrive keeps the value.
    pub fn release(&mut self, seq: u64) {
        if seq < self.next || self.pending.contains_key(&seq) {
            return;
        }
        if self.released.insert(seq) {
            self.released_total += 1;
        }
    }

    /// Pops the next in-order value, if it has arrived. Released (lost)
    /// sequence numbers are skipped on the way.
    pub fn pop_ready(&mut self) -> Option<T> {
        loop {
            if self.released.remove(&self.next) {
                self.next += 1;
                continue;
            }
            let v = self.pending.remove(&self.next)?;
            self.next += 1;
            return Some(v);
        }
    }

    /// How many sequence numbers have been released as lost so far.
    pub fn released_count(&self) -> u64 {
        self.released_total
    }

    /// Results held waiting for an earlier sequence number.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The sequence number the next emitted value will carry. This doubles
    /// as the pool's durable watermark: every sequence number below it has
    /// been handed out of [`pop_ready`](Self::pop_ready) (or released as
    /// lost), so a checkpoint that records it can safely skip that prefix on
    /// resume.
    pub fn next_seq(&self) -> u64 {
        self.next
    }
}

// ---------------------------------------------------------------------------
// The task pool
// ---------------------------------------------------------------------------

/// Pool sizing and queueing knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker thread count. `0` spawns no threads: every submitted task
    /// runs on the submitting thread and publishes its result (or its
    /// panicked sequence number) exactly as a worker would.
    pub workers: usize,
    /// Injector channel capacity — the backpressure bound on submitted but
    /// unstarted tasks.
    pub queue_cap: usize,
    /// How many tasks a worker moves from the injector into its own deque
    /// per refill (amortizes channel locking; stealable by idle peers).
    pub refill_batch: usize,
    /// Supervised mode: worker threads wrap each task in `catch_unwind`, a
    /// panicking task's sequence number is recorded (see
    /// [`TaskPool::take_panicked`]) instead of killing the pool, dead
    /// workers are respawned within `max_restarts`, and [`TaskPool::finish`]
    /// rescues any stranded items inline. Off restores the original
    /// fail-fast behaviour (any panic aborts the pool).
    pub supervise: bool,
    /// Total worker respawns allowed across the pool's lifetime (supervised
    /// mode only).
    pub max_restarts: u32,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 64,
            refill_batch: 4,
            supervise: true,
            max_restarts: 2,
        }
    }
}

impl PoolConfig {
    /// A config with `workers` threads and default queueing.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Default::default()
        }
    }
}

/// What one worker did, for the telemetry satellite and the stats table.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Tasks this worker stole from peers' deques.
    pub stolen: u64,
    /// Time spent executing tasks.
    pub busy: Duration,
    /// Time spent idle, waiting for work.
    pub stall: Duration,
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// Tasks that panicked under supervision (their sequence numbers were
    /// reported through [`TaskPool::take_panicked`]).
    pub panics: u64,
    /// Worker threads respawned after dying.
    pub restarts: u64,
    /// Items executed inline on the caller's thread: every item of a
    /// zero-worker pool, otherwise those stranded in queues when workers
    /// were gone.
    pub rescued: u64,
    /// Sequence numbers still unclaimed by [`TaskPool::take_panicked`] when
    /// the pool finished — the consumer's final gap-release list.
    pub lost: Vec<u64>,
}

impl PoolStats {
    /// Total tasks executed.
    pub fn executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Total tasks that changed hands via stealing.
    pub fn stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Summed busy time across workers.
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Summed stall (idle-wait) time across workers.
    pub fn stall(&self) -> Duration {
        self.workers.iter().map(|w| w.stall).sum()
    }
}

/// Per-worker atomic cells the worker threads publish into while running.
struct WorkerCell {
    executed: AtomicU64,
    stolen: AtomicU64,
    busy_us: AtomicU64,
    stall_us: AtomicU64,
}

impl WorkerCell {
    fn new() -> Self {
        Self {
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy_us: AtomicU64::new(0),
            stall_us: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            busy: Duration::from_micros(self.busy_us.load(Ordering::Relaxed)),
            stall: Duration::from_micros(self.stall_us.load(Ordering::Relaxed)),
        }
    }
}

struct PoolShared<I, O> {
    deques: Vec<StealDeque<(u64, I)>>,
    results: Mutex<Vec<(u64, O)>>,
    cells: Vec<WorkerCell>,
    /// Sequence numbers whose supervised task panicked; no result will ever
    /// arrive for them, so the consumer must `Reorderer::release` them.
    panicked: Mutex<Vec<u64>>,
    panics: AtomicU64,
    restarts: AtomicU64,
    rescued: AtomicU64,
}

/// How long a supervised [`TaskPool::submit`] waits on a full injector before
/// it checks again that a worker is still alive to drain it (the same parked
/// wait the workers' drain phase uses).
const SUBMIT_RECHECK: Duration = Duration::from_micros(100);

/// The per-worker task-function factory, shared so dead workers can be
/// respawned with a fresh task function.
type MakeTaskFn<I, O> = dyn Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync;

/// A work-stealing pool mapping submitted items through per-worker task
/// functions, publishing `(seq, result)` pairs.
///
/// Construction spawns the worker threads; [`TaskPool::submit`] hands items
/// out with backpressure; [`TaskPool::try_drain`] collects whatever results
/// have landed (in arbitrary order — feed them to a [`Reorderer`]);
/// [`TaskPool::finish`] closes the injector, joins every worker and returns
/// the remaining results plus [`PoolStats`].
///
/// Determinism contract: the per-worker task functions must be pure with
/// respect to submission order (each output depends only on its own input),
/// which holds for RFDump's per-peak analyzers. Under that contract,
/// re-sequencing by `seq` makes the pool's observable output independent of
/// worker count and scheduling.
pub struct TaskPool<I: Send + 'static, O: Send + 'static> {
    tx: Option<Sender<(u64, I)>>,
    next_seq: u64,
    shared: Arc<PoolShared<I, O>>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    supervise: bool,
    /// Respawns left (supervised mode).
    restart_budget: u32,
    make: Arc<MakeTaskFn<I, O>>,
    refill: usize,
    /// Receiver clone kept for worker respawn and the finish-time rescue
    /// drain (supervised mode only; does not affect channel close, which is
    /// driven by the sender side).
    rescue_rx: Option<Receiver<(u64, I)>>,
    tel: Option<Vec<LiveCounters>>,
    /// Lazily-built inline task function, used when there is no live
    /// worker (a zero-worker pool, or every worker dead).
    rescue: Option<Box<dyn FnMut(I) -> O + Send>>,
}

impl<I: Send + 'static, O: Send + 'static> TaskPool<I, O> {
    /// Spawns `cfg.workers` threads. `make_task_fn(worker_index)` runs once
    /// on each worker thread to build its task function (e.g. constructing
    /// that worker's own analyzer instances); the inline executor builds
    /// its own on the caller's thread, with index `cfg.workers`.
    pub fn new<F>(cfg: PoolConfig, make_task_fn: F) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        Self::build(cfg, make_task_fn, None, "")
    }

    /// Like [`TaskPool::new`], publishing live metrics under
    /// `<prefix>.worker<i>.{executed,stolen,stall_us,depth}` and
    /// `<prefix>.queue.depth` into `registry`.
    pub fn with_telemetry<F>(
        cfg: PoolConfig,
        make_task_fn: F,
        registry: &Registry,
        prefix: &str,
    ) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        Self::build(cfg, make_task_fn, Some(registry), prefix)
    }

    fn build<F>(cfg: PoolConfig, make_task_fn: F, registry: Option<&Registry>, prefix: &str) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        let workers = cfg.workers;
        let (tx, rx) = bounded::<(u64, I)>(cfg.queue_cap.max(1));
        if let Some(reg) = registry {
            tx.set_gauge(reg.gauge(&format!("{prefix}.queue.depth")));
        }
        let deques: Vec<StealDeque<(u64, I)>> = (0..workers)
            .map(|i| match registry {
                Some(reg) => {
                    StealDeque::with_gauge(reg.gauge(&format!("{prefix}.worker{i}.depth")))
                }
                None => StealDeque::new(),
            })
            .collect();
        let shared = Arc::new(PoolShared {
            deques,
            results: Mutex::new(Vec::new()),
            cells: (0..workers).map(|_| WorkerCell::new()).collect(),
            panicked: Mutex::new(Vec::new()),
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            rescued: AtomicU64::new(0),
        });
        // Mirrored live counters (plain atomics; the worker adds to both its
        // cell and, when telemetry is on, the registry counter).
        let tel: Option<Vec<_>> = registry.map(|reg| {
            (0..workers)
                .map(|i| {
                    (
                        reg.counter(&format!("{prefix}.worker{i}.executed")),
                        reg.counter(&format!("{prefix}.worker{i}.stolen")),
                        reg.counter(&format!("{prefix}.worker{i}.stall_us")),
                    )
                })
                .collect()
        });
        let make: Arc<MakeTaskFn<I, O>> = Arc::new(make_task_fn);
        let refill = cfg.refill_batch.max(1);
        let handles = (0..workers)
            .map(|idx| {
                let tel = tel.as_ref().map(|t| t[idx].clone());
                Some(Self::spawn_worker(
                    idx,
                    &shared,
                    &rx,
                    refill,
                    &make,
                    tel,
                    cfg.supervise,
                ))
            })
            .collect();
        // Keep one receiver for respawn/rescue in supervised mode; drop the
        // construction-time clone either way so channel close is driven
        // purely by the sender side (receivers never reach zero while the
        // pool is live, so `send` cannot fail spuriously).
        let rescue_rx = cfg.supervise.then(|| rx.clone());
        drop(rx);
        Self {
            tx: Some(tx),
            next_seq: 0,
            shared,
            handles,
            supervise: cfg.supervise,
            restart_budget: cfg.max_restarts,
            make,
            refill,
            rescue_rx,
            tel,
            rescue: None,
        }
    }

    fn spawn_worker(
        idx: usize,
        shared: &Arc<PoolShared<I, O>>,
        rx: &Receiver<(u64, I)>,
        refill: usize,
        make: &Arc<MakeTaskFn<I, O>>,
        tel: Option<LiveCounters>,
        supervise: bool,
    ) -> std::thread::JoinHandle<()> {
        let shared = shared.clone();
        let rx = rx.clone();
        let make = make.clone();
        std::thread::Builder::new()
            .name(format!("rfd-pool-{idx}"))
            .spawn(move || {
                let mut task_fn = make(idx);
                worker_loop(idx, &shared, &rx, refill, &mut task_fn, tel, supervise);
            })
            .expect("spawn pool worker")
    }

    /// Submits the next item, blocking while the injector is full. Returns
    /// the sequence number assigned to the item.
    ///
    /// In supervised mode ([`PoolConfig::supervise`]) a dead worker is
    /// respawned within the restart budget. With no live worker — a
    /// zero-worker pool, or every worker gone — the item runs inline on the
    /// caller's thread, so submission always makes progress.
    ///
    /// # Panics
    /// In unsupervised mode, panics if a worker thread died (a task
    /// panicked) or, in a zero-worker pool, if the task itself panics — the
    /// pool cannot uphold the determinism contract once results can be
    /// missing.
    pub fn submit(&mut self, item: I) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut job = (seq, item);
        loop {
            if self.supervise {
                self.ensure_workers();
            }
            if !self.handles.iter().any(Option::is_some) {
                // Nobody is left to take what the injector still holds: run
                // that here, ahead of the new item, rather than at `finish`.
                let stranded = match &self.rescue_rx {
                    Some(rx) => rx.try_recv_batch(usize::MAX),
                    None => Vec::new(),
                };
                for (seq, item) in stranded.into_iter().chain([job]) {
                    self.run_inline(seq, item);
                }
                return seq;
            }
            let tx = self.tx.as_ref().expect("pool already finished");
            if !self.supervise {
                // Dying workers drop the only receivers, so this send fails
                // rather than blocks.
                if tx.send(job).is_err() {
                    panic!("task pool workers are gone (a task panicked)");
                }
                return seq;
            }
            // The pool's own `rescue_rx` keeps the channel open, so a plain
            // send into a full injector would outlive the last worker and
            // block forever: wait in slices, and look at the workers again
            // after each.
            match tx.send_timeout(job, SUBMIT_RECHECK) {
                Ok(()) => return seq,
                Err(SendError(unsent)) => job = unsent,
            }
        }
    }

    /// Reaps workers that died (a panic escaped the task wrapper, e.g. in
    /// the task-function factory itself) and respawns them while the
    /// restart budget lasts. Only meaningful before the injector closes: a
    /// live worker never returns while `tx` is open, so a finished handle
    /// here always means a death.
    fn ensure_workers(&mut self) {
        for idx in 0..self.handles.len() {
            let died = matches!(&self.handles[idx], Some(h) if h.is_finished());
            if !died {
                continue;
            }
            let h = self.handles[idx].take().expect("handle checked above");
            let _ = h.join();
            if self.restart_budget > 0 {
                self.restart_budget -= 1;
                self.shared.restarts.fetch_add(1, Ordering::Relaxed);
                let rx = self.rescue_rx.as_ref().expect("supervised pool keeps rx");
                let tel = self.tel.as_ref().map(|t| t[idx].clone());
                self.handles[idx] = Some(Self::spawn_worker(
                    idx,
                    &self.shared,
                    rx,
                    self.refill,
                    &self.make,
                    tel,
                    true,
                ));
            }
        }
    }

    /// Runs one item on the caller's thread, publishing its outcome the way
    /// a worker does.
    fn run_inline(&mut self, seq: u64, item: I) {
        if self.rescue.is_none() {
            // Fresh task function with an index past the worker range.
            self.rescue = Some((self.make)(self.shared.deques.len()));
        }
        let f = self.rescue.as_mut().expect("rescue fn just built");
        self.shared.rescued.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(out) => self
                .shared
                .results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((seq, out)),
            Err(panic) if !self.supervise => resume_unwind(panic),
            Err(_) => {
                self.shared.panics.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .panicked
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(seq);
            }
        }
    }

    /// Takes the sequence numbers of supervised tasks that panicked since
    /// the last call. The consumer must `Reorderer::release` each one or
    /// later results stay buffered behind the gap forever.
    pub fn take_panicked(&self) -> Vec<u64> {
        std::mem::take(
            &mut self
                .shared
                .panicked
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// Number of items submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Workers respawned so far (supervised mode). Live counterpart of
    /// [`PoolStats::restarts`], so a consumer can report respawns as they
    /// happen instead of only at [`TaskPool::finish`].
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Takes every result published so far (unordered).
    pub fn try_drain(&self) -> Vec<(u64, O)> {
        std::mem::take(
            &mut self
                .shared
                .results
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    /// Closes the injector, joins all workers, and returns the remaining
    /// results (unordered) with the pool statistics.
    ///
    /// In supervised mode any items stranded in the injector or a dead
    /// worker's deque are executed inline (the rescue path), so every
    /// submitted sequence number is accounted for — as a result or as an
    /// entry from [`TaskPool::take_panicked`].
    pub fn finish(mut self) -> (Vec<(u64, O)>, PoolStats) {
        self.tx.take(); // close the channel
        let supervise = self.supervise;
        for h in self.handles.drain(..).flatten() {
            if h.join().is_err() && !supervise {
                panic!("task pool worker panicked");
            }
        }
        if let Some(rx) = self.rescue_rx.take() {
            let mut stranded: Vec<(u64, I)> = rx.try_recv_batch(usize::MAX);
            for d in &self.shared.deques {
                while let Some(it) = d.pop() {
                    stranded.push(it);
                }
            }
            for (seq, item) in stranded {
                self.run_inline(seq, item);
            }
        }
        let rest = self.try_drain();
        let stats = PoolStats {
            workers: self.shared.cells.iter().map(|c| c.snapshot()).collect(),
            panics: self.shared.panics.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
            rescued: self.shared.rescued.load(Ordering::Relaxed),
            lost: self.take_panicked(),
        };
        (rest, stats)
    }
}

type LiveCounters = (
    Arc<rfd_telemetry::Counter>,
    Arc<rfd_telemetry::Counter>,
    Arc<rfd_telemetry::Counter>,
);

fn worker_loop<I, O>(
    idx: usize,
    shared: &PoolShared<I, O>,
    rx: &Receiver<(u64, I)>,
    refill: usize,
    task_fn: &mut (dyn FnMut(I) -> O + Send),
    tel: Option<LiveCounters>,
    supervise: bool,
) {
    let my = &shared.deques[idx];
    let cell = &shared.cells[idx];
    let n = shared.deques.len();
    let mut run = |seq: u64, item: I| {
        let t0 = Instant::now();
        // Supervised mode: a panicking task must not take the worker (and
        // with it every queued item) down. Catch the unwind, record the
        // lost sequence number for the consumer's gap release, and keep
        // serving. The task functions own no poisoned locks — results are
        // pushed after the task returns — so the unwind-safety assertion is
        // sound.
        let out = if supervise {
            match catch_unwind(AssertUnwindSafe(|| task_fn(item))) {
                Ok(out) => Some(out),
                Err(_) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    shared
                        .panicked
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(seq);
                    None
                }
            }
        } else {
            Some(task_fn(item))
        };
        let dt = t0.elapsed();
        cell.busy_us
            .fetch_add(dt.as_micros() as u64, Ordering::Relaxed);
        cell.executed.fetch_add(1, Ordering::Relaxed);
        if let Some((executed, ..)) = &tel {
            executed.inc();
        }
        if let Some(out) = out {
            shared
                .results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((seq, out));
        }
    };
    loop {
        // 1. Local work first.
        while let Some((seq, item)) = my.pop() {
            run(seq, item);
        }
        // 2. Refill from the injector without blocking.
        let batch = rx.try_recv_batch(refill);
        if !batch.is_empty() {
            my.push_batch(batch);
            continue;
        }
        // 3. Steal from a peer (rotating victim order so thieves spread).
        let mut stole = 0u64;
        for off in 1..n {
            let victim = (idx + off) % n;
            let got = shared.deques[victim].steal_half();
            if !got.is_empty() {
                stole = got.len() as u64;
                my.push_batch(got);
                break;
            }
        }
        if stole > 0 {
            cell.stolen.fetch_add(stole, Ordering::Relaxed);
            if let Some((_, stolen, _)) = &tel {
                stolen.add(stole);
            }
            continue;
        }
        // 4. Nothing anywhere: block briefly on the injector. The timeout
        //    bounds how stale our view of peers' deques can get (a peer may
        //    have refilled while we were checking).
        let t0 = Instant::now();
        match rx.recv_timeout(Duration::from_micros(500)) {
            RecvTimeout::Item((seq, item)) => {
                let waited = t0.elapsed().as_micros() as u64;
                cell.stall_us.fetch_add(waited, Ordering::Relaxed);
                if let Some((.., stall)) = &tel {
                    stall.add(waited);
                }
                run(seq, item);
            }
            RecvTimeout::Timeout => {
                let waited = t0.elapsed().as_micros() as u64;
                cell.stall_us.fetch_add(waited, Ordering::Relaxed);
                if let Some((.., stall)) = &tel {
                    stall.add(waited);
                }
            }
            RecvTimeout::Closed => {
                // The injector is closed and drained. Remaining work can
                // only live in peers' deques; if a final sweep finds none,
                // we are done (in-flight peers finish their own items).
                if shared.deques.iter().all(|d| d.is_empty()) {
                    break;
                }
                // A peer still holds queued items we failed to steal (it is
                // mid-run with a backlog). recv_timeout returns Closed
                // immediately now, so without an explicit wait this branch
                // busy-spins at full CPU until a steal lands. Park briefly
                // instead, booked as stall time like every other idle wait.
                let t0 = Instant::now();
                std::thread::sleep(Duration::from_micros(100));
                let waited = t0.elapsed().as_micros() as u64;
                cell.stall_us.fetch_add(waited, Ordering::Relaxed);
                if let Some((.., stall)) = &tel {
                    stall.add(waited);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn deque_fifo_for_owner() {
        let d = StealDeque::new();
        d.push(1);
        d.push_batch(vec![2, 3]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_takes_newest_half() {
        let d = StealDeque::new();
        d.push_batch((0..8).collect());
        let stolen = d.steal_half();
        assert_eq!(stolen, vec![4, 5, 6, 7]);
        assert_eq!(d.len(), 4);
        // Owner still sees the oldest items first.
        assert_eq!(d.pop(), Some(0));
        // Stealing a single remaining item works.
        let d2 = StealDeque::new();
        d2.push(42);
        assert_eq!(d2.steal_half(), vec![42]);
        assert!(d2.steal_half().is_empty());
    }

    #[test]
    fn bounded_channel_backpressures_and_preserves_fifo() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Queue is full; a sender thread must block until we drain.
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap();
            drop(tx);
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        assert_eq!(rx.recv(), None);
        t.join().unwrap();
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_close() {
        let (tx, rx) = bounded::<u32>(1);
        match rx.recv_timeout(Duration::from_millis(1)) {
            RecvTimeout::Timeout => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        drop(tx);
        match rx.recv_timeout(Duration::from_millis(1)) {
            RecvTimeout::Closed => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn reorderer_emits_in_sequence_order() {
        let mut r = Reorderer::new();
        r.push(2, "c");
        r.push(0, "a");
        assert_eq!(r.pop_ready(), Some("a"));
        assert_eq!(r.pop_ready(), None); // 1 missing
        r.push(1, "b");
        assert_eq!(r.pop_ready(), Some("b"));
        assert_eq!(r.pop_ready(), Some("c"));
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.next_seq(), 3);
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn reorderer_rejects_duplicates() {
        let mut r = Reorderer::new();
        r.push(0, 1);
        r.push(0, 2);
    }

    #[test]
    fn pool_maps_all_items_with_merge_restoring_order() {
        for workers in [1, 2, 4] {
            let mut pool = TaskPool::new(
                PoolConfig {
                    workers,
                    queue_cap: 8,
                    refill_batch: 2,
                    ..Default::default()
                },
                |_| Box::new(|x: u64| x * 10),
            );
            let mut reorder = Reorderer::new();
            let mut out = Vec::new();
            for i in 0..200u64 {
                pool.submit(i);
                for (seq, v) in pool.try_drain() {
                    reorder.push(seq, v);
                }
                while let Some(v) = reorder.pop_ready() {
                    out.push(v);
                }
            }
            let (rest, stats) = pool.finish();
            for (seq, v) in rest {
                reorder.push(seq, v);
            }
            while let Some(v) = reorder.pop_ready() {
                out.push(v);
            }
            let expect: Vec<u64> = (0..200).map(|x| x * 10).collect();
            assert_eq!(out, expect, "workers={workers}");
            assert_eq!(stats.executed(), 200);
        }
    }

    #[test]
    fn drain_phase_with_peer_backlog_completes_and_books_stall() {
        // Exercise the post-close drain: a large refill batch parks the
        // whole queue in one worker's deque behind a slow first item, so
        // the other workers reach the injector-closed branch while a peer
        // still holds a backlog. They must wait (booked as stall), steal,
        // and finish every item — not exit early and not busy-spin
        // unaccounted.
        let mut pool = TaskPool::new(
            PoolConfig {
                workers: 4,
                queue_cap: 64,
                refill_batch: 64,
                ..Default::default()
            },
            |_| {
                Box::new(|x: u64| {
                    if x == 0 {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                    x + 1
                })
            },
        );
        pool.submit(0);
        // Idle window: the other workers sit in timed injector waits, which
        // must surface in the stall counters exactly as before the parked
        // drain-phase wait was added.
        std::thread::sleep(Duration::from_millis(5));
        for i in 1..48u64 {
            pool.submit(i);
        }
        let (rest, stats) = pool.finish();
        assert_eq!(stats.executed(), 48);
        let mut got: Vec<u64> = rest.into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=48).collect::<Vec<u64>>());
        // Someone idled while the slow worker held the backlog; that time
        // must appear in the stall counters, same as pre-close waits.
        assert!(
            stats.stall() > Duration::ZERO,
            "idle drain-phase waits must be accounted as stall"
        );
    }

    #[test]
    fn pool_worker_state_is_per_thread() {
        // Each worker's task fn counts its own calls; the counts must sum
        // to the submitted total (no task lost or run twice).
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let mut pool = TaskPool::new(PoolConfig::with_workers(3), |_| {
            Box::new(|x: u64| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        for i in 0..97 {
            pool.submit(i);
        }
        let (rest, stats) = pool.finish();
        assert_eq!(stats.executed(), 97);
        assert_eq!(CALLS.load(Ordering::Relaxed) as u64 % 97, 0); // per-run isolation
        let mut seqs: Vec<u64> = rest.iter().map(|(s, _)| *s).collect();
        // try_drain was never called, so finish returns everything.
        seqs.sort_unstable();
        assert!(seqs.len() <= 97);
    }

    #[test]
    fn reorderer_releases_gaps_and_skips_them() {
        let mut r = Reorderer::new();
        r.push(0, "a");
        r.push(2, "c");
        assert_eq!(r.pop_ready(), Some("a"));
        assert_eq!(r.pop_ready(), None); // 1 missing
        r.release(1); // its task died; stop waiting
        assert_eq!(r.pop_ready(), Some("c"));
        assert_eq!(r.next_seq(), 3);
        assert_eq!(r.released_count(), 1);
        // Releasing an already-emitted seq is a no-op; releasing a seq whose
        // value arrived keeps the value.
        r.release(0);
        r.push(4, "e");
        r.release(4);
        r.release(3);
        assert_eq!(r.pop_ready(), Some("e"));
        assert_eq!(r.released_count(), 2);
        // A trailing release advances next_seq on the final drain call.
        r.release(5);
        assert_eq!(r.pop_ready(), None);
        assert_eq!(r.next_seq(), 6);
    }

    #[test]
    #[should_panic(expected = "released as lost")]
    fn reorderer_rejects_push_of_released_seq() {
        let mut r = Reorderer::new();
        r.release(0);
        r.push(0, 1);
    }

    #[test]
    fn supervised_pool_survives_task_panics_and_reports_the_gaps() {
        for workers in [1, 3] {
            let mut pool = TaskPool::new(
                PoolConfig {
                    workers,
                    queue_cap: 8,
                    refill_batch: 2,
                    ..Default::default()
                },
                |_| {
                    Box::new(|x: u64| {
                        assert!(x % 10 != 3, "injected task panic on {x}");
                        x * 2
                    })
                },
            );
            let mut reorder = Reorderer::new();
            let mut out = Vec::new();
            for i in 0..50u64 {
                pool.submit(i);
            }
            let (rest, stats) = pool.finish();
            for (seq, v) in rest {
                reorder.push(seq, v);
            }
            // 5 of the 50 inputs panic (3, 13, 23, 33, 43); their sequence
            // numbers come back through the lost list for gap release.
            assert_eq!(stats.panics, 5, "workers={workers}");
            let mut lost = stats.lost.clone();
            lost.sort_unstable();
            assert_eq!(lost, vec![3, 13, 23, 33, 43], "workers={workers}");
            for seq in stats.lost {
                reorder.release(seq);
            }
            while let Some(v) = reorder.pop_ready() {
                out.push(v);
            }
            let expect: Vec<u64> = (0..50).filter(|i| i % 10 != 3).map(|x| x * 2).collect();
            assert_eq!(out, expect, "workers={workers}");
            assert_eq!(reorder.next_seq(), 50);
        }
    }

    #[test]
    fn dead_workers_respawn_and_rescue_runs_stranded_items_inline() {
        // The factory panics for worker 0, so the only worker dies at
        // spawn, its respawns die too, and the whole budget burns down;
        // submissions must then run inline through a rescue task function
        // (built with index 1 = worker count, which works).
        let mut pool = TaskPool::new(
            PoolConfig {
                workers: 1,
                queue_cap: 4,
                refill_batch: 1,
                supervise: true,
                max_restarts: 2,
            },
            |idx| {
                assert!(idx != 0, "injected factory panic for worker 0");
                Box::new(|x: u64| x + 100)
            },
        );
        // Give the doomed worker time to die so ensure_workers sees it.
        std::thread::sleep(Duration::from_millis(50));
        let mut results = Vec::new();
        for i in 0..12u64 {
            pool.submit(i);
            results.extend(pool.try_drain());
            std::thread::sleep(Duration::from_millis(2));
        }
        let (rest, stats) = pool.finish();
        results.extend(rest);
        assert_eq!(stats.restarts, 2, "budget fully spent");
        assert!(stats.rescued > 0, "rescue path must have run");
        assert_eq!(stats.panics, 0);
        let mut got: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (100..112).collect::<Vec<u64>>(), "no item lost");
    }

    #[test]
    fn submit_into_a_full_injector_survives_the_death_of_the_last_worker() {
        // Every worker (and every respawn) parks in the factory until the
        // gate opens, then dies without ever taking an item. The gate opens
        // between the first submit, which fills the one-slot injector, and
        // the second, which therefore finds live handles and a full queue:
        // the wait that used to outlive the last worker and never return.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let mut pool = TaskPool::new(
            PoolConfig {
                workers: 2,
                queue_cap: 1,
                refill_batch: 1,
                supervise: true,
                max_restarts: 2,
            },
            move |idx| {
                if idx < 2 {
                    // Returns (with an error) once the sender is dropped.
                    let _ = gate_rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    panic!("injected factory panic for worker {idx}");
                }
                Box::new(|x: u64| {
                    assert!(x % 10 != 7, "injected task panic on {x}");
                    x + 100
                })
            },
        );
        pool.submit(0);
        drop(gate_tx);
        for i in 1..100u64 {
            pool.submit(i);
        }
        let mut lost = pool.take_panicked();
        let (results, stats) = pool.finish();
        lost.extend(stats.lost);
        lost.sort_unstable();
        assert_eq!(lost, (0..10).map(|k| 10 * k + 7).collect::<Vec<u64>>());
        let mut seqs: Vec<u64> = results.iter().map(|(seq, _)| *seq).collect();
        seqs.sort_unstable();
        let expect: Vec<u64> = (0..100).filter(|i| i % 10 != 7).collect();
        assert_eq!(seqs, expect, "every submit is a result or a panicked seq");
        assert!(results.iter().all(|(seq, v)| *v == seq + 100));
        assert_eq!((stats.restarts, stats.rescued, stats.panics), (2, 100, 10));
    }

    #[test]
    fn zero_worker_pool_runs_inline_and_reports_like_a_threaded_one() {
        let make = |_: usize| -> Box<dyn FnMut(u64) -> (u64, std::thread::ThreadId) + Send> {
            Box::new(|x: u64| {
                assert!(x % 10 != 3, "injected task panic on {x}");
                (x * 2, std::thread::current().id())
            })
        };
        let mut inline = TaskPool::new(PoolConfig::with_workers(0), make);
        for i in 0..30u64 {
            inline.submit(i);
        }
        // Every outcome is already published when `submit` returns, in
        // submit order, and every task ran on this thread.
        let results = inline.try_drain();
        let panicked = inline.take_panicked();
        let seqs: Vec<u64> = results.iter().map(|(seq, _)| *seq).collect();
        let expect: Vec<u64> = (0..30).filter(|i| i % 10 != 3).collect();
        assert_eq!(seqs, expect);
        assert_eq!(panicked, vec![3, 13, 23]);
        let me = std::thread::current().id();
        assert!(results.iter().all(|(_, (_, tid))| *tid == me));
        let (rest, stats) = inline.finish();
        assert!(rest.is_empty() && stats.lost.is_empty());
        assert!(stats.workers.is_empty(), "no worker thread was spawned");
        assert_eq!((stats.panics, stats.rescued), (3, 30));

        // A threaded pool reports the same values and the same gaps.
        let mut threaded = TaskPool::new(PoolConfig::with_workers(2), make);
        for i in 0..30u64 {
            threaded.submit(i);
        }
        let mut lost = threaded.take_panicked();
        let (mut rest, stats) = threaded.finish();
        lost.extend(stats.lost);
        lost.sort_unstable();
        rest.sort_unstable_by_key(|(seq, _)| *seq);
        assert_eq!(lost, panicked);
        assert_eq!(stats.panics, 3);
        let values = |r: &[(u64, (u64, std::thread::ThreadId))]| -> Vec<(u64, u64)> {
            r.iter().map(|(seq, (v, _))| (*seq, *v)).collect()
        };
        assert_eq!(values(&rest), values(&results));
    }

    #[test]
    #[should_panic(expected = "task pool worker panicked")]
    fn unsupervised_pool_still_fails_fast() {
        let mut pool = TaskPool::new(
            PoolConfig {
                workers: 1,
                queue_cap: 4,
                refill_batch: 1,
                supervise: false,
                max_restarts: 0,
            },
            |_| Box::new(|_: u64| -> u64 { panic!("unsupervised task panic") }),
        );
        pool.submit(1);
        let _ = pool.finish();
    }

    #[test]
    fn pool_telemetry_counters_appear() {
        let reg = Registry::new();
        let mut pool = TaskPool::with_telemetry(
            PoolConfig::with_workers(2),
            |_| Box::new(|x: u64| x),
            &reg,
            "pool.test",
        );
        for i in 0..50 {
            pool.submit(i);
        }
        let (_, stats) = pool.finish();
        let snap = reg.snapshot();
        let executed: u64 = (0..2)
            .map(|i| {
                snap.counters
                    .get(&format!("pool.test.worker{i}.executed"))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(executed, 50);
        assert_eq!(stats.executed(), 50);
        // Depth gauges exist and have drained to zero.
        assert_eq!(snap.gauges["pool.test.queue.depth"], 0);
        assert_eq!(snap.gauges["pool.test.worker0.depth"], 0);
    }
}
