//! Analysis task pool with a deterministic merge.
//!
//! The RFDump paper (§2.2) points out that its dataflow decomposition has
//! "inherent parallelism that can be exploited using multi-threading":
//! once the shared detection stage has classified a block, the expensive
//! per-protocol analyzers are independent across blocks. This module is
//! that parallelism, packaged so the *observable output stays byte-
//! identical* at any worker count:
//!
//! * [`Reorderer`] — the deterministic merge: results tagged with their
//!   submission sequence number come out strictly in submission order, no
//!   matter which worker finished first.
//! * [`TaskPool`] — N workers popping one bounded FIFO queue: a submitter
//!   blocks while `QUEUE_CAP` tasks wait unstarted, so it never outruns
//!   the workers. Each task runs under `catch_unwind`, and its result (or
//!   its panicked sequence number) is published with its sequence number;
//!   the consumer re-sequences through a [`Reorderer`], so a pool with any
//!   worker count is observationally a FIFO `map()`. With zero workers no
//!   thread is spawned and each task runs on the submitting thread — the
//!   same stage, run inline.
//!
//! Every task is a whole-peak demodulation (tens of microseconds to
//! milliseconds) on at most as many workers as cores, so one mutex-guarded
//! queue is never the bottleneck. It is plain `std` (`Mutex`, `Condvar`,
//! atomics), every wait is an untimed condvar wait, and the file stays
//! inside the crate-wide `#![forbid(unsafe_code)]`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfd_telemetry::{Counter, Gauge, Registry};

use crate::sync::Mutex;

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
    /// Sequence numbers declared lost (its task panicked); skipped
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

/// Submitted but unstarted tasks the queue holds before
/// [`TaskPool::submit`] blocks: the backpressure that keeps a fast producer
/// (the trace reader) from buffering unbounded work ahead of the workers.
pub(crate) const QUEUE_CAP: usize = 64;

/// Worker respawns a pool allows across its lifetime.
pub(crate) const MAX_RESTARTS: u32 = 2;

/// What one worker did, for the telemetry satellite and the stats table.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Time spent executing tasks.
    pub busy: Duration,
    /// Time spent idle, waiting on the empty queue.
    pub stall: Duration,
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// Tasks that panicked (their sequence numbers were reported through
    /// [`TaskPool::take_panicked`]).
    pub panics: u64,
    /// Worker threads respawned after dying.
    pub restarts: u64,
    /// Items executed inline on the caller's thread: every item of a
    /// zero-worker pool, otherwise those stranded in the queue when the
    /// workers were gone.
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

    /// Summed busy time across workers.
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Summed stall (idle-wait) time across workers.
    pub fn stall(&self) -> Duration {
        self.workers.iter().map(|w| w.stall).sum()
    }
}

/// Per-worker atomic cells the worker threads publish into while running,
/// with the registry counters they mirror into when telemetry is on.
#[derive(Default)]
struct WorkerCell {
    executed: AtomicU64,
    busy_us: AtomicU64,
    stall_us: AtomicU64,
    /// `<prefix>.worker<i>.executed` and `.stall_us`.
    tel: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl WorkerCell {
    fn ran(&self, busy: Duration) {
        self.busy_us
            .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
        if let Some((executed, _)) = &self.tel {
            executed.inc();
        }
    }

    fn stalled(&self, stall: Duration) {
        let us = stall.as_micros() as u64;
        self.stall_us.fetch_add(us, Ordering::Relaxed);
        if let Some((_, stall_us)) = &self.tel {
            stall_us.add(us);
        }
    }

    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            busy: Duration::from_micros(self.busy_us.load(Ordering::Relaxed)),
            stall: Duration::from_micros(self.stall_us.load(Ordering::Relaxed)),
        }
    }
}

/// The state behind the pool's one lock.
struct Queue<I> {
    /// Submitted, unstarted tasks, oldest first.
    items: VecDeque<(u64, I)>,
    /// Set by `finish` (or drop): workers exit once `items` runs dry.
    closed: bool,
    /// Worker threads that have not exited yet.
    live: usize,
}

struct Shared<I, O> {
    queue: Mutex<Queue<I>>,
    /// Signalled when an item arrives or the queue closes.
    not_empty: Condvar,
    /// Signalled when a worker takes an item or exits.
    not_full: Condvar,
    /// `<prefix>.queue.depth` (telemetry runs only).
    depth: Option<Arc<Gauge>>,
    results: Mutex<Vec<(u64, O)>>,
    /// Sequence numbers whose task panicked; no result will ever arrive for
    /// them, so the consumer must `Reorderer::release` them.
    panicked: Mutex<Vec<u64>>,
    cells: Vec<WorkerCell>,
    panics: AtomicU64,
    restarts: AtomicU64,
    rescued: AtomicU64,
}

impl<I, O> Shared<I, O> {
    fn track(&self, delta: i64) {
        if let Some(g) = &self.depth {
            g.add(delta);
        }
    }

    /// Runs one task and publishes its result, or its sequence number if
    /// it panicked. The task functions own no lock while they run —
    /// results are pushed after the task returns — so a caught panic
    /// leaves nothing half-updated and the unwind-safety assertion is
    /// sound.
    fn run(&self, seq: u64, item: I, task_fn: &mut (dyn FnMut(I) -> O + Send)) {
        match catch_unwind(AssertUnwindSafe(|| task_fn(item))) {
            Ok(out) => self.results.lock().push((seq, out)),
            Err(_) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                self.panicked.lock().push(seq);
            }
        }
    }

    /// Takes every queued item (the workers are gone).
    fn take_stranded(&self) -> Vec<(u64, I)> {
        let stranded: Vec<_> = self.queue.lock().items.drain(..).collect();
        self.track(-(stranded.len() as i64));
        stranded
    }
}

/// Counts a worker thread out of [`Queue::live`] when it exits — normally,
/// or by a panic in the task-function factory — and wakes a submitter that
/// may be waiting on a full queue for a worker that is now gone.
struct LiveGuard<'a, I, O>(&'a Shared<I, O>);

impl<I, O> Drop for LiveGuard<'_, I, O> {
    fn drop(&mut self) {
        self.0.queue.lock().live -= 1;
        self.0.not_full.notify_all();
    }
}

/// The per-worker task-function factory, shared so dead workers can be
/// respawned with a fresh task function.
type MakeTaskFn<I, O> = dyn Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync;

/// A pool mapping submitted items through per-worker task functions,
/// publishing `(seq, result)` pairs.
///
/// Construction spawns the worker threads; [`TaskPool::submit`] hands items
/// out with backpressure; [`TaskPool::try_drain`] collects whatever results
/// have landed (in arbitrary order — feed them to a [`Reorderer`]);
/// [`TaskPool::finish`] closes the queue, joins every worker and returns
/// the remaining results plus [`PoolStats`].
///
/// A panicking task loses only its own result: its sequence number is
/// reported through [`TaskPool::take_panicked`] and the worker keeps
/// serving. A worker that dies anyway (its task-function factory
/// panicked) is respawned, up to `MAX_RESTARTS` times, once no worker is
/// left; past that budget the items run inline on the submitting thread,
/// so every submitted sequence number comes back as a result or a panic.
///
/// Determinism contract: the per-worker task functions must be pure with
/// respect to submission order (each output depends only on its own input),
/// which holds for RFDump's per-peak analyzers. Under that contract,
/// re-sequencing by `seq` makes the pool's observable output independent of
/// worker count and scheduling.
pub struct TaskPool<I: Send + 'static, O: Send + 'static> {
    shared: Arc<Shared<I, O>>,
    handles: Vec<JoinHandle<()>>,
    make: Arc<MakeTaskFn<I, O>>,
    next_seq: u64,
    /// Respawns left.
    restart_budget: u32,
    /// Lazily-built inline task function, used when there is no live
    /// worker (a zero-worker pool, or every worker dead).
    inline: Option<Box<dyn FnMut(I) -> O + Send>>,
}

impl<I: Send + 'static, O: Send + 'static> TaskPool<I, O> {
    /// Spawns `workers` threads (`0` spawns none: every task then runs on
    /// the submitting thread). `make_task_fn(worker_index)` runs once on
    /// each worker thread to build its task function (e.g. constructing
    /// that worker's own analyzer instances); the inline executor builds
    /// its own on the caller's thread, with index `workers`.
    pub fn new<F>(workers: usize, make_task_fn: F) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        Self::build(workers, make_task_fn, None, "")
    }

    /// Like [`TaskPool::new`], publishing live metrics under
    /// `<prefix>.worker<i>.{executed,stall_us}` and `<prefix>.queue.depth`
    /// into `registry`.
    pub fn with_telemetry<F>(
        workers: usize,
        make_task_fn: F,
        registry: &Registry,
        prefix: &str,
    ) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        Self::build(workers, make_task_fn, Some(registry), prefix)
    }

    fn build<F>(workers: usize, make_task_fn: F, registry: Option<&Registry>, prefix: &str) -> Self
    where
        F: Fn(usize) -> Box<dyn FnMut(I) -> O + Send> + Send + Sync + 'static,
    {
        let cells = (0..workers)
            .map(|i| WorkerCell {
                tel: registry.map(|reg| {
                    (
                        reg.counter(&format!("{prefix}.worker{i}.executed")),
                        reg.counter(&format!("{prefix}.worker{i}.stall_us")),
                    )
                }),
                ..WorkerCell::default()
            })
            .collect();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                closed: false,
                live: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: registry.map(|reg| reg.gauge(&format!("{prefix}.queue.depth"))),
            results: Mutex::new(Vec::new()),
            panicked: Mutex::new(Vec::new()),
            cells,
            panics: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            rescued: AtomicU64::new(0),
        });
        let mut pool = Self {
            shared,
            handles: Vec::with_capacity(workers),
            make: Arc::new(make_task_fn),
            next_seq: 0,
            restart_budget: MAX_RESTARTS,
            inline: None,
        };
        for idx in 0..workers {
            pool.spawn_worker(idx);
        }
        pool
    }

    fn spawn_worker(&mut self, idx: usize) {
        // Live before the thread exists, so the next submit counts it.
        self.shared.queue.lock().live += 1;
        let shared = self.shared.clone();
        let make = self.make.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rfd-pool-{idx}"))
            .spawn(move || {
                let _live = LiveGuard(&shared);
                let mut task_fn = make(idx);
                worker_loop(&shared, &shared.cells[idx], &mut *task_fn);
            })
            .expect("spawn pool worker");
        self.handles.push(handle);
    }

    /// Submits the next item, blocking while `QUEUE_CAP` items wait
    /// unstarted. Returns the sequence number assigned to the item.
    ///
    /// Once no worker is left alive, they are respawned while the restart
    /// budget lasts. With no worker and no budget — a zero-worker pool, or
    /// every worker gone — the queued items and then this one run inline on
    /// the caller's thread, so submission always makes progress.
    pub fn submit(&mut self, item: I) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut job = (seq, item);
        while !self.handles.is_empty() {
            match self.enqueue(job) {
                Ok(()) => return seq,
                Err(back) => job = back,
            }
            self.respawn();
        }
        // No worker, and none to come: what the queue still holds runs
        // here, ahead of the new item.
        for (seq, item) in self.shared.take_stranded() {
            self.run_inline(seq, item);
        }
        self.run_inline(job.0, job.1);
        seq
    }

    /// Queues `job`, waiting while the queue is full; hands it back once no
    /// worker is live to take it.
    fn enqueue(&self, job: (u64, I)) -> Result<(), (u64, I)> {
        let shared = &*self.shared;
        let mut q = shared.queue.lock();
        while q.live > 0 && q.items.len() >= QUEUE_CAP {
            q = shared
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if q.live == 0 {
            return Err(job);
        }
        q.items.push_back(job);
        drop(q);
        shared.track(1);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Joins the exited workers and respawns them while the restart budget
    /// lasts. Called with no worker live, so every join returns promptly.
    fn respawn(&mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for idx in 0..self.shared.cells.len() {
            if self.restart_budget == 0 {
                break;
            }
            self.restart_budget -= 1;
            self.shared.restarts.fetch_add(1, Ordering::Relaxed);
            self.spawn_worker(idx);
        }
    }

    /// Runs one item on the caller's thread, publishing its outcome the way
    /// a worker does.
    fn run_inline(&mut self, seq: u64, item: I) {
        let workers = self.shared.cells.len();
        let make = &self.make;
        // Fresh task function with an index past the worker range.
        let f = self.inline.get_or_insert_with(|| make(workers));
        self.shared.rescued.fetch_add(1, Ordering::Relaxed);
        self.shared.run(seq, item, &mut **f);
    }

    /// Takes the sequence numbers of tasks that panicked since the last
    /// call. The consumer must `Reorderer::release` each one or later
    /// results stay buffered behind the gap forever.
    pub fn take_panicked(&self) -> Vec<u64> {
        std::mem::take(&mut *self.shared.panicked.lock())
    }

    /// Number of items submitted so far.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Workers respawned so far. Live counterpart of
    /// [`PoolStats::restarts`], so a consumer can report respawns as they
    /// happen instead of only at [`TaskPool::finish`].
    pub fn restarts(&self) -> u64 {
        self.shared.restarts.load(Ordering::Relaxed)
    }

    /// Takes every result published so far (unordered).
    pub fn try_drain(&self) -> Vec<(u64, O)> {
        std::mem::take(&mut *self.shared.results.lock())
    }

    fn close(&self) {
        self.shared.queue.lock().closed = true;
        self.shared.not_empty.notify_all();
    }

    /// Closes the queue, joins all workers, and returns the remaining
    /// results (unordered) with the pool statistics.
    ///
    /// Workers drain the queue before they exit; anything still in it
    /// after the joins (every worker died) runs inline, so every submitted
    /// sequence number is accounted for — as a result or as an entry from
    /// [`TaskPool::take_panicked`].
    pub fn finish(mut self) -> (Vec<(u64, O)>, PoolStats) {
        self.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for (seq, item) in self.shared.take_stranded() {
            self.run_inline(seq, item);
        }
        let stats = PoolStats {
            workers: self.shared.cells.iter().map(WorkerCell::snapshot).collect(),
            panics: self.shared.panics.load(Ordering::Relaxed),
            restarts: self.shared.restarts.load(Ordering::Relaxed),
            rescued: self.shared.rescued.load(Ordering::Relaxed),
            lost: self.take_panicked(),
        };
        (self.try_drain(), stats)
    }
}

impl<I: Send + 'static, O: Send + 'static> Drop for TaskPool<I, O> {
    /// A pool dropped without [`TaskPool::finish`] still lets its workers
    /// run out the queue and exit.
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop<I, O>(
    shared: &Shared<I, O>,
    cell: &WorkerCell,
    task_fn: &mut (dyn FnMut(I) -> O + Send),
) {
    loop {
        let mut q = shared.queue.lock();
        let mut idle_since = None;
        let job = loop {
            if let Some(job) = q.items.pop_front() {
                break Some(job);
            }
            if q.closed {
                break None;
            }
            idle_since.get_or_insert_with(Instant::now);
            q = shared
                .not_empty
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(q);
        if let Some(t0) = idle_since {
            cell.stalled(t0.elapsed());
        }
        let Some((seq, item)) = job else { return };
        shared.track(-1);
        shared.not_full.notify_one();
        let t0 = Instant::now();
        shared.run(seq, item, task_fn);
        cell.ran(t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The pool's queue is a bounded FIFO channel from the submitter to the
    /// workers. With one worker behind a slow first task, each task starts
    /// in submission order, and when task `seq` starts no more than
    /// `seq + QUEUE_CAP + 1` submits have returned: `seq` itself, the
    /// `QUEUE_CAP` items queued behind it, and one pushed into the slot its
    /// pop freed.
    #[test]
    fn bounded_channel_backpressures_and_preserves_fifo() {
        let returned = Arc::new(AtomicU64::new(0));
        let seen = returned.clone();
        let mut pool = TaskPool::new(1, move |_| {
            let seen = seen.clone();
            Box::new(move |x: u64| {
                let at_start = seen.load(Ordering::SeqCst);
                if x == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                at_start
            })
        });
        let n = 4 * QUEUE_CAP as u64;
        let mut order = Vec::new();
        for i in 0..n {
            pool.submit(i);
            returned.fetch_add(1, Ordering::SeqCst);
            order.extend(pool.try_drain());
        }
        let (rest, stats) = pool.finish();
        order.extend(rest);
        // One worker publishes in the order it ran.
        let seqs: Vec<u64> = order.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<u64>>(), "tasks ran out of order");
        for (seq, at_start) in order {
            assert!(
                at_start <= seq + QUEUE_CAP as u64 + 1,
                "task {seq} started after {at_start} submits had returned"
            );
        }
        assert_eq!((stats.executed(), stats.rescued, stats.panics), (n, 0, 0));
    }

    /// Closing the queue loses nothing: `finish` closes it while items
    /// still wait behind a slow task, and the workers run every one of them
    /// before they exit, so none is left to run inline. The workers' wait
    /// on the empty queue before the first submit is booked as stall.
    #[test]
    fn bounded_channel_close_semantics() {
        let mut pool = TaskPool::new(2, |_| {
            Box::new(|x: u64| {
                if x == 0 {
                    std::thread::sleep(Duration::from_millis(10));
                }
                x + 1
            })
        });
        std::thread::sleep(Duration::from_millis(5));
        let n = QUEUE_CAP as u64 + 1;
        for i in 0..n {
            pool.submit(i);
        }
        let (mut rest, stats) = pool.finish();
        rest.sort_unstable();
        assert_eq!(rest, (0..n).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!((stats.executed(), stats.rescued), (n, 0));
        assert!(stats.stall() > Duration::ZERO, "idle waits book stall");
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
        assert!(r.pending.is_empty());
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
            let mut pool = TaskPool::new(workers, |_| Box::new(|x: u64| x * 10));
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
    fn pool_worker_state_is_per_thread() {
        // Each worker's task fn counts its own calls; the counts must sum
        // to the submitted total (no task lost or run twice).
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let mut pool = TaskPool::new(3, |_| {
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
            let mut pool = TaskPool::new(workers, |_| {
                Box::new(|x: u64| {
                    assert!(x % 10 != 3, "injected task panic on {x}");
                    x * 2
                })
            });
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
        // (built with index 1 = worker count, which works). More items
        // than the queue holds: whenever the worker dies, some submit is
        // still to come, or is waiting on the full queue, and sees it.
        let mut pool = TaskPool::new(1, |idx| {
            assert!(idx != 0, "injected factory panic for worker 0");
            Box::new(|x: u64| x + 100)
        });
        let n = QUEUE_CAP as u64 + 12;
        let mut results = Vec::new();
        for i in 0..n {
            pool.submit(i);
            results.extend(pool.try_drain());
        }
        let (rest, stats) = pool.finish();
        results.extend(rest);
        assert_eq!(
            stats.restarts,
            u64::from(MAX_RESTARTS),
            "budget fully spent"
        );
        assert_eq!(stats.rescued, n, "every item ran inline");
        assert_eq!(stats.panics, 0);
        let mut got: Vec<u64> = results.iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (100..100 + n).collect::<Vec<u64>>(), "no item lost");
    }

    #[test]
    fn submit_into_a_full_injector_survives_the_death_of_the_last_worker() {
        // Every worker (and every respawn) parks in the factory until the
        // gate opens, then dies without ever taking an item. The gate opens
        // once `QUEUE_CAP` submits have filled the queue, so the next submit
        // finds live workers and a full queue: it must wake when the last
        // of them dies rather than wait forever.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let mut pool = TaskPool::new(2, move |idx| {
            if idx < 2 {
                // Returns (with an error) once the sender is dropped.
                let _ = gate_rx.lock().recv();
                panic!("injected factory panic for worker {idx}");
            }
            Box::new(|x: u64| {
                assert!(x % 10 != 7, "injected task panic on {x}");
                x + 100
            })
        });
        for i in 0..QUEUE_CAP as u64 {
            pool.submit(i);
        }
        drop(gate_tx);
        for i in QUEUE_CAP as u64..100 {
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
        let mut inline = TaskPool::new(0, make);
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
        let mut threaded = TaskPool::new(2, make);
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
    fn pool_telemetry_counters_appear() {
        let reg = Registry::new();
        let mut pool = TaskPool::with_telemetry(2, |_| Box::new(|x: u64| x), &reg, "pool.test");
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
        assert!(snap.counters.contains_key("pool.test.worker1.stall_us"));
        // The depth gauge exists and has drained to zero.
        assert_eq!(snap.gauges["pool.test.queue.depth"], 0);
    }
}
