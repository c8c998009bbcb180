//! # rfd-flowgraph — a GNU Radio-style dataflow runtime
//!
//! The RFDump prototype is built on GNU Radio: signal-processing blocks
//! connected into a DAG, driven by a scheduler. This crate is that substrate
//! in Rust:
//!
//! * [`Block`] — a processing node with N input and M output ports moving
//!   boxed payloads (any `Send` type; blocks downcast what they expect).
//! * [`Flowgraph`] — builds the DAG and runs it to completion over a finite
//!   stream (the paper's trace-driven methodology) on one scheduler: a
//!   single-threaded sweep matching the paper's constraint ("GNU Radio
//!   does not support multi-threading, so the measurements use a single
//!   core").
//! * [`RunStats`] — per-block CPU time and item counts, the basis of every
//!   "CPU time / real time" number in the evaluation.
//! * [`pool`] — a work-stealing task pool with a deterministic merge: where
//!   the "inherent parallelism" the paper points out but could not use is
//!   exploited. The architecture layer fans per-protocol demodulation out
//!   across its worker threads (or runs it inline, with zero workers) and
//!   the output is byte-identical either way.
//!
//! Attach an [`rfd_telemetry::Registry`] with [`Flowgraph::set_telemetry`]
//! and the scheduler publishes per-block CPU/item metrics.
//!
//! Payload granularity is up to the application; RFDump moves ~25 µs sample
//! chunks, so scheduler overhead per payload is negligible compared to the
//! DSP inside blocks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod sync {
    //! Poison-ignoring lock wrappers over `std::sync`.
    //!
    //! The flowgraph treats a panicking block as fatal to the run (the
    //! scheduler thread propagates it), so lock poisoning carries no extra
    //! information here — these wrappers expose the ergonomic
    //! guard-returning API the rest of the workspace uses.

    /// A mutex whose `lock` never returns a poison error.
    #[derive(Debug, Default)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub fn new(value: T) -> Self {
            Self(std::sync::Mutex::new(value))
        }

        /// Locks, recovering the data if a previous holder panicked.
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }
}

/// A unit of data moving along an edge.
pub type Payload = Box<dyn Any + Send>;

/// What a block reports after a `work` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkStatus {
    /// May produce more output when called again (sources: more to emit;
    /// others: call me again when input arrives).
    Again,
    /// This block will never produce more output on its own (sources:
    /// exhausted; others treat this as "pass").
    Done,
}

/// A processing block.
///
/// Implementations pull from `inputs` (one queue per input port) and push to
/// `outputs` (one vec per output port). A block should consume everything
/// available when called; the scheduler calls it again when new input
/// arrives. `finish` is called exactly once, after all upstream blocks have
/// finished and all queues have drained — flush any internal state there.
pub trait Block: Send {
    /// Display name (used in stats).
    fn name(&self) -> &str;

    /// Number of input ports.
    fn num_inputs(&self) -> usize {
        1
    }

    /// Number of output ports.
    fn num_outputs(&self) -> usize {
        1
    }

    /// Process available input (or, for sources, produce output).
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus;

    /// Flush at end of stream.
    fn finish(&mut self, _outputs: &mut [Vec<Payload>]) {}
}

/// Handle to a block added to a [`Flowgraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

/// Per-block statistics from a run.
#[derive(Debug, Clone)]
pub struct BlockStats {
    /// Block name.
    pub name: String,
    /// CPU time spent inside `work`/`finish`.
    pub cpu: Duration,
    /// Payloads consumed (all ports).
    pub items_in: u64,
    /// Payloads produced (all ports).
    pub items_out: u64,
}

/// Statistics from running a flowgraph.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-block stats in insertion order.
    pub blocks: Vec<BlockStats>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl RunStats {
    /// Total CPU time across blocks.
    pub fn total_cpu(&self) -> Duration {
        self.blocks.iter().map(|b| b.cpu).sum()
    }

    /// CPU time of blocks whose name contains `pat`.
    pub fn cpu_matching(&self, pat: &str) -> Duration {
        self.blocks
            .iter()
            .filter(|b| b.name.contains(pat))
            .map(|b| b.cpu)
            .sum()
    }

    /// Formats a table of per-block CPU time, item counts and the
    /// CPU-over-wall-clock ratio, followed by a total row and the
    /// wall-clock duration of the run. The name column widens to fit the
    /// longest block name, so long names stay aligned.
    pub fn table(&self) -> String {
        let wall_s = self.wall.as_secs_f64();
        let width = self
            .blocks
            .iter()
            .map(|b| b.name.len())
            .chain(["block".len(), "total".len()])
            .max()
            .unwrap_or(5)
            .max(5);
        let ratio = |cpu: Duration| {
            if wall_s > 0.0 {
                cpu.as_secs_f64() / wall_s
            } else {
                0.0
            }
        };
        let mut s = format!(
            "{:<width$}   {:>8} {:>9} {:>9} {:>8}\n",
            "block", "cpu_ms", "in", "out", "cpu/rt"
        );
        let mut in_total = 0u64;
        let mut out_total = 0u64;
        for b in &self.blocks {
            in_total += b.items_in;
            out_total += b.items_out;
            s.push_str(&format!(
                "{:<width$} {:>10.2} {:>9} {:>9} {:>8.3}\n",
                b.name,
                b.cpu.as_secs_f64() * 1e3,
                b.items_in,
                b.items_out,
                ratio(b.cpu),
            ));
        }
        let total = self.total_cpu();
        s.push_str(&format!(
            "{:<width$} {:>10.2} {:>9} {:>9} {:>8.3}\n",
            "total",
            total.as_secs_f64() * 1e3,
            in_total,
            out_total,
            ratio(total),
        ));
        s.push_str(&format!("{:<width$} {:>10.2}\n", "wall", wall_s * 1e3));
        s
    }
}

struct Edge {
    src: usize,
    src_port: usize,
    dst: usize,
    dst_port: usize,
}

struct Node {
    block: Box<dyn Block>,
    done: bool,
    cpu: Duration,
    items_in: u64,
    items_out: u64,
}

/// A dataflow graph.
pub struct Flowgraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    telemetry: Option<Arc<rfd_telemetry::Registry>>,
}

impl Default for Flowgraph {
    fn default() -> Self {
        Self::new()
    }
}

impl Flowgraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            telemetry: None,
        }
    }

    /// Attaches a metrics registry. After each run the scheduler publishes
    /// `flowgraph.block.<name>.{cpu_us,items_in,items_out}` counters.
    pub fn set_telemetry(&mut self, registry: Arc<rfd_telemetry::Registry>) {
        self.telemetry = Some(registry);
    }

    /// Adds a block.
    pub fn add(&mut self, block: Box<dyn Block>) -> BlockId {
        self.nodes.push(Node {
            block,
            done: false,
            cpu: Duration::ZERO,
            items_in: 0,
            items_out: 0,
        });
        BlockId(self.nodes.len() - 1)
    }

    /// Connects `src`'s output port to `dst`'s input port.
    ///
    /// # Panics
    /// Panics on port indices out of range or if the edge would create a
    /// cycle.
    pub fn connect(&mut self, src: BlockId, src_port: usize, dst: BlockId, dst_port: usize) {
        assert!(
            src_port < self.nodes[src.0].block.num_outputs(),
            "src port out of range"
        );
        assert!(
            dst_port < self.nodes[dst.0].block.num_inputs(),
            "dst port out of range"
        );
        self.edges.push(Edge {
            src: src.0,
            src_port,
            dst: dst.0,
            dst_port,
        });
        assert!(self.topo_order().is_some(), "connection creates a cycle");
    }

    /// Topological order of node indices; `None` if cyclic.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            order.push(i);
            for e in self.edges.iter().filter(|e| e.src == i) {
                indeg[e.dst] -= 1;
                if indeg[e.dst] == 0 {
                    stack.push(e.dst);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Publishes per-block run stats into the attached registry, if any.
    fn publish(&self, stats: &RunStats) {
        let Some(reg) = &self.telemetry else { return };
        for b in &stats.blocks {
            reg.counter(&format!("flowgraph.block.{}.cpu_us", b.name))
                .add(b.cpu.as_micros() as u64);
            reg.counter(&format!("flowgraph.block.{}.items_in", b.name))
                .add(b.items_in);
            reg.counter(&format!("flowgraph.block.{}.items_out", b.name))
                .add(b.items_out);
        }
        reg.counter("flowgraph.runs").inc();
    }

    /// Runs the graph to completion on the current thread (the paper's
    /// single-core GNU Radio setting). Returns per-block stats.
    pub fn run(&mut self) -> RunStats {
        let wall_start = Instant::now();
        let order = self.topo_order().expect("graph must be acyclic");
        let n = self.nodes.len();
        // Input queues per (node, port).
        let mut inboxes: Vec<Vec<VecDeque<Payload>>> = (0..n)
            .map(|i| {
                (0..self.nodes[i].block.num_inputs())
                    .map(|_| VecDeque::new())
                    .collect()
            })
            .collect();
        let mut outputs_scratch: Vec<Vec<Payload>> = Vec::new();

        // Main loop: sweep blocks in topo order until quiescent.
        loop {
            let mut progressed = false;
            for &i in &order {
                let is_source = self.nodes[i].block.num_inputs() == 0;
                let has_input = inboxes[i].iter().any(|q| !q.is_empty());
                if self.nodes[i].done && is_source {
                    continue;
                }
                if !is_source && !has_input {
                    continue;
                }
                let nin: u64 = inboxes[i].iter().map(|q| q.len() as u64).sum();
                outputs_scratch.clear();
                outputs_scratch.resize_with(self.nodes[i].block.num_outputs(), Vec::new);
                let t0 = Instant::now();
                let status = self.nodes[i]
                    .block
                    .work(&mut inboxes[i], &mut outputs_scratch);
                self.nodes[i].cpu += t0.elapsed();
                let consumed: u64 = nin - inboxes[i].iter().map(|q| q.len() as u64).sum::<u64>();
                self.nodes[i].items_in += consumed;
                let produced: u64 = outputs_scratch.iter().map(|v| v.len() as u64).sum();
                self.nodes[i].items_out += produced;
                if consumed > 0 || produced > 0 {
                    progressed = true;
                }
                if status == WorkStatus::Done {
                    self.nodes[i].done = true;
                } else if is_source {
                    progressed = true; // source promises more
                }
                route(&self.edges, i, &mut outputs_scratch, &mut inboxes);
            }
            let sources_done =
                (0..n).all(|i| self.nodes[i].block.num_inputs() != 0 || self.nodes[i].done);
            let queues_empty = inboxes
                .iter()
                .all(|ports| ports.iter().all(|q| q.is_empty()));
            if sources_done && queues_empty && !progressed {
                break;
            }
            if !progressed && !queues_empty {
                // Blocks with input made no progress; avoid livelock by
                // stopping (misbehaving block).
                break;
            }
        }

        // Finish pass in topo order, routing flushed output downstream (and
        // letting downstream blocks work on it before their own finish).
        for &i in &order {
            outputs_scratch.clear();
            outputs_scratch.resize_with(self.nodes[i].block.num_outputs(), Vec::new);
            let t0 = Instant::now();
            self.nodes[i].block.finish(&mut outputs_scratch);
            self.nodes[i].cpu += t0.elapsed();
            let produced: u64 = outputs_scratch.iter().map(|v| v.len() as u64).sum();
            self.nodes[i].items_out += produced;
            route(&self.edges, i, &mut outputs_scratch, &mut inboxes);
            // Drain everything reachable downstream of this finish.
            for &j in &order {
                let has_input = inboxes[j].iter().any(|q| !q.is_empty());
                if !has_input {
                    continue;
                }
                let nin: u64 = inboxes[j].iter().map(|q| q.len() as u64).sum();
                let mut outs: Vec<Vec<Payload>> = Vec::new();
                outs.resize_with(self.nodes[j].block.num_outputs(), Vec::new);
                let t0 = Instant::now();
                let _ = self.nodes[j].block.work(&mut inboxes[j], &mut outs);
                self.nodes[j].cpu += t0.elapsed();
                let consumed: u64 = nin - inboxes[j].iter().map(|q| q.len() as u64).sum::<u64>();
                self.nodes[j].items_in += consumed;
                let produced: u64 = outs.iter().map(|v| v.len() as u64).sum();
                self.nodes[j].items_out += produced;
                route(&self.edges, j, &mut outs, &mut inboxes);
            }
        }

        let stats = RunStats {
            blocks: self
                .nodes
                .iter()
                .map(|nd| BlockStats {
                    name: nd.block.name().to_string(),
                    cpu: nd.cpu,
                    items_in: nd.items_in,
                    items_out: nd.items_out,
                })
                .collect(),
            wall: wall_start.elapsed(),
        };
        self.publish(&stats);
        stats
    }
}

/// Routes a block's produced payloads to its successors' inboxes.
fn route(
    edges: &[Edge],
    src: usize,
    outputs: &mut [Vec<Payload>],
    inboxes: &mut [Vec<VecDeque<Payload>>],
) {
    for (port, payloads) in outputs.iter_mut().enumerate() {
        for pl in payloads.drain(..) {
            // Single consumer per output port (fan-out requires an explicit
            // tee block, keeping payload ownership simple).
            if let Some(e) = edges.iter().find(|e| e.src == src && e.src_port == port) {
                inboxes[e.dst][e.dst_port].push_back(pl);
            }
        }
    }
}

pub mod blocks;
pub mod pool;

#[cfg(test)]
mod tests {
    use super::blocks::{FnBlock, VecSink, VecSource};
    use super::*;
    use std::sync::Arc;

    fn build_double_graph(n: usize) -> (Flowgraph, Arc<sync::Mutex<Vec<i64>>>) {
        let mut fg = Flowgraph::new();
        let src = fg.add(Box::new(VecSource::new(
            "src",
            (0..n as i64).collect::<Vec<i64>>(),
            16,
        )));
        let dbl = fg.add(Box::new(FnBlock::new("double", |x: i64| Some(x * 2))));
        let sink = Box::new(VecSink::<i64>::new("sink"));
        let out = sink.storage();
        let sk = fg.add(sink);
        fg.connect(src, 0, dbl, 0);
        fg.connect(dbl, 0, sk, 0);
        (fg, out)
    }

    #[test]
    fn single_threaded_pipeline_processes_everything_in_order() {
        let (mut fg, out) = build_double_graph(1000);
        let stats = fg.run();
        let v = out.lock();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as i64 * 2));
        assert_eq!(stats.blocks.len(), 3);
        assert_eq!(stats.blocks[0].items_out, 1000);
        assert_eq!(stats.blocks[2].items_in, 1000);
    }

    #[test]
    #[should_panic]
    fn cycles_are_rejected() {
        let mut fg = Flowgraph::new();
        let a = fg.add(Box::new(FnBlock::new("a", |x: i64| Some(x))));
        let b = fg.add(Box::new(FnBlock::new("b", |x: i64| Some(x))));
        fg.connect(a, 0, b, 0);
        fg.connect(b, 0, a, 0);
    }

    #[test]
    fn filter_blocks_can_drop_items() {
        let mut fg = Flowgraph::new();
        let src = fg.add(Box::new(VecSource::new(
            "src",
            (0..100i64).collect::<Vec<_>>(),
            7,
        )));
        let odd = fg.add(Box::new(FnBlock::new("odd", |x: i64| {
            (x % 2 == 1).then_some(x)
        })));
        let sink = Box::new(VecSink::<i64>::new("sink"));
        let out = sink.storage();
        let sk = fg.add(sink);
        fg.connect(src, 0, odd, 0);
        fg.connect(odd, 0, sk, 0);
        fg.run();
        assert_eq!(out.lock().len(), 50);
    }

    #[test]
    fn stats_capture_cpu_time() {
        let mut fg = Flowgraph::new();
        let src = fg.add(Box::new(VecSource::new(
            "src",
            (0..50i64).collect::<Vec<_>>(),
            5,
        )));
        let burn = fg.add(Box::new(FnBlock::new("burn", |x: i64| {
            // A deliberately slow op.
            let mut acc = x;
            for i in 0..50_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            Some(acc)
        })));
        let sink = Box::new(VecSink::<i64>::new("sink"));
        let sk = fg.add(sink);
        fg.connect(src, 0, burn, 0);
        fg.connect(burn, 0, sk, 0);
        let stats = fg.run();
        let burn_cpu = stats.cpu_matching("burn");
        let src_cpu = stats.cpu_matching("src");
        assert!(burn_cpu > src_cpu, "burn {burn_cpu:?} vs src {src_cpu:?}");
        assert!(stats.total_cpu() >= burn_cpu);
        assert!(!stats.table().is_empty());
    }

    #[test]
    fn table_aligns_long_names_and_reports_wall_and_ratio() {
        let stats = RunStats {
            blocks: vec![
                BlockStats {
                    name: "a-block-with-a-name-well-past-thirty-five-chars".into(),
                    cpu: Duration::from_millis(30),
                    items_in: 10,
                    items_out: 10,
                },
                BlockStats {
                    name: "tiny".into(),
                    cpu: Duration::from_millis(10),
                    items_in: 10,
                    items_out: 5,
                },
            ],
            wall: Duration::from_millis(100),
        };
        let t = stats.table();
        let lines: Vec<&str> = t.lines().collect();
        // Header + 2 blocks + total + wall.
        assert_eq!(lines.len(), 5);
        // Every row pads the name column to the longest name, so the
        // numeric columns start at the same offset on every line.
        let name_w = "a-block-with-a-name-well-past-thirty-five-chars".len();
        for line in &lines {
            assert!(
                line.len() > name_w,
                "row shorter than name column: {line:?}"
            );
        }
        assert!(lines[3].starts_with("total"));
        assert!(lines[4].starts_with("wall"));
        // total cpu = 40 ms over 100 ms wall => ratio 0.400.
        assert!(lines[3].contains("0.400"), "total row: {}", lines[3]);
        assert!(lines[4].contains("100.00"), "wall row: {}", lines[4]);
        assert!(lines[0].contains("cpu/rt"));
    }

    #[test]
    fn finish_flushes_buffered_state() {
        // A block that buffers everything and only emits at finish.
        struct Hoarder {
            buf: Vec<i64>,
        }
        impl Block for Hoarder {
            fn name(&self) -> &str {
                "hoarder"
            }
            fn work(
                &mut self,
                inputs: &mut [VecDeque<Payload>],
                _outputs: &mut [Vec<Payload>],
            ) -> WorkStatus {
                while let Some(p) = inputs[0].pop_front() {
                    self.buf.push(*p.downcast::<i64>().unwrap());
                }
                WorkStatus::Again
            }
            fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
                let sum: i64 = self.buf.iter().sum();
                outputs[0].push(Box::new(sum));
            }
        }
        let mut fg = Flowgraph::new();
        let src = fg.add(Box::new(VecSource::new(
            "src",
            (1..=10i64).collect::<Vec<_>>(),
            3,
        )));
        let h = fg.add(Box::new(Hoarder { buf: Vec::new() }));
        let sink = Box::new(VecSink::<i64>::new("sink"));
        let out = sink.storage();
        let sk = fg.add(sink);
        fg.connect(src, 0, h, 0);
        fg.connect(h, 0, sk, 0);
        fg.run();
        assert_eq!(*out.lock(), vec![55]);
    }

    #[test]
    fn telemetry_publishes_block_metrics() {
        let reg = Arc::new(rfd_telemetry::Registry::new());
        let (mut fg, _out) = build_double_graph(500);
        fg.set_telemetry(reg.clone());
        fg.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["flowgraph.block.src.items_out"], 500);
        assert_eq!(snap.counters["flowgraph.block.sink.items_in"], 500);
        assert_eq!(snap.counters["flowgraph.runs"], 1);
    }
}
