//! # rfd-flowgraph — per-stage CPU accounting and the analysis task pool
//!
//! The RFDump prototype is built on GNU Radio, whose scheduler times every
//! block it runs. The reproduction needs no block scheduler: each
//! architecture is a plain loop over its stages. What it keeps of that
//! substrate is here:
//!
//! * [`RunStats`] — per-stage CPU time and item counts, the basis of every
//!   "CPU time / real time" number in the evaluation.
//!   [`RunStats::publish`] is the one place the rows become
//!   `flowgraph.block.<name>.*` telemetry counters.
//! * [`pool`] — a one-queue task pool with a deterministic merge: where
//!   the "inherent parallelism" the paper points out but could not use is
//!   exploited. The architecture layer fans per-protocol demodulation out
//!   across its worker threads (or runs it inline, with zero workers) and
//!   the output is byte-identical either way.
//! * [`sync`] — the poison-ignoring `Mutex` the workspace locks with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::time::Duration;

pub mod sync {
    //! Poison-ignoring lock wrappers over `std::sync`.
    //!
    //! A panicking analyzer is caught by the analysis pool's supervisor
    //! (which holds no lock while the task runs), and any other panic ends
    //! the run, so lock poisoning carries no extra information here —
    //! these wrappers expose the ergonomic guard-returning API the rest of
    //! the workspace uses.

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
    }
}

/// One stage's statistics from a run.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// Stage name.
    pub name: String,
    /// CPU time spent in the stage.
    pub cpu: Duration,
    /// Items consumed.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
}

/// Statistics from one architecture run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-stage stats in pipeline order.
    pub blocks: Vec<BlockStats>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl RunStats {
    /// Total CPU time across blocks.
    pub fn total_cpu(&self) -> Duration {
        self.blocks.iter().map(|b| b.cpu).sum()
    }

    /// Adds every row to the registry's
    /// `flowgraph.block.<name>.{cpu_us,items_in,items_out}` counters and
    /// counts one more `flowgraph.runs`.
    pub fn publish(&self, registry: &rfd_telemetry::Registry) {
        for b in &self.blocks {
            let counter =
                |what: &str| registry.counter(&format!("flowgraph.block.{}.{what}", b.name));
            counter("cpu_us").add(b.cpu.as_micros() as u64);
            counter("items_in").add(b.items_in);
            counter("items_out").add(b.items_out);
        }
        registry.counter("flowgraph.runs").inc();
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

pub mod pool;

#[cfg(test)]
mod tests {
    use super::*;

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
    fn telemetry_publishes_block_metrics() {
        let reg = rfd_telemetry::Registry::new();
        let row = |name: &str, cpu_ms, items_in, items_out| BlockStats {
            name: name.into(),
            cpu: Duration::from_millis(cpu_ms),
            items_in,
            items_out,
        };
        let stats = RunStats {
            blocks: vec![row("src", 2, 0, 500), row("sink", 3, 500, 0)],
            wall: Duration::from_millis(10),
        };
        stats.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["flowgraph.block.src.items_out"], 500);
        assert_eq!(snap.counters["flowgraph.block.sink.items_in"], 500);
        assert_eq!(snap.counters["flowgraph.block.sink.cpu_us"], 3000);
        assert_eq!(snap.counters["flowgraph.runs"], 1);
    }
}
