//! Real-time-ratio monitoring.
//!
//! The paper's headline efficiency metric is "CPU time / real time" per
//! stage (Table 1, Fig. 9), where *real time* is the span of signal
//! processed — `samples / sample_rate` — not wall clock. [`RtMonitor`]
//! accumulates (cpu, samples) pairs per named stage and derives the ratio,
//! so every stage of the pipeline reports against the same denominator.

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug, Default, Clone, Copy)]
struct StageAcc {
    cpu: Duration,
    samples: u64,
}

/// Accumulated real-time ratio for one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtStage {
    /// CPU seconds spent in the stage.
    pub cpu_s: f64,
    /// Complex samples the stage processed.
    pub samples: u64,
    /// Signal seconds those samples span (`samples / sample_rate`).
    pub signal_s: f64,
    /// CPU time over real time; < 1.0 means faster than the ether.
    pub ratio: f64,
}

/// Per-stage CPU-over-real-time accumulator.
#[derive(Debug)]
pub struct RtMonitor {
    sample_rate: f64,
    stages: Mutex<BTreeMap<String, StageAcc>>,
}

impl RtMonitor {
    /// Creates a monitor for a stream at `sample_rate` Hz.
    pub fn new(sample_rate: f64) -> Self {
        Self {
            sample_rate: sample_rate.max(1.0),
            stages: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `cpu` time spent processing `samples` samples to `stage`.
    pub fn record(&self, stage: &str, cpu: Duration, samples: u64) {
        let mut map = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        let acc = map.entry(stage.to_string()).or_default();
        acc.cpu += cpu;
        acc.samples += samples;
    }

    /// All stages, name-ordered.
    pub fn snapshot(&self) -> BTreeMap<String, RtStage> {
        self.stages
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, acc)| (k.clone(), self.derive(*acc)))
            .collect()
    }

    /// JSON object: one field per stage.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::Obj(Vec::new());
        for (name, s) in self.snapshot() {
            obj.push(
                &name,
                JsonValue::obj(vec![
                    ("cpu_s", JsonValue::num(s.cpu_s)),
                    ("samples", JsonValue::num(s.samples as f64)),
                    ("signal_s", JsonValue::num(s.signal_s)),
                    ("cpu_over_realtime", JsonValue::num(s.ratio)),
                ]),
            );
        }
        obj
    }

    fn derive(&self, acc: StageAcc) -> RtStage {
        let signal_s = acc.samples as f64 / self.sample_rate;
        let cpu_s = acc.cpu.as_secs_f64();
        RtStage {
            cpu_s,
            samples: acc.samples,
            signal_s,
            ratio: if signal_s > 0.0 {
                cpu_s / signal_s
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_cpu_over_signal_time() {
        let m = RtMonitor::new(8e6);
        // 1 M samples at 8 Msps = 125 ms of signal; 25 ms CPU => 0.2x.
        m.record("detect", Duration::from_millis(25), 1_000_000);
        let s = &m.snapshot()["detect"];
        assert!((s.signal_s - 0.125).abs() < 1e-9);
        assert!((s.ratio - 0.2).abs() < 1e-6, "ratio {}", s.ratio);
    }

    #[test]
    fn records_accumulate_per_stage() {
        let m = RtMonitor::new(1e6);
        m.record("a", Duration::from_millis(1), 500);
        m.record("a", Duration::from_millis(1), 500);
        m.record("b", Duration::from_millis(5), 1000);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap["a"].samples, 1000);
        assert!((snap["a"].cpu_s - 0.002).abs() < 1e-9);
    }

    #[test]
    fn empty_stage_reports_zero_ratio() {
        let m = RtMonitor::new(8e6);
        m.record("idle", Duration::from_millis(1), 0);
        let snap = m.snapshot();
        assert_eq!(snap["idle"].ratio, 0.0);
        assert!(!snap.contains_key("nope"));
    }

    #[test]
    fn json_snapshot_parses() {
        let m = RtMonitor::new(8e6);
        m.record("x", Duration::from_micros(10), 200);
        let doc = crate::json::parse(&m.to_json().to_json()).unwrap();
        assert!(doc.get("x").unwrap().get("cpu_over_realtime").is_some());
    }
}
