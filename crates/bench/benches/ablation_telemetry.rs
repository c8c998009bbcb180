//! Telemetry-overhead ablation: the full RFDump pipeline run with the
//! metrics registry off vs on, over a moderately busy mixed trace.
//!
//! The telemetry hot path is a handful of relaxed atomic adds per *peak*
//! (not per sample) plus pre-created registry handles, so the wall-clock
//! overhead must stay within a few percent — the acceptance budget is 5 %.
//! Because that true cost is far below scheduler/thermal noise, the two
//! arms are interleaved run-for-run and compared by their *fastest*
//! iteration (the standard robust estimator for a deterministic workload;
//! means are also reported). Writes `BENCH_telemetry_overhead.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_telemetry`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_telemetry::json::JsonValue;
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};
use std::hint::black_box;
use std::time::Instant;

struct Arm {
    min_ns: f64,
    total_ns: f64,
    iters: u64,
}

impl Arm {
    fn new() -> Self {
        Arm {
            min_ns: f64::INFINITY,
            total_ns: 0.0,
            iters: 0,
        }
    }
    fn push(&mut self, ns: f64) {
        self.min_ns = self.min_ns.min(ns);
        self.total_ns += ns;
        self.iters += 1;
    }
    fn mean_ns(&self) -> f64 {
        self.total_ns / self.iters as f64
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("iters", JsonValue::num(self.iters as f64)),
            ("mean_ns", JsonValue::num(self.mean_ns())),
            ("min_ns", JsonValue::num(self.min_ns)),
        ])
    }
}

fn main() {
    let trace = mix_trace(scaled(12), scaled(10), 25.0, 77);
    let cfg = |telemetry: bool| ArchConfig {
        kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
        demodulate: true,
        band: trace.band,
        piconets: vec![piconet()],
        noise_floor: Some(trace.noise_power),
        zigbee: false,
        microwave: false,
        telemetry,
        workers: 0,
        faults: None,
        governor: None,
        chunk_samples: rfdump::CHUNK_SAMPLES,
        durability: None,
    };
    let fs = trace.band.sample_rate;
    let one = |telemetry: bool| -> f64 {
        let t0 = Instant::now();
        black_box(
            run_architecture(&cfg(telemetry), &trace.samples, fs)
                .records
                .len(),
        );
        t0.elapsed().as_nanos() as f64
    };

    // Warm-up both arms, then interleave — alternating which arm goes
    // first each round — so drift and periodic machine noise hit both
    // arms equally.
    one(false);
    one(true);
    let rounds = scaled(20);
    let mut off = Arm::new();
    let mut on = Arm::new();
    for round in 0..rounds {
        if round % 2 == 0 {
            off.push(one(false));
            on.push(one(true));
        } else {
            on.push(one(true));
            off.push(one(false));
        }
    }
    let overhead = on.min_ns / off.min_ns - 1.0;
    let overhead_mean = on.mean_ns() / off.mean_ns() - 1.0;

    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    print_table(
        "Telemetry ablation — full rfdump pipeline, telemetry off vs on",
        &["arm", "min/run", "mean/run", "iters"],
        &[
            vec![
                "telemetry off".into(),
                ms(off.min_ns),
                ms(off.mean_ns()),
                off.iters.to_string(),
            ],
            vec![
                "telemetry on".into(),
                ms(on.min_ns),
                ms(on.mean_ns()),
                on.iters.to_string(),
            ],
        ],
    );
    println!(
        "\ntelemetry overhead: {:+.2}% of wall clock by fastest run \
         ({:+.2}% by mean; budget: 5%)",
        overhead * 100.0,
        overhead_mean * 100.0,
    );

    let mut report = BenchReport::new("telemetry_overhead");
    report.push("telemetry_off", off.to_json());
    report.push("telemetry_on", on.to_json());
    report.push("overhead_fraction", JsonValue::num(overhead));
    report.push("overhead_fraction_by_mean", JsonValue::num(overhead_mean));
    report.push("budget_fraction", JsonValue::num(0.05));
    report.push("within_budget", JsonValue::Bool(overhead <= 0.05));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }
}
