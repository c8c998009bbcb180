//! Fault-machinery ablation: what do always-armed fault hooks cost?
//!
//! The full rfdump pipeline with no [`FaultPlan`] vs an armed plan whose
//! single rule matches no site, so every injection site pays the
//! `decide()` lookup but nothing ever fires. The two arms are interleaved
//! run-for-run and judged by the fastest iteration (the robust estimator
//! for a deterministic workload). Acceptance budget: 3 % of wall clock.
//!
//! Writes `BENCH_fault.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_fault`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_fault::FaultPlan;
use rfd_telemetry::json::JsonValue;
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};
use std::hint::black_box;
use std::sync::Arc;
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

/// Interleaves two closures for `rounds` rounds, alternating which goes
/// first, and returns their timing arms.
fn interleave(rounds: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (Arm, Arm) {
    a();
    b();
    let mut arm_a = Arm::new();
    let mut arm_b = Arm::new();
    for round in 0..rounds {
        if round % 2 == 0 {
            arm_a.push(a());
            arm_b.push(b());
        } else {
            arm_b.push(b());
            arm_a.push(a());
        }
    }
    (arm_a, arm_b)
}

fn main() {
    // Pipeline fault hooks off/on (armed plan, no rule ever fires).
    let trace = mix_trace(scaled(8), scaled(8), 25.0, 4097);
    let fs = trace.band.sample_rate;
    let cfg = |faults: Option<Arc<FaultPlan>>| ArchConfig {
        kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
        demodulate: true,
        band: trace.band,
        piconets: vec![piconet()],
        noise_floor: Some(trace.noise_power),
        zigbee: false,
        microwave: false,
        telemetry: false,
        workers: 0,
        faults,
        governor: None,
        chunk_samples: rfdump::CHUNK_SAMPLES,
        durability: None,
    };
    let inert = Arc::new(FaultPlan::parse("seed=1;slow=no-such-site#1/1us").unwrap());
    let pipeline_run = |faults: Option<Arc<FaultPlan>>| -> f64 {
        let t0 = Instant::now();
        black_box(
            run_architecture(&cfg(faults), &trace.samples, fs)
                .records
                .len(),
        );
        t0.elapsed().as_nanos() as f64
    };
    let (hooks_off, hooks_on) = interleave(
        scaled(12),
        || pipeline_run(None),
        || pipeline_run(Some(inert.clone())),
    );
    let hook_overhead = hooks_on.min_ns / hooks_off.min_ns - 1.0;

    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    print_table(
        "Fault-machinery ablation",
        &["arm", "min/run", "mean/run", "iters"],
        &[
            vec![
                "pipeline, no plan".into(),
                ms(hooks_off.min_ns),
                ms(hooks_off.mean_ns()),
                hooks_off.iters.to_string(),
            ],
            vec![
                "pipeline, inert plan".into(),
                ms(hooks_on.min_ns),
                ms(hooks_on.mean_ns()),
                hooks_on.iters.to_string(),
            ],
        ],
    );
    println!(
        "\nfault-hook overhead: {:+.2}% of wall clock by fastest run (budget: 3%)",
        hook_overhead * 100.0,
    );

    let mut report = BenchReport::new("fault");
    report.push("hooks_off", hooks_off.to_json());
    report.push("hooks_on", hooks_on.to_json());
    report.push("hook_overhead_fraction", JsonValue::num(hook_overhead));
    report.push("budget_fraction", JsonValue::num(0.03));
    report.push("within_budget", JsonValue::Bool(hook_overhead <= 0.03));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }
}
