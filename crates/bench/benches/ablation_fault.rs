//! Fault-machinery ablation: what does always-on supervision cost?
//!
//! Two comparisons, both interleaved run-for-run and judged by the fastest
//! iteration (the robust estimator for a deterministic workload):
//!
//! 1. **Pool supervision** — the work-stealing [`TaskPool`] run with
//!    `supervise: false` (fail-fast, no `catch_unwind`) vs `supervise:
//!    true` (per-task `catch_unwind`, panic bookkeeping, respawn/rescue
//!    machinery armed) over a CPU-bound task stream. Acceptance budget:
//!    3 % of wall clock.
//! 2. **Fault hooks** — the full rfdump pipeline with no [`FaultPlan`] vs
//!    an armed plan whose single rule matches no site, so every injection
//!    site pays the `decide()` lookup but nothing ever fires.
//!
//! Writes `BENCH_fault.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_fault`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_fault::FaultPlan;
use rfd_flowgraph::pool::{PoolConfig, TaskPool};
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

fn pool_run(supervise: bool, tasks: u64) -> f64 {
    let t0 = Instant::now();
    let mut pool = TaskPool::new(
        PoolConfig {
            workers: 4,
            supervise,
            ..Default::default()
        },
        |_| {
            Box::new(|x: u64| {
                // ~µs-scale CPU-bound task, the analysis-pool regime.
                let mut acc = x;
                for i in 0..400u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                acc
            })
        },
    );
    for i in 0..tasks {
        pool.submit(i);
    }
    let (results, _) = pool.finish();
    black_box(results.len());
    t0.elapsed().as_nanos() as f64
}

fn main() {
    // Arm 1: pool supervision on/off.
    let tasks = scaled(4000) as u64;
    let rounds = scaled(16);
    let (unsup, sup) = interleave(rounds, || pool_run(false, tasks), || pool_run(true, tasks));
    let pool_overhead = sup.min_ns / unsup.min_ns - 1.0;
    let pool_overhead_mean = sup.mean_ns() / unsup.mean_ns() - 1.0;

    // Arm 2: pipeline fault hooks off/on (armed plan, no rule ever fires).
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
                "pool unsupervised".into(),
                ms(unsup.min_ns),
                ms(unsup.mean_ns()),
                unsup.iters.to_string(),
            ],
            vec![
                "pool supervised".into(),
                ms(sup.min_ns),
                ms(sup.mean_ns()),
                sup.iters.to_string(),
            ],
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
        "\nsupervision overhead: {:+.2}% of wall clock by fastest run \
         ({:+.2}% by mean; budget: 3%)",
        pool_overhead * 100.0,
        pool_overhead_mean * 100.0,
    );
    println!(
        "fault-hook overhead:  {:+.2}% of wall clock by fastest run",
        hook_overhead * 100.0,
    );

    let mut report = BenchReport::new("fault");
    report.push("pool_unsupervised", unsup.to_json());
    report.push("pool_supervised", sup.to_json());
    report.push(
        "supervision_overhead_fraction",
        JsonValue::num(pool_overhead),
    );
    report.push(
        "supervision_overhead_fraction_by_mean",
        JsonValue::num(pool_overhead_mean),
    );
    report.push("hooks_off", hooks_off.to_json());
    report.push("hooks_on", hooks_on.to_json());
    report.push("hook_overhead_fraction", JsonValue::num(hook_overhead));
    report.push("budget_fraction", JsonValue::num(0.03));
    report.push("within_budget", JsonValue::Bool(pool_overhead <= 0.03));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }
}
