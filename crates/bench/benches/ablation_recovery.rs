//! Durability ablation: what does write-ahead journaling cost, and how fast
//! is `--resume`?
//!
//! Three questions, all on the same mixed Wi-Fi + Bluetooth workload:
//!
//! 1. **Journaling overhead** — the full rfdump pipeline with no journal vs
//!    `--journal` armed (META + per-record + commit entries, periodic
//!    fsync and checkpoints), interleaved run-for-run. Acceptance budget:
//!    5 % of wall clock by fastest run.
//! 2. **Resume speed** — resuming from a complete journal replays every
//!    record and skips all analysis; the wall-clock ratio vs a fresh run
//!    is the payoff of checkpointed processing.
//! 3. **Identity** — journaled and resumed runs must render record streams
//!    identical to the unjournaled baseline (asserted, not just reported).
//!
//! Writes `BENCH_recovery.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_recovery`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_telemetry::json::JsonValue;
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};
use rfdump::durability::DurabilityConfig;
use std::hint::black_box;
use std::path::Path;
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

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap() {
        let e = e.unwrap();
        std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
    }
}

fn main() {
    let trace = mix_trace(scaled(16), scaled(16), 25.0, 5150);
    let fs = trace.band.sample_rate;
    let cfg = |durability: Option<DurabilityConfig>| ArchConfig {
        kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
        demodulate: true,
        band: trace.band,
        piconets: vec![piconet()],
        noise_floor: Some(trace.noise_power),
        zigbee: false,
        microwave: false,
        telemetry: false,
        workers: 0,
        faults: None,
        governor: None,
        chunk_samples: rfdump::CHUNK_SAMPLES,
        durability,
    };

    let base = std::env::temp_dir().join(format!("rfd-bench-recovery-{}", std::process::id()));
    let live = base.join("live");
    let pristine = base.join("pristine");
    std::fs::create_dir_all(&base).unwrap();

    // Identity reference: the unjournaled record stream.
    let reference: Vec<String> = run_architecture(&cfg(None), &trace.samples, fs)
        .records
        .iter()
        .map(|r| r.format_line())
        .collect();

    // --- Arm 1: journal off vs on (fresh journal every iteration) -------
    let run_plain = || -> f64 {
        let t0 = Instant::now();
        black_box(
            run_architecture(&cfg(None), &trace.samples, fs)
                .records
                .len(),
        );
        t0.elapsed().as_nanos() as f64
    };
    let run_journaled = || -> f64 {
        let _ = std::fs::remove_dir_all(&live);
        std::fs::create_dir_all(&live).unwrap();
        let d = Some(DurabilityConfig {
            dir: live.clone(),
            resume: false,
        });
        let t0 = Instant::now();
        let out = run_architecture(&cfg(d), &trace.samples, fs);
        let ns = t0.elapsed().as_nanos() as f64;
        let lines: Vec<String> = out.records.iter().map(|r| r.format_line()).collect();
        assert_eq!(lines, reference, "journaling changed the record stream");
        ns
    };
    let (off, on) = interleave(scaled(8), run_plain, run_journaled);
    let overhead = on.min_ns / off.min_ns - 1.0;
    let overhead_mean = on.mean_ns() / off.mean_ns() - 1.0;

    // --- Arm 2: resume from a complete journal --------------------------
    // One journaled run to completion, snapshotted; every timed resume
    // starts from the same pristine on-disk state.
    {
        let _ = std::fs::remove_dir_all(&live);
        std::fs::create_dir_all(&live).unwrap();
        let d = Some(DurabilityConfig {
            dir: live.clone(),
            resume: false,
        });
        run_architecture(&cfg(d), &trace.samples, fs);
        copy_dir(&live, &pristine);
    }
    let mut resume = Arm::new();
    let mut recovered = 0u64;
    let mut resume_latency_us = 0u64;
    for _ in 0..scaled(8) {
        copy_dir(&pristine, &live);
        let d = Some(DurabilityConfig {
            dir: live.clone(),
            resume: true,
        });
        let t0 = Instant::now();
        let out = run_architecture(&cfg(d), &trace.samples, fs);
        resume.push(t0.elapsed().as_nanos() as f64);
        let lines: Vec<String> = out.records.iter().map(|r| r.format_line()).collect();
        assert_eq!(lines, reference, "resume changed the record stream");
        let rep = out.recovery.expect("resume must report recovery");
        assert!(rep.resumed);
        recovered = rep.records_recovered;
        resume_latency_us = rep.resume_latency_us;
    }
    let resume_speedup = off.min_ns / resume.min_ns;

    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    print_table(
        "Durability ablation — journaling overhead and resume speed",
        &["arm", "min/run", "mean/run", "iters"],
        &[
            vec![
                "no journal".into(),
                ms(off.min_ns),
                ms(off.mean_ns()),
                off.iters.to_string(),
            ],
            vec![
                "journaled".into(),
                ms(on.min_ns),
                ms(on.mean_ns()),
                on.iters.to_string(),
            ],
            vec![
                "resume (complete journal)".into(),
                ms(resume.min_ns),
                ms(resume.mean_ns()),
                resume.iters.to_string(),
            ],
        ],
    );
    println!(
        "\njournaling overhead: {:+.2}% of wall clock by fastest run \
         ({:+.2}% by mean; budget: 5%)",
        overhead * 100.0,
        overhead_mean * 100.0,
    );
    println!(
        "resume: {recovered} record(s) replayed without re-analysis, \
         {resume_speedup:.2}x faster than a fresh run \
         (journal replay itself: {:.2} ms)",
        resume_latency_us as f64 / 1e3,
    );

    let mut report = BenchReport::new("recovery");
    report.push("journal_off", off.to_json());
    report.push("journal_on", on.to_json());
    report.push("journal_overhead_fraction", JsonValue::num(overhead));
    report.push(
        "journal_overhead_fraction_by_mean",
        JsonValue::num(overhead_mean),
    );
    report.push("resume", resume.to_json());
    report.push("resume_speedup", JsonValue::num(resume_speedup));
    report.push("resume_records_recovered", JsonValue::num(recovered as f64));
    report.push(
        "resume_latency_us",
        JsonValue::num(resume_latency_us as f64),
    );
    report.push("budget_fraction", JsonValue::num(0.05));
    report.push("within_budget", JsonValue::Bool(overhead <= 0.05));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }

    let _ = std::fs::remove_dir_all(&base);
}
