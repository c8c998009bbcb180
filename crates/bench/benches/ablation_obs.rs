//! Observability-overhead ablation: the full RFDump pipeline with the
//! live metrics plane off vs on, vs on *and being scraped*.
//!
//! Three arms over the same mixed trace:
//!   * `bare`    — telemetry off: no registry, no ingest stamps.
//!   * `obs`     — telemetry on with a shared registry: every chunk is
//!     stamped at ingest and recorded into the per-stage latency
//!     histograms (the cost `--metrics-addr` turns on).
//!   * `scraped` — the same registry additionally served by a live
//!     endpoint with a scraper polling `/metrics` for the whole
//!     iteration (the worst case a Prometheus deployment can inflict).
//!
//! The stamping hot path is one `Instant::now` per chunk plus a handful
//! of relaxed atomic adds per stage, and scrapes only read atomics — the
//! acceptance budget for the fully-observed arm is 3 % of wall clock.
//! Arms are interleaved round-for-round and compared by fastest
//! iteration, the robust estimator for a deterministic workload. Writes
//! `BENCH_obs.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_obs`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::Registry;
use rfdump::arch::{run_architecture_with_registry, ArchConfig, ArchKind, DetectorSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
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

    // One registry and endpoint live for the whole bench; the scraper
    // thread only polls while a `scraped` iteration is in flight, so the
    // other arms never share a core with it.
    let registry = Arc::new(Registry::new());
    let server = rfd_obs::MetricsServer::bind("127.0.0.1:0", registry.clone())
        .expect("bind metrics endpoint");
    let addr = server.local_addr().expect("metrics addr").to_string();
    let handle = server.spawn();
    let scraping = Arc::new(AtomicBool::new(false));
    let scraper_stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let (addr, scraping, stop) = (addr, scraping.clone(), scraper_stop.clone());
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if scraping.load(Ordering::Relaxed) {
                    if rfd_obs::scrape(&addr, "/metrics").is_ok() {
                        scrapes += 1;
                    }
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            scrapes
        })
    };

    let one = |telemetry: bool, shared: Option<Arc<Registry>>| -> f64 {
        let t0 = Instant::now();
        black_box(
            run_architecture_with_registry(&cfg(telemetry), &trace.samples, fs, shared)
                .records
                .len(),
        );
        t0.elapsed().as_nanos() as f64
    };
    let one_scraped = |reg: Arc<Registry>| -> f64 {
        scraping.store(true, Ordering::Relaxed);
        let ns = one(true, Some(reg));
        scraping.store(false, Ordering::Relaxed);
        ns
    };

    // Warm-up each arm, then interleave — rotating which arm goes first
    // each round — so drift and periodic machine noise hit all three
    // arms equally.
    one(false, None);
    one(true, Some(registry.clone()));
    one_scraped(registry.clone());
    let rounds = scaled(18);
    let mut bare = Arm::new();
    let mut obs = Arm::new();
    let mut scraped = Arm::new();
    for round in 0..rounds {
        let mut order: [usize; 3] = [0, 1, 2];
        order.rotate_left(round % 3);
        for arm in order {
            match arm {
                0 => bare.push(one(false, None)),
                1 => obs.push(one(true, Some(registry.clone()))),
                _ => scraped.push(one_scraped(registry.clone())),
            }
        }
    }
    scraper_stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    handle.join();

    let overhead_obs = obs.min_ns / bare.min_ns - 1.0;
    let overhead_scraped = scraped.min_ns / bare.min_ns - 1.0;
    let overhead_scraped_mean = scraped.mean_ns() / bare.mean_ns() - 1.0;

    let ms = |ns: f64| format!("{:.3} ms", ns / 1e6);
    print_table(
        "Observability ablation — pipeline bare vs stamped vs stamped+scraped",
        &["arm", "min/run", "mean/run", "iters"],
        &[
            vec![
                "bare (telemetry off)".into(),
                ms(bare.min_ns),
                ms(bare.mean_ns()),
                bare.iters.to_string(),
            ],
            vec![
                "obs (stamps + registry)".into(),
                ms(obs.min_ns),
                ms(obs.mean_ns()),
                obs.iters.to_string(),
            ],
            vec![
                "scraped (live endpoint)".into(),
                ms(scraped.min_ns),
                ms(scraped.mean_ns()),
                scraped.iters.to_string(),
            ],
        ],
    );
    println!(
        "\nobservability overhead: stamps {:+.2}%, stamps+scrape {:+.2}% of wall \
         clock by fastest run ({:+.2}% by mean; budget: 3%); {scrapes} scrapes served",
        overhead_obs * 100.0,
        overhead_scraped * 100.0,
        overhead_scraped_mean * 100.0,
    );

    let mut report = BenchReport::new("obs");
    report.push("bare", bare.to_json());
    report.push("obs", obs.to_json());
    report.push("scraped", scraped.to_json());
    report.push("scrapes_served", JsonValue::num(scrapes as f64));
    report.push("overhead_fraction_obs", JsonValue::num(overhead_obs));
    report.push(
        "overhead_fraction_scraped",
        JsonValue::num(overhead_scraped),
    );
    report.push(
        "overhead_fraction_scraped_by_mean",
        JsonValue::num(overhead_scraped_mean),
    );
    report.push("budget_fraction", JsonValue::num(0.03));
    report.push("within_budget", JsonValue::Bool(overhead_scraped <= 0.03));
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }
}
