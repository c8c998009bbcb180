//! End-to-end tests of the telemetry layer over real pipeline runs: CPU
//! accounting sanity, scheduler-independence of the metrics, histogram
//! quantile ordering, and the `--stats-json` document round-tripping
//! through the in-repo parser.

use rfd_integration::{mixed_trace, piconet};
use rfd_telemetry::Histogram;
use rfdump::arch::{run_architecture, ArchConfig, ArchOutput};
use rfdump::stats::{stats_json, STATS_SCHEMA, STATS_VERSION};

fn run() -> ArchOutput {
    run_with_workers(rfdump::arch::default_workers())
}

fn run_with_workers(workers: usize) -> ArchOutput {
    let trace = mixed_trace(2, 2, 25.0, 42);
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        workers,
        ..ArchConfig::rfdump(vec![piconet()])
    };
    run_architecture(&cfg, &trace.samples, trace.band.sample_rate)
}

/// On one thread, summed per-block CPU can never exceed the wall clock.
/// (Pinned to `workers: 0` — with an analysis pool the run is not single
/// threaded, and summed worker CPU may legitimately exceed the wall.)
#[test]
fn single_threaded_cpu_fits_in_wall() {
    let out = run_with_workers(0);
    let cpu = out.stats.total_cpu();
    assert!(
        cpu <= out.stats.wall,
        "total cpu {cpu:?} > wall {:?} on a single thread",
        out.stats.wall
    );
    assert!(cpu.as_nanos() > 0, "pipeline did no accounted work");
}

/// The telemetry counters describe the *signal*, not the scheduler: a
/// run with pool worker threads must produce exactly the same counter
/// totals as a run of the same trace with none. (CPU-time counters and the
/// pool's per-worker counters are the exceptions — they measure the run
/// itself, and which worker executed a task is timing-dependent by design.)
#[test]
fn counters_are_scheduler_independent() {
    let single = run_with_workers(0);
    let multi = run_with_workers(2);
    let s = single.registry.as_ref().unwrap().snapshot();
    let m = multi.registry.as_ref().unwrap().snapshot();
    assert!(
        s.counters.get("peaks.detected").copied().unwrap_or(0) > 0,
        "no peaks detected — trace too quiet for the test to mean anything"
    );
    for (name, &v) in &s.counters {
        if name.ends_with(".cpu_us") || name.starts_with("pool.") {
            continue;
        }
        assert_eq!(
            m.counters.get(name).copied(),
            Some(v),
            "counter {name} differs between schedulers"
        );
    }
    let names = |c: &std::collections::BTreeMap<String, u64>| -> Vec<String> {
        let signal = c.keys().filter(|n| !n.starts_with("pool."));
        signal.cloned().collect()
    };
    assert_eq!(
        names(&s.counters),
        names(&m.counters),
        "counter sets differ between schedulers"
    );
}

/// Quantiles of any recorded histogram are monotone in q.
#[test]
fn histogram_quantiles_are_monotone() {
    // Directly, over an adversarial recording pattern...
    let h = Histogram::exponential(1.0, 1e6, 24);
    for i in 0..1000u64 {
        h.record(((i * 7919) % 999_983) as f64);
    }
    let qs = [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    for w in qs.windows(2) {
        assert!(
            h.quantile(w[0]) <= h.quantile(w[1]),
            "q{} > q{}",
            w[0],
            w[1]
        );
    }
    // ...and for every histogram a real pipeline run recorded.
    let out = run();
    let snap = out.registry.as_ref().unwrap().snapshot();
    assert!(!snap.histograms.is_empty(), "run recorded no histograms");
    for (name, h) in &snap.histograms {
        assert!(
            h.p50 <= h.p95 && h.p95 <= h.p99,
            "{name}: p50 {} p95 {} p99 {} not monotone",
            h.p50,
            h.p95,
            h.p99
        );
    }
}

/// The stats document survives serialize → parse with its schema, per-block
/// accounting, per-stage ratios, and dispatcher fractions intact.
#[test]
fn stats_json_round_trips_through_parser() {
    let out = run();
    let text = stats_json(&out).to_json();
    let doc = rfd_telemetry::json::parse(&text).expect("stats json must parse");

    assert_eq!(doc.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
    assert_eq!(
        doc.get("version").unwrap().as_f64(),
        Some(STATS_VERSION as f64)
    );

    let trace = doc.get("trace").unwrap();
    assert_eq!(
        trace.get("sample_rate").unwrap().as_f64(),
        Some(out.sample_rate)
    );

    // Per-block rows match the in-memory RunStats.
    let blocks = doc.get("blocks").unwrap().as_arr().unwrap();
    assert_eq!(blocks.len(), out.stats.blocks.len());
    for (row, b) in blocks.iter().zip(&out.stats.blocks) {
        assert_eq!(row.get("name").unwrap().as_str(), Some(b.name.as_str()));
        assert_eq!(
            row.get("items_in").unwrap().as_f64(),
            Some(b.items_in as f64)
        );
    }

    // Every stage named by a block appears in the stages section.
    let stages = doc.get("stages").unwrap();
    for b in &out.stats.blocks {
        let stage = b.name.split(':').next().unwrap();
        assert!(
            stages.get(stage).is_some(),
            "stage {stage} missing from stats"
        );
        let ratio = stages
            .get(stage)
            .unwrap()
            .get("cpu_over_realtime")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ratio.is_finite() && ratio >= 0.0);
    }

    // RFDump runs carry dispatcher forwarding fractions in [0, 1].
    let dispatch = doc.get("dispatch").unwrap();
    let per_proto = dispatch.get("per_protocol").unwrap().as_obj().unwrap();
    assert!(!per_proto.is_empty(), "dispatcher forwarded nothing");
    for (proto, entry) in per_proto {
        let frac = entry.get("forwarded_fraction").unwrap().as_f64().unwrap();
        assert!(
            (0.0..=1.0).contains(&frac),
            "{proto} forwarded fraction {frac} out of range"
        );
    }

    // The registry sections made it through.
    assert!(doc.get("counters").unwrap().get("peaks.detected").is_some());
}
