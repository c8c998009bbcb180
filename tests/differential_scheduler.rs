//! Differential harness for the analysis pool: the full RFDump pipeline
//! over Wi-Fi, Bluetooth, and ZigBee traffic (and the synthesized campus
//! trace) must produce a byte-identical record stream whether analysis
//! runs inline on the scheduler thread (`workers: 0`) or on a pool of 1, 2,
//! or 8 worker threads sharing one queue — and the pool must account for
//! every task exactly: the same executed count at each worker count, with
//! nothing panicked, respawned, run inline or lost.
//!
//! This is the determinism contract the pool's reorder stage guarantees:
//! parallelism changes *when* a record is computed, never *what* is
//! reported or *in which order*.

use rfd_integration::{mixed_trace, piconet};
use rfd_mac::{
    merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim, ZigbeeConfig, ZigbeeSim,
};
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, ArchOutput, DetectorSet};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs a config at a worker count over a trace.
fn run(cfg: &ArchConfig, samples: &[rfd_dsp::Complex32], fs: f64, workers: usize) -> ArchOutput {
    let cfg = ArchConfig {
        workers,
        ..cfg.clone()
    };
    run_architecture(&cfg, samples, fs)
}

/// The serialized record stream: exactly what `rfdump -r` prints.
fn serialized(out: &ArchOutput) -> String {
    out.records
        .iter()
        .map(|r| r.format_line())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Per-protocol packet counts as reported in the `--stats-json` document's
/// `records` section.
fn stats_json_counts(out: &ArchOutput) -> Vec<(String, f64, f64)> {
    let doc = rfdump::stats::stats_json(out);
    let records = doc.get("records").expect("records section");
    let per = records
        .get("per_protocol")
        .expect("per_protocol")
        .as_obj()
        .expect("object");
    per.iter()
        .map(|(proto, entry)| {
            (
                proto.clone(),
                entry.get("total").unwrap().as_f64().unwrap(),
                entry.get("decoded").unwrap().as_f64().unwrap(),
            )
        })
        .collect()
}

/// Asserts inline (workers 0) and threaded pool runs agree at every worker
/// count.
fn assert_differential(label: &str, cfg: &ArchConfig, samples: &[rfd_dsp::Complex32], fs: f64) {
    let baseline = run(cfg, samples, fs, 0);
    let want = serialized(&baseline);
    let want_counts = stats_json_counts(&baseline);
    assert!(
        !baseline.records.is_empty(),
        "{label}: baseline produced no records — the differential is vacuous"
    );
    let mut executed = None;
    for &w in &WORKER_COUNTS {
        let pooled = run(cfg, samples, fs, w);
        assert_eq!(
            serialized(&pooled),
            want,
            "{label}: record stream diverged at {w} workers"
        );
        assert_eq!(
            stats_json_counts(&pooled),
            want_counts,
            "{label}: stats-json record counts diverged at {w} workers"
        );
        let ps = pooled.pool_stats.expect("pooled run reports pool stats");
        assert_eq!(ps.workers.len(), w, "{label}: wrong worker count");
        assert!(
            ps.executed() > 0,
            "{label}: pool at {w} workers executed nothing"
        );
        // Every task ran exactly once on a worker: the same count at every
        // worker count, nothing panicked, respawned, ran inline or went
        // missing.
        assert_eq!(
            ps.executed(),
            *executed.get_or_insert(ps.executed()),
            "{label}: executed task count moved at {w} workers"
        );
        assert_eq!(
            (ps.panics, ps.restarts, ps.rescued),
            (0, 0, 0),
            "{label}: (panics, restarts, rescued) at {w} workers"
        );
        assert!(
            ps.lost.is_empty(),
            "{label}: lost {:?} at {w} workers",
            ps.lost
        );
    }
    assert!(
        baseline.pool_stats.is_none(),
        "{label}: a run without worker threads must not report pool stats"
    );
}

#[test]
fn wifi_and_bluetooth_trace_is_scheduler_independent() {
    let trace = mixed_trace(4, 12, 28.0, 101);
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        ..ArchConfig::rfdump(vec![piconet()])
    };
    assert_differential("wifi+bt", &cfg, &trace.samples, trace.band.sample_rate);
}

/// Wi-Fi pings + Bluetooth l2pings + ZigBee sensor reports in one ether.
fn three_protocol_trace() -> (rfd_ether::scene::EtherTrace, ArchConfig) {
    let mut wifi = WifiDcfSim::new(DcfConfig {
        seed: 202,
        ..Default::default()
    });
    wifi.queue_ping_flow(1, 2, 3, 300, 11_000.0, 0.0);
    let mut bt = L2PingSim::new(L2PingConfig {
        count: 8,
        ..Default::default()
    });
    let mut zb = ZigbeeSim::new(ZigbeeConfig {
        count: 6,
        ..Default::default()
    });
    let events = merge_schedules(vec![wifi.run(), bt.run(), zb.run()]);
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    let mut scene = rfd_ether::scene::Scene::new(1e-4, 202);
    let gain = 28.0 + rfd_dsp::energy::power_to_db(1e-4);
    for node in 0..24 {
        scene.set_node(node, gain, (node as f64 - 6.0) * 300.0);
    }
    let trace = scene.render(&events, horizon);
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        zigbee: true,
        ..ArchConfig::rfdump(vec![piconet()])
    };
    (trace, cfg)
}

/// The paper's §5.3 real-world shape, scaled down to test size.
fn campus() -> (rfd_ether::scene::EtherTrace, ArchConfig) {
    let (trace, _) = rfd_ether::campus::campus_trace(&rfd_ether::campus::CampusConfig {
        duration_us: 120_000.0,
        n_r1: 2,
        r1_payload: 700,
        n_r2: 3,
        n_r55: 3,
        n_r11: 3,
        ..Default::default()
    });
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        ..ArchConfig::rfdump(vec![])
    };
    (trace, cfg)
}

#[test]
fn three_protocol_trace_is_scheduler_independent() {
    let (trace, cfg) = three_protocol_trace();
    assert_differential(
        "wifi+bt+zigbee",
        &cfg,
        &trace.samples,
        trace.band.sample_rate,
    );
}

#[test]
fn campus_trace_is_scheduler_independent() {
    let (trace, cfg) = campus();
    assert_differential("campus", &cfg, &trace.samples, trace.band.sample_rate);
}

/// Kernel-backend differential: the record stream must be byte-identical
/// whichever vectorized DSP backend runs, at workers 0 and on a threaded pool.
/// Combined with the scheduler differential above, this covers the whole
/// matrix the determinism contract promises: records depend on neither the
/// worker count nor the SIMD width of the kernels that computed them.
fn assert_kernel_differential(
    label: &str,
    cfg: &ArchConfig,
    samples: &[rfd_dsp::Complex32],
    fs: f64,
) {
    use rfd_dsp::kernels::{self, Backend};
    // Backend selection is process-global: serialize the two kernel-matrix
    // tests so neither flips the backend out from under the other's run.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &w in &[0usize, 4] {
        kernels::set_backend(Backend::Scalar).unwrap();
        let baseline = run(cfg, samples, fs, w);
        let want = serialized(&baseline);
        assert!(
            !baseline.records.is_empty(),
            "{label}: scalar baseline at {w} workers produced no records"
        );
        for &backend in kernels::available() {
            kernels::set_backend(backend).unwrap();
            let pooled = run(cfg, samples, fs, w);
            assert_eq!(
                serialized(&pooled),
                want,
                "{label}: record stream diverged between scalar and {backend} kernels \
                 at {w} workers"
            );
        }
    }
    kernels::set_backend(Backend::Scalar).unwrap();
}

#[test]
fn three_protocol_trace_is_kernel_backend_independent() {
    let (trace, cfg) = three_protocol_trace();
    assert_kernel_differential(
        "wifi+bt+zigbee",
        &cfg,
        &trace.samples,
        trace.band.sample_rate,
    );
}

#[test]
fn campus_trace_is_kernel_backend_independent() {
    let (trace, cfg) = campus();
    assert_kernel_differential("campus", &cfg, &trace.samples, trace.band.sample_rate);
}

/// Chunk-size differential: the record stream must be byte-identical at
/// any ingest chunk size, at any worker count, budget or no budget. The
/// peak detector re-blocks internally at a fixed block size, so chunk
/// size never touches what is reported.
fn assert_chunk_differential(
    label: &str,
    cfg: &ArchConfig,
    samples: &[rfd_dsp::Complex32],
    fs: f64,
) {
    let baseline = run(cfg, samples, fs, 0);
    let want = serialized(&baseline);
    assert!(
        !baseline.records.is_empty(),
        "{label}: baseline produced no records — the differential is vacuous"
    );
    for &w in &[0usize, 4] {
        for chunk in [64usize, 100, 200, 512, 1024] {
            let sized = ArchConfig {
                chunk_samples: chunk,
                workers: w,
                ..cfg.clone()
            };
            let out = run_architecture(&sized, samples, fs);
            assert_eq!(
                serialized(&out),
                want,
                "{label}: record stream diverged at chunk {chunk}, {w} workers"
            );
        }
        // An unviolated (generous) budget must also change nothing: the
        // governor arms its latency machinery but never walks the ladder.
        // Same config `--latency-budget` builds.
        let budgeted = ArchConfig {
            workers: w,
            governor: Some(rfdump::governor::GovernorConfig {
                latency_budget_us: Some(60_000_000.0),
                ..Default::default()
            }),
            ..cfg.clone()
        };
        let out = run_architecture(&budgeted, samples, fs);
        assert_eq!(
            serialized(&out),
            want,
            "{label}: an unviolated budget changed the record stream at {w} workers"
        );
        let report = out.latency.expect("budget run must carry a latency report");
        assert_eq!(
            report.violations, 0,
            "{label}: a 60 s budget must never be violated in a test run"
        );
    }
}

#[test]
fn three_protocol_trace_is_chunk_size_independent() {
    let (trace, cfg) = three_protocol_trace();
    assert_chunk_differential(
        "wifi+bt+zigbee",
        &cfg,
        &trace.samples,
        trace.band.sample_rate,
    );
}

#[test]
fn campus_trace_is_chunk_size_independent() {
    let (trace, cfg) = campus();
    assert_chunk_differential("campus", &cfg, &trace.samples, trace.band.sample_rate);
}

#[test]
fn online_noise_floor_is_chunk_size_independent() {
    // No pre-computed floor: the online estimator sees the same fixed
    // detector blocks whatever the ingest chunk size, so even the
    // data-derived floor cannot smuggle chunking into the records.
    let trace = mixed_trace(3, 8, 28.0, 404);
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: None,
        ..ArchConfig::rfdump(vec![piconet()])
    };
    assert_chunk_differential("online-floor", &cfg, &trace.samples, trace.band.sample_rate);
}

#[test]
fn detection_only_mode_is_scheduler_independent() {
    // `-n` (no demodulation): pooled analysis still emits tentative
    // detection-only records, and they too must be order-identical.
    let trace = mixed_trace(3, 6, 28.0, 303);
    let cfg = ArchConfig {
        demodulate: false,
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
        ..ArchConfig::rfdump(vec![piconet()])
    };
    assert_differential(
        "detection-only",
        &cfg,
        &trace.samples,
        trace.band.sample_rate,
    );
}
