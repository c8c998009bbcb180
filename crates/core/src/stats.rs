//! Machine-readable run statistics (the `--stats-json` document).
//!
//! Everything the pipeline measures — per-block CPU accounting, per-stage
//! CPU-over-real-time ratios (via [`rfd_telemetry::rt::RtMonitor`], keyed
//! on `samples / sample_rate` exactly as the paper's headline metric),
//! dispatcher forwarding statistics, and the full metrics registry — is
//! folded into one versioned JSON document so experiment harnesses can
//! consume runs without scraping tables.
//!
//! The schema is identified by `"schema": "rfd-stats"` and `"version"`;
//! consumers must check both. Version 13 carries:
//!
//! * `trace` (seconds, sample rate, samples), `blocks` (per-block CPU and
//!   items), `total` (CPU, wall, CPU over real time), `stages` (per-stage
//!   CPU over real time) and `dispatch` (forwarding statistics; null for
//!   the naïve architectures);
//! * `counters`, `gauges`, `histograms` (the metrics registry; histogram
//!   entries carry `p50` and `max`), `records` (total, per-protocol and
//!   decoded per-protocol counts) and `pool` (per-worker analysis-pool
//!   statistics — executed / busy / stall per worker and in total, with
//!   panics / restarts / rescued / lost; null without worker threads.
//!   Version 12 dropped its `stolen` counts along with work stealing);
//! * `net` and `fleet` (wire-level and per-source ingest statistics, null
//!   together offline and present together on any `serve`: fleet rollups,
//!   health and resume counters, and a `per_source` object of tagged
//!   sources keyed by id, each with its health state, `deadline_p99_us`
//!   and `shed` rung — `none` / `throttle` / `drop-oldest`);
//! * `faults` (fault-plan rule counters; null without a plan),
//!   `degradation` (the governor's final shed level, step counts and shed
//!   counters; null without a governor. Version 13 dropped its `rt_ratio`
//!   along with the CPU-ratio ladder) and `latency_mode` (null without a
//!   `--latency-budget`: `budget_us`, windowed-p99 `violations`,
//!   `last_p99_us`, and on `serve` a `fleet` object of overload rollups —
//!   `shed_throttle`, `shed_drop`, `admission_refused`,
//!   `admission_paused`);
//! * `supervision` (analyzer panics and quarantined analyzers; always
//!   present), `recovery` (journal resume and commit statistics; null
//!   without a journal), `events` (the typed event ring; null without
//!   telemetry), `latency` (time-since-ingest summaries per stage; null
//!   without telemetry) and `kernel` (the DSP backend that ran).
//!
//! Readers accept exactly one version. What changed between versions is
//! recorded in CHANGES.md.

use crate::arch::ArchOutput;
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::rt::RtMonitor;
use std::io;
use std::path::Path;

/// Schema identifier carried in every stats document.
pub const STATS_SCHEMA: &str = "rfd-stats";
/// Current stats document version.
pub const STATS_VERSION: u64 = 13;

/// The pipeline stage a block belongs to: the block-name prefix before the
/// first `:` (`detect:peak/energy` → `detect`).
fn stage_of(block_name: &str) -> &str {
    block_name.split(':').next().unwrap_or(block_name)
}

/// Builds the versioned stats document for a finished architecture run
/// (offline: the `net` and `fleet` sections are null). `serve` uses
/// [`stats_json_with_fleet`].
pub fn stats_json(out: &ArchOutput) -> JsonValue {
    stats_json_full(out, None)
}

/// Builds the versioned stats document for a `serve` run: the server's
/// wire-level rollup becomes the `net` section and the per-source
/// aggregation the `fleet` section.
pub fn stats_json_with_fleet(out: &ArchOutput, fleet: &rfd_net::FleetSnapshot) -> JsonValue {
    stats_json_full(out, Some(fleet))
}

/// Builds the versioned stats document; `fleet` fills both live sections.
fn stats_json_full(out: &ArchOutput, fleet: Option<&rfd_net::FleetSnapshot>) -> JsonValue {
    let total_samples = (out.trace_seconds * out.sample_rate).round();
    let wall_s = out.stats.wall.as_secs_f64();

    let mut doc = JsonValue::obj(vec![
        ("schema", JsonValue::str(STATS_SCHEMA)),
        ("version", JsonValue::num(STATS_VERSION as f64)),
        (
            "trace",
            JsonValue::obj(vec![
                ("seconds", JsonValue::num(out.trace_seconds)),
                ("sample_rate", JsonValue::num(out.sample_rate)),
                ("samples", JsonValue::num(total_samples)),
            ]),
        ),
    ]);

    // Per-block accounting, with the paper's ratio per block.
    let mut blocks = Vec::new();
    for b in &out.stats.blocks {
        blocks.push(JsonValue::obj(vec![
            ("name", JsonValue::str(&b.name)),
            ("cpu_ms", JsonValue::num(b.cpu.as_secs_f64() * 1e3)),
            ("items_in", JsonValue::num(b.items_in as f64)),
            ("items_out", JsonValue::num(b.items_out as f64)),
            (
                "cpu_over_realtime",
                JsonValue::num(if out.trace_seconds > 0.0 {
                    b.cpu.as_secs_f64() / out.trace_seconds
                } else {
                    0.0
                }),
            ),
        ]));
    }
    doc.push("blocks", JsonValue::Arr(blocks));

    let total_cpu = out.stats.total_cpu();
    doc.push(
        "total",
        JsonValue::obj(vec![
            ("cpu_ms", JsonValue::num(total_cpu.as_secs_f64() * 1e3)),
            ("wall_ms", JsonValue::num(wall_s * 1e3)),
            ("cpu_over_realtime", JsonValue::num(out.cpu_over_realtime())),
        ]),
    );

    // Per-stage ratios through the RtMonitor: every stage saw the whole
    // trace, so the denominator is the full signal span.
    let rt = RtMonitor::new(out.sample_rate);
    for b in &out.stats.blocks {
        rt.record(stage_of(&b.name), b.cpu, 0);
    }
    for stage in rt.snapshot().keys() {
        rt.record(stage, std::time::Duration::ZERO, total_samples as u64);
    }
    doc.push("stages", rt.to_json());

    // Dispatcher forwarding statistics (RFDump only).
    match &out.dispatch_stats {
        None => doc.push("dispatch", JsonValue::Null),
        Some(ds) => {
            let mut per_proto = JsonValue::Obj(Vec::new());
            for (proto, &peaks) in &ds.forwarded_peaks {
                let samples = ds.forwarded_samples.get(proto).copied().unwrap_or(0);
                per_proto.push(
                    proto.name(),
                    JsonValue::obj(vec![
                        ("forwarded_peaks", JsonValue::num(peaks as f64)),
                        ("forwarded_samples", JsonValue::num(samples as f64)),
                        (
                            "forwarded_fraction",
                            JsonValue::num(if total_samples > 0.0 {
                                samples as f64 / total_samples
                            } else {
                                0.0
                            }),
                        ),
                    ]),
                );
            }
            doc.push(
                "dispatch",
                JsonValue::obj(vec![
                    ("total_peaks", JsonValue::num(ds.total_peaks as f64)),
                    (
                        "unclassified_peaks",
                        JsonValue::num(ds.unclassified_peaks as f64),
                    ),
                    ("per_protocol", per_proto),
                ]),
            );
        }
    }

    // Packet-count summary of the record stream — the cheap invariant a
    // differential harness checks across scheduler modes. Read from the
    // session's running counts, keyed by protocol name as ever.
    let per_proto: std::collections::BTreeMap<&str, (u64, u64)> = out
        .record_counts
        .iter()
        .map(|(p, &counts)| (p.name(), counts))
        .collect();
    let mut proto_json = JsonValue::Obj(Vec::new());
    for (name, (total, decoded)) in &per_proto {
        proto_json.push(
            name,
            JsonValue::obj(vec![
                ("total", JsonValue::num(*total as f64)),
                ("decoded", JsonValue::num(*decoded as f64)),
            ]),
        );
    }
    let total: u64 = per_proto.values().map(|(total, _)| total).sum();
    doc.push(
        "records",
        JsonValue::obj(vec![
            ("total", JsonValue::num(total as f64)),
            ("per_protocol", proto_json),
        ]),
    );

    // Analysis-pool worker statistics (null at workers 0: no threads).
    match &out.pool_stats {
        None => doc.push("pool", JsonValue::Null),
        Some(ps) => {
            let workers: Vec<JsonValue> = ps
                .workers
                .iter()
                .map(|w| {
                    JsonValue::obj(vec![
                        ("executed", JsonValue::num(w.executed as f64)),
                        ("busy_ms", JsonValue::num(w.busy.as_secs_f64() * 1e3)),
                        ("stall_ms", JsonValue::num(w.stall.as_secs_f64() * 1e3)),
                    ])
                })
                .collect();
            doc.push(
                "pool",
                JsonValue::obj(vec![
                    ("workers", JsonValue::Arr(workers)),
                    ("executed", JsonValue::num(ps.executed() as f64)),
                    ("busy_ms", JsonValue::num(ps.busy().as_secs_f64() * 1e3)),
                    ("stall_ms", JsonValue::num(ps.stall().as_secs_f64() * 1e3)),
                    ("panics", JsonValue::num(ps.panics as f64)),
                    ("restarts", JsonValue::num(ps.restarts as f64)),
                    ("rescued", JsonValue::num(ps.rescued as f64)),
                    ("lost", JsonValue::num(ps.lost.len() as f64)),
                ]),
            );
        }
    }

    // Live capture server statistics: the wire-level rollup (`net`, v3) and
    // the per-source rollups (`fleet`, v8). Both null for offline runs.
    match fleet {
        None => {
            doc.push("net", JsonValue::Null);
            doc.push("fleet", JsonValue::Null);
        }
        Some(snap) => {
            doc.push("net", snap.net.to_json());
            doc.push("fleet", snap.to_json());
        }
    }

    // The DSP kernel backend the run executed with (v7).
    doc.push(
        "kernel",
        JsonValue::obj(vec![
            ("backend", JsonValue::str(rfd_dsp::kernels::active().name())),
            ("requested", JsonValue::str(rfd_dsp::kernels::requested())),
            (
                "available",
                JsonValue::Arr(
                    rfd_dsp::kernels::available()
                        .iter()
                        .map(|b| JsonValue::str(b.name()))
                        .collect(),
                ),
            ),
        ]),
    );

    // Fault-injection plan counters (null when no plan was armed).
    match &out.faults {
        None => doc.push("faults", JsonValue::Null),
        Some(fs) => {
            let rules: Vec<JsonValue> = fs
                .rules
                .iter()
                .map(|r| {
                    JsonValue::obj(vec![
                        ("kind", JsonValue::str(&r.kind)),
                        ("target", JsonValue::str(&r.target)),
                        ("calls", JsonValue::num(r.calls as f64)),
                        ("fired", JsonValue::num(r.fired as f64)),
                    ])
                })
                .collect();
            doc.push(
                "faults",
                JsonValue::obj(vec![
                    ("spec", JsonValue::str(&fs.spec)),
                    ("seed", JsonValue::num(fs.seed as f64)),
                    ("rules", JsonValue::Arr(rules)),
                ]),
            );
        }
    }

    // Load-governor degradation report (null when the governor was off).
    match &out.governor {
        None => doc.push("degradation", JsonValue::Null),
        Some(g) => doc.push("degradation", g.to_json()),
    }

    // Bounded-latency mode (null unless a budget was configured).
    // Fleet servers report the per-pipeline view plus overload-control
    // rollups; the per-source deadline rows live in `fleet.per_source`.
    let fleet_latency = fleet.and_then(|f| f.latency.as_ref());
    if out.latency.is_none() && fleet_latency.is_none() {
        doc.push("latency_mode", JsonValue::Null);
    } else {
        let mut lm = match &out.latency {
            Some(l) => l.to_json(),
            None => JsonValue::Obj(Vec::new()),
        };
        match fleet_latency {
            None => lm.push("fleet", JsonValue::Null),
            Some(fl) => lm.push("fleet", fl.to_json()),
        }
        doc.push("latency_mode", lm);
    }

    // Supervision outcome — always present so harnesses can assert zero.
    doc.push(
        "supervision",
        JsonValue::obj(vec![
            ("analyzer_panics", JsonValue::num(out.panics as f64)),
            (
                "quarantined",
                JsonValue::Arr(out.quarantined.iter().map(JsonValue::str).collect()),
            ),
        ]),
    );

    // Durability/recovery report (null when journaling was off).
    match &out.recovery {
        None => doc.push("recovery", JsonValue::Null),
        Some(r) => doc.push(
            "recovery",
            JsonValue::obj(vec![
                ("resumed", JsonValue::Bool(r.resumed)),
                (
                    "entries_replayed",
                    JsonValue::num(r.entries_replayed as f64),
                ),
                (
                    "records_recovered",
                    JsonValue::num(r.records_recovered as f64),
                ),
                ("commits_written", JsonValue::num(r.commits_written as f64)),
                (
                    "checkpoints_written",
                    JsonValue::num(r.checkpoints_written as f64),
                ),
                (
                    "resume_latency_us",
                    JsonValue::num(r.resume_latency_us as f64),
                ),
            ]),
        ),
    }

    // Structured event log (null when telemetry was off).
    match &out.registry {
        None => doc.push("events", JsonValue::Null),
        Some(r) => doc.push("events", r.events().to_json()),
    }

    // Per-stage latency summaries: one compact object per `latency.*`
    // histogram, keyed by the stage name (the suffix is always `_us`, so
    // the quantile units are too).
    match &out.registry {
        None => doc.push("latency", JsonValue::Null),
        Some(r) => {
            let snap = r.snapshot();
            let mut lat = JsonValue::Obj(Vec::new());
            for (name, h) in &snap.histograms {
                if let Some(stage) = name
                    .strip_prefix("latency.")
                    .and_then(|s| s.strip_suffix("_us"))
                {
                    lat.push(
                        stage,
                        JsonValue::obj(vec![
                            ("count", JsonValue::num(h.count as f64)),
                            ("p50_us", JsonValue::num(h.p50)),
                            ("p95_us", JsonValue::num(h.p95)),
                            ("p99_us", JsonValue::num(h.p99)),
                            ("max_us", JsonValue::num(h.max)),
                        ]),
                    );
                }
            }
            doc.push("latency", lat);
        }
    }

    // The full registry: counters, gauges, histograms.
    let snap = out
        .registry
        .as_ref()
        .map(|r| r.snapshot())
        .unwrap_or_default();
    let reg_json = snap.to_json();
    for key in ["counters", "gauges", "histograms"] {
        doc.push(key, reg_json.get(key).cloned().unwrap_or(JsonValue::Null));
    }

    doc
}

/// Writes the stats document to `path` atomically (temp file + rename), so
/// a crash mid-write never leaves a truncated document behind.
pub fn write_stats_json(out: &ArchOutput, path: &Path) -> io::Result<()> {
    rfd_journal::atomic_write(path, stats_json(out).to_json().as_bytes())
}

/// Writes the run's span trace as chrome://tracing JSON to `path`.
/// Returns `InvalidInput` if the run had no telemetry registry.
pub fn write_chrome_trace(out: &ArchOutput, path: &Path) -> io::Result<()> {
    let reg = out.registry.as_ref().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "run had no telemetry (ArchConfig::telemetry was false)",
        )
    })?;
    rfd_journal::atomic_write(path, reg.tracer().to_chrome_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DispatchStats;
    use rfd_flowgraph::{BlockStats, RunStats};
    use std::time::Duration;

    fn fake_output() -> ArchOutput {
        let mut ds = DispatchStats {
            total_peaks: 10,
            unclassified_peaks: 2,
            ..Default::default()
        };
        ds.forwarded_peaks.insert(rfd_phy::Protocol::Wifi, 8);
        ds.forwarded_samples.insert(rfd_phy::Protocol::Wifi, 4000);
        let reg = rfd_telemetry::Registry::new();
        reg.counter("peaks.detected").add(10);
        ArchOutput {
            records: Vec::new(),
            classified: Vec::new(),
            record_counts: Default::default(),
            dispatch_stats: Some(ds),
            stats: RunStats {
                blocks: vec![
                    BlockStats {
                        name: "detect:peak/energy".into(),
                        cpu: Duration::from_millis(5),
                        items_in: 40,
                        items_out: 10,
                    },
                    BlockStats {
                        name: "analyze:wifi-demod".into(),
                        cpu: Duration::from_millis(20),
                        items_in: 8,
                        items_out: 8,
                    },
                ],
                wall: Duration::from_millis(30),
            },
            trace_seconds: 0.01,
            sample_rate: 8e6,
            registry: Some(std::sync::Arc::new(reg)),
            pool_stats: None,
            faults: None,
            governor: None,
            latency: None,
            panics: 0,
            quarantined: Vec::new(),
            recovery: None,
        }
    }

    #[test]
    fn document_is_versioned_and_parses() {
        let doc_text = stats_json(&fake_output()).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(
            doc.get("version").unwrap().as_f64(),
            Some(STATS_VERSION as f64)
        );
        assert_eq!(
            doc.get("trace").unwrap().get("samples").unwrap().as_f64(),
            Some(80_000.0)
        );
        let blocks = doc.get("blocks").unwrap().as_arr().unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(
            blocks[0].get("name").unwrap().as_str(),
            Some("detect:peak/energy")
        );
    }

    #[test]
    fn v7_kernel_section_reports_backend() {
        let doc_text = stats_json(&fake_output()).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        let kernel = doc.get("kernel").unwrap();
        let backend = kernel.get("backend").unwrap().as_str().unwrap();
        assert!(kernel.get("requested").unwrap().as_str().is_some());
        let available: Vec<&str> = kernel
            .get("available")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert!(
            available.contains(&backend),
            "resolved backend {backend:?} not in available {available:?}"
        );
        assert!(available.contains(&"scalar"), "scalar is always available");
    }

    #[test]
    fn stage_ratios_use_signal_time_not_wall() {
        let doc_text = stats_json(&fake_output()).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        let detect = doc.get("stages").unwrap().get("detect").unwrap();
        // 5 ms CPU over 10 ms of signal = 0.5x.
        let ratio = detect.get("cpu_over_realtime").unwrap().as_f64().unwrap();
        assert!((ratio - 0.5).abs() < 1e-6, "detect ratio {ratio}");
        let analyze = doc.get("stages").unwrap().get("analyze").unwrap();
        let ratio = analyze.get("cpu_over_realtime").unwrap().as_f64().unwrap();
        assert!((ratio - 2.0).abs() < 1e-6, "analyze ratio {ratio}");
    }

    #[test]
    fn dispatch_section_reports_fractions() {
        let doc_text = stats_json(&fake_output()).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        let d = doc.get("dispatch").unwrap();
        assert_eq!(d.get("total_peaks").unwrap().as_f64(), Some(10.0));
        let wifi = d.get("per_protocol").unwrap().get("802.11").unwrap();
        assert_eq!(
            wifi.get("forwarded_samples").unwrap().as_f64(),
            Some(4000.0)
        );
        let frac = wifi.get("forwarded_fraction").unwrap().as_f64().unwrap();
        assert!((frac - 0.05).abs() < 1e-9, "fraction {frac}");
    }

    #[test]
    fn records_section_counts_per_protocol_and_decoded() {
        let mut out = fake_output();
        // One detected-only 802.11 record, one confirmed microwave burst.
        out.record_counts = [
            (rfd_phy::Protocol::Wifi, (1, 0)),
            (rfd_phy::Protocol::Microwave, (1, 1)),
        ]
        .into();
        let doc = rfd_telemetry::json::parse(&stats_json(&out).to_json()).unwrap();
        let recs = doc.get("records").unwrap();
        assert_eq!(recs.get("total").unwrap().as_f64(), Some(2.0));
        let wifi = recs.get("per_protocol").unwrap().get("802.11").unwrap();
        assert_eq!(wifi.get("total").unwrap().as_f64(), Some(1.0));
        assert_eq!(wifi.get("decoded").unwrap().as_f64(), Some(0.0));
        let mw = recs.get("per_protocol").unwrap().get("microwave").unwrap();
        assert_eq!(mw.get("decoded").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn pool_section_is_null_single_threaded_and_populated_pooled() {
        let doc = rfd_telemetry::json::parse(&stats_json(&fake_output()).to_json()).unwrap();
        assert!(matches!(
            doc.get("pool"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));

        let mut out = fake_output();
        out.pool_stats = Some(rfd_flowgraph::pool::PoolStats {
            workers: vec![rfd_flowgraph::pool::WorkerStats {
                executed: 5,
                busy: Duration::from_millis(4),
                stall: Duration::from_millis(1),
            }],
            panics: 1,
            ..Default::default()
        });
        let doc = rfd_telemetry::json::parse(&stats_json(&out).to_json()).unwrap();
        let pool = doc.get("pool").unwrap();
        assert_eq!(pool.get("executed").unwrap().as_f64(), Some(5.0));
        assert!(pool.get("stolen").is_none(), "v12 dropped the steal count");
        assert_eq!(pool.get("panics").unwrap().as_f64(), Some(1.0));
        assert_eq!(pool.get("workers").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn fault_and_degradation_sections_null_when_off_populated_when_on() {
        let doc = rfd_telemetry::json::parse(&stats_json(&fake_output()).to_json()).unwrap();
        assert!(matches!(
            doc.get("faults"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));
        assert!(matches!(
            doc.get("degradation"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));
        let sup = doc.get("supervision").unwrap();
        assert_eq!(sup.get("analyzer_panics").unwrap().as_f64(), Some(0.0));

        let mut out = fake_output();
        let plan = rfd_fault::FaultPlan::parse("seed=9;slow=analyze@0.5/1ms").unwrap();
        let _ = plan.decide("analyze:wifi-demod");
        out.faults = Some(plan.snapshot());
        let gov = crate::governor::LoadGovernor::new(crate::governor::GovernorConfig {
            force_level: Some(1),
            ..Default::default()
        });
        gov.note_shed_demod();
        out.governor = Some(gov.report());
        out.panics = 3;
        out.quarantined = vec!["analyze:wifi-demod".into()];

        let doc = rfd_telemetry::json::parse(&stats_json(&out).to_json()).unwrap();
        let faults = doc.get("faults").unwrap();
        assert_eq!(faults.get("seed").unwrap().as_f64(), Some(9.0));
        let rules = faults.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].get("kind").unwrap().as_str(), Some("slow"));
        assert_eq!(rules[0].get("calls").unwrap().as_f64(), Some(1.0));
        let deg = doc.get("degradation").unwrap();
        assert_eq!(deg.get("level").unwrap().as_f64(), Some(1.0));
        assert_eq!(deg.get("level_name").unwrap().as_str(), Some("shed-demod"));
        assert_eq!(deg.get("shed_demod").unwrap().as_f64(), Some(1.0));
        assert!(deg.get("rt_ratio").is_none(), "v13 dropped the CPU ratio");
        let sup = doc.get("supervision").unwrap();
        assert_eq!(sup.get("analyzer_panics").unwrap().as_f64(), Some(3.0));
        let q = sup.get("quarantined").unwrap().as_arr().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].as_str(), Some("analyze:wifi-demod"));
    }

    #[test]
    fn net_section_is_null_offline_and_populated_live() {
        let doc = rfd_telemetry::json::parse(&stats_json(&fake_output()).to_json()).unwrap();
        assert!(matches!(
            doc.get("net"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));

        // A plain `serve` run: one anonymous session, so a `net` rollup and
        // a `fleet` section without rows.
        let snap = rfd_net::FleetSnapshot {
            net: rfd_net::NetStatsSnapshot {
                sessions: 1,
                samples_in: 80_000,
                chunks_in: 20,
                ingest_signal_us: 10_000,
                ingest_wall_us: 5_000,
                ..Default::default()
            },
            sources_joined: 1,
            sources_done: 1,
            rejects: 0,
            resumes: 0,
            sources_parked: 0,
            sources_expired: 0,
            flapping: 0,
            quarantined: 0,
            evicted: 0,
            latency: None,
            per_source: Vec::new(),
        };
        let doc_text = stats_json_with_fleet(&fake_output(), &snap).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        let fleet = doc.get("fleet").unwrap();
        assert_eq!(fleet.get("sources_done").unwrap().as_f64(), Some(1.0));
        let net = doc.get("net").unwrap();
        assert_eq!(net.get("sessions").unwrap().as_f64(), Some(1.0));
        assert_eq!(net.get("samples_in").unwrap().as_f64(), Some(80_000.0));
        let ratio = net.get("ingest_rt_ratio").unwrap().as_f64().unwrap();
        assert!((ratio - 0.5).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn v9_fleet_section_is_null_offline_and_populated_for_fleet_runs() {
        let doc = rfd_telemetry::json::parse(&stats_json(&fake_output()).to_json()).unwrap();
        assert!(matches!(
            doc.get("fleet"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));

        let snap = rfd_net::FleetSnapshot {
            net: rfd_net::NetStatsSnapshot {
                samples_in: 3000,
                ..Default::default()
            },
            sources_joined: 2,
            sources_done: 2,
            rejects: 1,
            resumes: 1,
            sources_parked: 0,
            sources_expired: 0,
            flapping: 1,
            quarantined: 0,
            evicted: 0,
            latency: Some(rfd_net::FleetLatencySnapshot {
                budget_us: 5_000.0,
                violations: 4,
                shed_throttle: 2,
                shed_drop: 1,
                admission_refused: 1,
                admission_paused: false,
            }),
            per_source: vec![
                rfd_net::SourceSnapshot {
                    source: "lab-3".into(),
                    chunks_in: 2,
                    samples_in: 1000,
                    chunks_duplicate: 0,
                    sample_gaps: 0,
                    chunks_dropped: 0,
                    throttles: 0,
                    records: 4,
                    ingest_signal_us: 1000,
                    ingest_wall_us: 500,
                    fanout_count: 4,
                    fanout_p50_us: 10.0,
                    fanout_p99_us: 50.0,
                    deadline_count: 4,
                    deadline_p99_us: 900.0,
                    shed: "none".into(),
                    health: rfd_net::SourceHealth::Healthy,
                    disconnects: 0,
                    resumes: 0,
                    flaps: 0,
                    decode_errors: 0,
                    rejects: 0,
                    done: true,
                },
                rfd_net::SourceSnapshot {
                    source: "roof".into(),
                    chunks_in: 4,
                    samples_in: 2000,
                    chunks_duplicate: 1,
                    sample_gaps: 0,
                    chunks_dropped: 0,
                    throttles: 1,
                    records: 7,
                    ingest_signal_us: 2000,
                    ingest_wall_us: 900,
                    fanout_count: 7,
                    fanout_p50_us: 12.0,
                    fanout_p99_us: 80.0,
                    deadline_count: 7,
                    deadline_p99_us: 6_400.0,
                    shed: "throttle".into(),
                    health: rfd_net::SourceHealth::Flapping,
                    disconnects: 2,
                    resumes: 1,
                    flaps: 1,
                    decode_errors: 0,
                    rejects: 1,
                    done: true,
                },
            ],
        };
        let doc_text = stats_json_with_fleet(&fake_output(), &snap).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        // The fleet's wire rollup doubles as the net section.
        assert_eq!(
            doc.get("net").unwrap().get("samples_in").unwrap().as_f64(),
            Some(3000.0)
        );
        let fleet = doc.get("fleet").unwrap();
        assert_eq!(fleet.get("sources_joined").unwrap().as_f64(), Some(2.0));
        assert_eq!(fleet.get("sources_done").unwrap().as_f64(), Some(2.0));
        assert_eq!(fleet.get("rejects").unwrap().as_f64(), Some(1.0));
        let per = fleet.get("per_source").unwrap();
        let roof = per.get("roof").unwrap();
        assert_eq!(roof.get("samples_in").unwrap().as_f64(), Some(2000.0));
        assert_eq!(roof.get("records").unwrap().as_f64(), Some(7.0));
        assert_eq!(roof.get("throttles").unwrap().as_f64(), Some(1.0));
        assert_eq!(roof.get("fanout_p99_us").unwrap().as_f64(), Some(80.0));
        // v9: per-source health + resume/flap counters.
        assert_eq!(roof.get("health").unwrap().as_str(), Some("flapping"));
        assert_eq!(roof.get("disconnects").unwrap().as_f64(), Some(2.0));
        assert_eq!(roof.get("resumes").unwrap().as_f64(), Some(1.0));
        assert_eq!(roof.get("flaps").unwrap().as_f64(), Some(1.0));
        let lab = per.get("lab-3").unwrap();
        assert_eq!(lab.get("records").unwrap().as_f64(), Some(4.0));
        assert_eq!(lab.get("health").unwrap().as_str(), Some("healthy"));
        // v9: fleet-level survivability rollups.
        assert_eq!(fleet.get("resumes").unwrap().as_f64(), Some(1.0));
        assert_eq!(fleet.get("sources_parked").unwrap().as_f64(), Some(0.0));
        assert_eq!(fleet.get("flapping").unwrap().as_f64(), Some(1.0));
        assert_eq!(fleet.get("quarantined").unwrap().as_f64(), Some(0.0));
        assert_eq!(fleet.get("evicted").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn v6_events_and_latency_sections() {
        let out = fake_output();
        {
            let reg = out.registry.as_ref().unwrap();
            reg.emit_event(rfd_telemetry::event::EventKind::Checkpoint, "cp 1");
            crate::latency::stage_histogram(reg, crate::latency::DETECT).record(42.0);
        }
        let doc = rfd_telemetry::json::parse(&stats_json(&out).to_json()).unwrap();
        let ev = doc.get("events").unwrap();
        assert_eq!(ev.get("emitted").unwrap().as_f64(), Some(1.0));
        assert_eq!(ev.get("dropped").unwrap().as_f64(), Some(0.0));
        assert_eq!(ev.get("ring").unwrap().as_arr().unwrap().len(), 1);
        let lat = doc.get("latency").unwrap().get("detect").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64(), Some(1.0));
        let max = lat.get("max_us").unwrap().as_f64().unwrap();
        assert!((max - 42.0).abs() < 1e-9, "max_us {max}");

        let mut out = fake_output();
        out.registry = None;
        let doc = rfd_telemetry::json::parse(&stats_json(&out).to_json()).unwrap();
        assert!(matches!(
            doc.get("events"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));
        assert!(matches!(
            doc.get("latency"),
            Some(rfd_telemetry::json::JsonValue::Null)
        ));
    }

    #[test]
    fn registry_counters_reach_the_document() {
        let doc_text = stats_json(&fake_output()).to_json();
        let doc = rfd_telemetry::json::parse(&doc_text).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("peaks.detected")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }
}
