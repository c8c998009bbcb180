//! Fleet ingest: 100+ concurrent loopback senders into one
//! [`rfd_net::FleetServer`] readiness loop.
//!
//! The fleet plane claims a single nonblocking loop can shard a hundred
//! capture sources onto private pipelines without a thread per socket on
//! the ingest side. This bench drives `scaled(100)` senders, each
//! streaming its own source id over localhost at `SendRate::Max`, through
//! a deliberately cheap pipeline (the cost under test is the wire + shard
//! + merge plane, not the DSP), and reports:
//!
//! * **aggregate Msps** — total samples ingested over the wall time from
//!   first connect to fleet drain;
//! * **fan-out latency** — p50/p99 µs from record publish to hub delivery,
//!   both fleet-wide (the `latency.net_fanout_us` histogram) and the
//!   spread of per-source p50s.
//!
//! Writes `BENCH_fleet_ingest.json`. Run:
//! `cargo bench -p rfd-bench --bench fleet_ingest`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_dsp::Complex32;
use rfd_net::{FleetConfig, FleetServer, HubMsg, SendRate, StreamMeta, TraceSender};
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::{Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Records each cheap pipeline emits per source, so the fan-out path gets
/// exercised on every one of them.
const RECORDS_PER_SOURCE: usize = 16;

fn main() {
    let senders = scaled(100);
    let per_sender = 65_536usize;
    let samples: Arc<Vec<Complex32>> = Arc::new(
        (0..per_sender)
            .map(|i| {
                let t = i as f32 / 8e6;
                Complex32::new((t * 1.2e6).sin() * 0.4, (t * 1.2e6).cos() * 0.4)
            })
            .collect(),
    );

    let registry = Arc::new(Registry::new());
    let factory: rfd_net::PipelineFactory = Box::new(|_source: &str| {
        Box::new(|_meta: &StreamMeta, samples: Vec<Complex32>| {
            (0..RECORDS_PER_SOURCE)
                .map(|i| rfd_net::RecordMsg {
                    start_us: i as f64 * 100.0,
                    end_us: i as f64 * 100.0 + 50.0,
                    line: format!(
                        "{:08.3} fleet-bench record {i} of {}",
                        i as f64,
                        samples.len()
                    ),
                })
                .collect()
        })
    });
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            expect: Some(senders as u64),
            ..Default::default()
        },
        factory,
        Some(registry.clone()),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    // One draining in-process subscriber, so fan-out latency is measured
    // with a live consumer on the hub.
    let sub = server.subscribe();
    let drain = std::thread::spawn(move || {
        let mut n = 0u64;
        while let Ok(msg) = sub.rx.recv() {
            match msg {
                HubMsg::SourceRecord { .. } => n += 1,
                HubMsg::Bye => break,
                _ => {}
            }
        }
        n
    });
    let run = std::thread::spawn(move || server.run().unwrap());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..senders)
        .map(|i| {
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let source = format!("sensor-{i:03}");
                let mut tx = TraceSender::connect_source(addr, &source).unwrap();
                let meta = StreamMeta {
                    sample_rate: 8e6,
                    center_hz: 2.412e9,
                    scale: 1.0,
                };
                let rep = tx
                    .send_samples(meta, &samples, SendRate::Max, 4096)
                    .unwrap();
                tx.finish().unwrap();
                (rep.samples, rep.bytes, rep.throttles)
            })
        })
        .collect();
    let mut sent = 0u64;
    let mut wire_bytes = 0u64;
    let mut throttles = 0u64;
    for h in handles {
        let (s, b, t) = h.join().unwrap();
        sent += s;
        wire_bytes += b;
        throttles += t;
    }
    let snap = run.join().unwrap();
    let wall = t0.elapsed();
    let records = drain.join().unwrap();

    assert_eq!(snap.sources_joined, senders as u64);
    assert_eq!(snap.sources_done, senders as u64);
    assert_eq!(snap.net.samples_in, sent);
    assert_eq!(snap.net.decode_errors, 0);
    assert_eq!(records, (senders * RECORDS_PER_SOURCE) as u64);

    let aggregate_msps = sent as f64 / wall.as_secs_f64() / 1e6;
    let ingest_msps = if snap.net.ingest_wall_us > 0 {
        snap.net.samples_in as f64 / snap.net.ingest_wall_us as f64
    } else {
        0.0
    };
    let fanout = registry.histogram("latency.net_fanout_us", || {
        Histogram::exponential(1.0, 1e7, 28)
    });
    let (fan_p50, fan_p99) = (fanout.quantile(0.50), fanout.quantile(0.99));
    let mut p50s: Vec<f64> = snap.per_source.iter().map(|s| s.fanout_p50_us).collect();
    p50s.sort_by(f64::total_cmp);
    let (src_p50_min, src_p50_med, src_p50_max) = (
        p50s.first().copied().unwrap_or(0.0),
        p50s.get(p50s.len() / 2).copied().unwrap_or(0.0),
        p50s.last().copied().unwrap_or(0.0),
    );

    print_table(
        "Fleet ingest — concurrent loopback senders through one readiness loop",
        &[
            "senders",
            "samples",
            "wall",
            "aggregate Msps",
            "ingest Msps",
            "records",
        ],
        &[vec![
            format!("{senders}"),
            format!("{sent}"),
            format!("{:.3} s", wall.as_secs_f64()),
            format!("{aggregate_msps:.2}"),
            format!("{ingest_msps:.2}"),
            format!("{records}"),
        ]],
    );
    println!(
        "  fan-out latency: fleet p50={fan_p50:.1} µs p99={fan_p99:.1} µs  |  \
         per-source p50 min/med/max = {src_p50_min:.1}/{src_p50_med:.1}/{src_p50_max:.1} µs"
    );
    println!(
        "  wire {wire_bytes} bytes, {throttles} throttle(s), {} sample gap(s)",
        snap.net.seq_gaps,
    );

    let mut doc = BenchReport::new("fleet_ingest");
    doc.push("senders", JsonValue::num(senders as f64));
    doc.push("samples_per_sender", JsonValue::num(per_sender as f64));
    doc.push("samples", JsonValue::num(sent as f64));
    doc.push("records", JsonValue::num(records as f64));
    doc.push("wall_s", JsonValue::num(wall.as_secs_f64()));
    doc.push("aggregate_msps", JsonValue::num(aggregate_msps));
    doc.push("ingest_msps", JsonValue::num(ingest_msps));
    doc.push("fanout_p50_us", JsonValue::num(fan_p50));
    doc.push("fanout_p99_us", JsonValue::num(fan_p99));
    doc.push("source_fanout_p50_min_us", JsonValue::num(src_p50_min));
    doc.push("source_fanout_p50_med_us", JsonValue::num(src_p50_med));
    doc.push("source_fanout_p50_max_us", JsonValue::num(src_p50_max));
    doc.push("wire_bytes", JsonValue::num(wire_bytes as f64));
    doc.push("throttles", JsonValue::num(throttles as f64));
    let out = doc.write().unwrap();
    println!("  wrote {}", out.display());
}
