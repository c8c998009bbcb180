//! Fleet churn: throughput and resume latency while one of the fleet's
//! senders is repeatedly killed and resumed.
//!
//! The survivability plane claims a fleet keeps ingesting while individual
//! sensors flap: a killed sender re-handshakes with its source id, the
//! server resumes the parked session from the acked sample, and nothing is
//! replayed or lost. This bench drives a small fleet — `scaled(6)` steady
//! senders plus one chaotic sender whose connection is cut by injected
//! `disconnect` faults on a seeded schedule — and reports:
//!
//! * **churn throughput** — aggregate Msps over the whole run, kills
//!   included (the headline "does churn stall the fleet" number);
//! * **resume latency** — p50/max µs from a cut connection (NetBackoff)
//!   to the session streaming again (NetResume), out of the chaotic
//!   sender's own event log;
//! * **resume accounting** — server-side resumes / disconnects for the
//!   chaotic source, proving the kills actually exercised the resume path.
//!
//! Writes the `fleet_churn` section of the shared `BENCH_fleet.json`
//! (merged with `fleet_ingest`'s section, whichever ran first). Run:
//! `cargo bench -p rfd-bench --bench fleet_churn`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_dsp::Complex32;
use rfd_fault::FaultPlan;
use rfd_net::{FleetConfig, FleetServer, HubMsg, RetryPolicy, SendRate, StreamMeta, TraceSender};
use rfd_telemetry::event::EventKind;
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records each cheap pipeline emits per source.
const RECORDS_PER_SOURCE: usize = 8;

fn main() {
    let steady = scaled(6).max(2);
    let senders = steady + 1; // plus the chaotic one
    let per_sender = 262_144usize;
    let samples: Arc<Vec<Complex32>> = Arc::new(
        (0..per_sender)
            .map(|i| {
                let t = i as f32 / 8e6;
                Complex32::new((t * 1.2e6).sin() * 0.4, (t * 1.2e6).cos() * 0.4)
            })
            .collect(),
    );
    let meta = StreamMeta {
        sample_rate: 8e6,
        center_hz: 2.412e9,
        scale: 1.0,
    };

    let factory: rfd_net::PipelineFactory = Box::new(|_source: &str| {
        Box::new(|_meta: &StreamMeta, samples: Vec<Complex32>| {
            (0..RECORDS_PER_SOURCE)
                .map(|i| rfd_net::RecordMsg {
                    start_us: i as f64 * 100.0,
                    end_us: i as f64 * 100.0 + 50.0,
                    line: format!(
                        "{:08.3} churn-bench record {i} of {}",
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
            resume_grace: Duration::from_secs(30),
            ..Default::default()
        },
        factory,
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    // A draining in-process subscriber keeps the fan-out path live.
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
    let handles: Vec<_> = (0..steady)
        .map(|i| {
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let source = format!("steady-{i:02}");
                let mut tx = TraceSender::connect_source(addr, &source).unwrap();
                let rep = tx
                    .send_samples(meta, &samples, SendRate::Max, 4096)
                    .unwrap();
                tx.finish().unwrap();
                rep.samples
            })
        })
        .collect();

    // The chaotic sender: a seeded fault plan cuts its connection every
    // 24th chunk, three times; each cut re-handshakes with the source id
    // and resumes from the server's ack. Its registry records the
    // NetBackoff → NetResume pairs the resume-latency numbers come from.
    let chaos_reg = Arc::new(Registry::new());
    let victim_trace = {
        // The resilient sender resumes out of a trace file (it re-seeks to
        // the acked sample on reconnect), so the victim streams from disk.
        let dir = std::env::temp_dir().join("rfd-bench-churn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("victim-{}.rfdt", std::process::id()));
        rfd_ether::trace::write_trace(&path, meta.sample_rate, meta.center_hz, &samples).unwrap();
        path
    };
    let chaotic = {
        let path = victim_trace.clone();
        let reg = Arc::clone(&chaos_reg);
        std::thread::spawn(move || {
            let plan =
                Arc::new(FaultPlan::parse("seed=11;disconnect=net.send.chunk%24x3").unwrap());
            let retry = RetryPolicy {
                max_retries: 10,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                ..Default::default()
            };
            let mut tx = TraceSender::connect_retrying(addr, Some("churn-victim"), retry)
                .unwrap()
                .with_faults(Some(plan))
                .with_registry(reg);
            tx.send_trace_file(&path, SendRate::Max, 4096)
                .expect("churn sender must survive its injected kills")
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    let chaos_report = chaotic.join().unwrap();
    let snap = run.join().unwrap();
    let wall = t0.elapsed();
    let records = drain.join().unwrap();

    // Server-side ingest is the truth: resent overlap after a kill is
    // deduped on the wire, so exactly one copy of every sample lands.
    let sent = snap.net.samples_in;
    assert_eq!(snap.sources_done, senders as u64);
    assert_eq!(sent, (senders * per_sender) as u64);
    assert!(
        chaos_report.reconnects >= 1,
        "the seeded kills must actually have fired"
    );
    let victim = snap
        .per_source
        .iter()
        .find(|s| s.source == "churn-victim")
        .unwrap();
    assert!(victim.resumes >= 1, "the victim must have resumed");
    assert_eq!(records, (senders * RECORDS_PER_SOURCE) as u64);

    // Resume latency: pair each NetBackoff with the next NetResume.
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut backoff_at: Option<f64> = None;
    for ev in chaos_reg.events().events() {
        match ev.kind {
            EventKind::NetBackoff => backoff_at = backoff_at.or(Some(ev.ts_us)),
            EventKind::NetResume => {
                if let Some(t) = backoff_at.take() {
                    latencies_us.push(ev.ts_us - t);
                }
            }
            _ => {}
        }
    }
    latencies_us.sort_by(f64::total_cmp);
    let resume_p50_us = latencies_us
        .get(latencies_us.len() / 2)
        .copied()
        .unwrap_or(0.0);
    let resume_max_us = latencies_us.last().copied().unwrap_or(0.0);

    let churn_msps = sent as f64 / wall.as_secs_f64() / 1e6;
    print_table(
        "Fleet churn — steady senders plus one repeatedly killed and resumed",
        &[
            "senders",
            "kills",
            "resumes",
            "samples",
            "wall",
            "churn Msps",
        ],
        &[vec![
            format!("{senders}"),
            format!("{}", chaos_report.reconnects),
            format!("{}", victim.resumes),
            format!("{sent}"),
            format!("{:.3} s", wall.as_secs_f64()),
            format!("{churn_msps:.2}"),
        ]],
    );
    println!(
        "  resume latency: p50={resume_p50_us:.0} µs max={resume_max_us:.0} µs over {} resume(s)  |  \
         victim disconnects={} dup chunks={}",
        latencies_us.len(),
        victim.disconnects,
        victim.chunks_duplicate,
    );

    let mut doc = BenchReport::new("fleet_churn");
    doc.push("churn_senders", JsonValue::num(senders as f64));
    doc.push("churn_samples", JsonValue::num(sent as f64));
    doc.push("churn_wall_s", JsonValue::num(wall.as_secs_f64()));
    doc.push("churn_msps", JsonValue::num(churn_msps));
    doc.push(
        "churn_kills",
        JsonValue::num(chaos_report.reconnects as f64),
    );
    doc.push("churn_resumes", JsonValue::num(victim.resumes as f64));
    doc.push(
        "churn_victim_disconnects",
        JsonValue::num(victim.disconnects as f64),
    );
    doc.push("resume_latency_p50_us", JsonValue::num(resume_p50_us));
    doc.push("resume_latency_max_us", JsonValue::num(resume_max_us));
    doc.push("records", JsonValue::num(records as f64));
    let out = doc.write_merged("fleet").unwrap();
    println!("  wrote {}", out.display());
    let _ = std::fs::remove_file(&victim_trace);
}
