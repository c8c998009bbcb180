//! Chaos scenarios: seeded fault injection through the full pipeline.
//!
//! Three contracts, one per layer of the recovery machinery:
//!
//! 1. **Supervision / quarantine** — a deterministically panicking analyzer
//!    is quarantined after [`QUARANTINE_STRIKES`] strikes; the run finishes
//!    and every *other* protocol's records are byte-identical to the
//!    fault-free run, at any worker count.
//! 2. **Output-preserving faults** — injected latency (`slow`, `cpu`) can
//!    never change the record stream, only its timing.
//! 3. **Wire resilience** — a producer whose connection is dropped
//!    mid-stream by injected `disconnect` faults reconnects, resumes from
//!    the server's acknowledged position, and the subscriber still sees a
//!    stream byte-identical to offline analysis; raw garbage floods never
//!    take the server down.

use rfd_fault::FaultPlan;
use rfd_integration::{arch_server, mixed_trace, piconet, random_bytes, seeded_cases};
use rfd_net::{FleetConfig, RecordSubscriber, RetryPolicy, SendRate, SubEvent, TraceSender};
use rfdump::arch::{run_architecture, ArchConfig, ArchOutput};
use rfdump::dispatch::QUARANTINE_STRIKES;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn run(workers: usize, faults: Option<Arc<FaultPlan>>) -> ArchOutput {
    let trace = mixed_trace(4, 8, 30.0, 99);
    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.band = trace.band;
    cfg.noise_floor = Some(trace.noise_power);
    cfg.telemetry = false;
    cfg.workers = workers;
    cfg.faults = faults;
    run_architecture(&cfg, &trace.samples, trace.band.sample_rate)
}

fn lines_except_wifi(out: &ArchOutput) -> Vec<String> {
    out.records
        .iter()
        .filter(|r| r.protocol != rfd_phy::Protocol::Wifi)
        .map(|r| r.format_line())
        .collect()
}

#[test]
fn panicking_wifi_analyzer_is_quarantined_and_the_rest_is_untouched() {
    let clean = run(0, None);
    let wifi_records = clean
        .records
        .iter()
        .filter(|r| r.protocol == rfd_phy::Protocol::Wifi)
        .count();
    assert!(
        wifi_records as u64 >= QUARANTINE_STRIKES + 2,
        "scene must carry enough Wi-Fi traffic to trip quarantine ({wifi_records} records)"
    );
    assert_eq!(clean.panics, 0);
    assert!(clean.quarantined.is_empty());

    for workers in [0usize, 2] {
        let plan = Arc::new(FaultPlan::parse("seed=1;panic=analyze:wifi").unwrap());
        let faulted = run(workers, Some(plan));
        assert_eq!(
            faulted.quarantined,
            vec!["analyze:wifi-demod".to_string()],
            "workers={workers}"
        );
        assert!(
            faulted.panics >= QUARANTINE_STRIKES,
            "workers={workers}: {} panic(s) survived",
            faulted.panics
        );
        assert_eq!(
            lines_except_wifi(&faulted),
            lines_except_wifi(&clean),
            "workers={workers}: non-Wi-Fi records must be byte-identical"
        );
        let fs = faulted.faults.expect("fault stats must be reported");
        assert!(fs.rules[0].fired >= QUARANTINE_STRIKES);
    }
}

#[test]
fn latency_faults_never_change_the_record_stream() {
    let clean: Vec<String> = run(0, None)
        .records
        .iter()
        .map(|r| r.format_line())
        .collect();
    assert!(!clean.is_empty());
    for workers in [0usize, 2] {
        let plan = Arc::new(
            FaultPlan::parse("seed=7;slow=analyze@0.3/200us;cpu=detect@0.2/100us").unwrap(),
        );
        let out = run(workers, Some(plan));
        let lines: Vec<String> = out.records.iter().map(|r| r.format_line()).collect();
        assert_eq!(lines, clean, "workers={workers}");
        let fs = out.faults.expect("fault stats must be reported");
        assert!(
            fs.rules.iter().any(|r| r.calls > 0),
            "workers={workers}: injection sites were never consulted"
        );
        assert_eq!(out.panics, 0);
        assert!(out.quarantined.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Wire-layer chaos.
// ---------------------------------------------------------------------------

fn trace_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfd-fault-injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let trace = mixed_trace(3, 8, 28.0, 4242);
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .unwrap();
    path
}

fn offline_lines(path: &std::path::Path) -> Vec<String> {
    let (header, samples) = rfd_ether::trace::read_trace(path).unwrap();
    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.band = rfd_ether::Band {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
    };
    cfg.telemetry = false;
    let out = run_architecture(&cfg, &samples, header.sample_rate);
    out.records.iter().map(|r| r.format_line()).collect()
}

#[test]
fn injected_disconnects_resume_without_loss_duplication_or_reorder() {
    let path = trace_file("chaos-resume.rfdt");
    let once = FleetConfig {
        expect: Some(1),
        resume_grace: Duration::from_secs(10),
        ..Default::default()
    };
    let server = arch_server(once, rfdump::arch::default_workers());
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());

    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let plan = Arc::new(FaultPlan::parse("seed=5;disconnect=net.send.chunk%9x3").unwrap());
    let mut tx = TraceSender::connect_retrying(addr, None, RetryPolicy::default())
        .unwrap()
        .with_faults(Some(plan));
    let report = tx
        .send_trace_file(&path, SendRate::Max, 1000)
        .expect("resilient send must survive injected disconnects");
    assert!(
        report.reconnects >= 1,
        "the disconnect faults must actually have fired"
    );

    let mut lines = Vec::new();
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(r) => lines.push(r.line),
            SubEvent::Bye => break,
            _ => {}
        }
    }
    let stats = run.join().unwrap();
    assert_eq!(
        stats.net.sessions, 1,
        "resume must not fork a second session"
    );
    assert!(stats.net.resumes >= 1, "reconnects must go through Resume");
    assert_eq!(
        lines,
        offline_lines(&path),
        "stream after reconnects must be byte-identical to offline"
    );
}

#[test]
fn garbage_floods_never_take_the_server_down() {
    let path = trace_file("chaos-flood.rfdt");
    let server = arch_server(FleetConfig::default(), rfdump::arch::default_workers());
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run().unwrap());

    // Seeded garbage floods: raw bytes, valid-looking prefixes, and abrupt
    // closes. The server must reject each without dying.
    seeded_cases(0xF100D, 8, |rng| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let junk = random_bytes(rng, 1, 8192);
        let _ = s.write_all(&junk);
        let _ = s.flush();
    });
    // Wait until the floods have been seen and at least one was rejected as
    // malformed (tiny floods may close before a full frame header arrives).
    let t0 = std::time::Instant::now();
    while (handle.stats().net.connections < 8 || handle.stats().net.decode_errors == 0)
        && t0.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        handle.stats().net.decode_errors >= 1,
        "garbage must be rejected, not silently accepted"
    );

    // A good session afterwards must still work end to end.
    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let mut tx = TraceSender::connect_retrying(addr, None, RetryPolicy::default()).unwrap();
    let report = tx.send_trace_file(&path, SendRate::Max, 2000).unwrap();
    assert!(report.samples > 0);
    let mut records = 0u64;
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(_) => records += 1,
            SubEvent::Stats(_) => break, // end-of-session stats frame
            SubEvent::Bye => break,
            _ => {}
        }
    }
    assert_eq!(records as usize, offline_lines(&path).len());
    handle.shutdown();
    run.join().unwrap();
}

/// The next event of the replayable stream: heartbeats are connection
/// events, outside it.
fn next_stream_event(mut read: impl FnMut() -> std::io::Result<SubEvent>) -> SubEvent {
    loop {
        match read().unwrap() {
            SubEvent::Heartbeat => {}
            ev => return ev,
        }
    }
}

/// Stream events up to and including the server's Bye.
fn stream_to_bye(mut read: impl FnMut() -> std::io::Result<SubEvent>) -> Vec<SubEvent> {
    let mut events = Vec::new();
    loop {
        let ev = next_stream_event(&mut read);
        events.push(ev.clone());
        if ev == SubEvent::Bye {
            return events;
        }
    }
}

#[test]
fn journaled_watch_resumes_exactly_once_across_a_restart() {
    // Eight records per source, so the stream is long enough to cut.
    let factory: rfd_net::PipelineFactory = Box::new(|_source: &str| {
        Box::new(
            |_meta: &rfd_net::StreamMeta, samples: Vec<rfd_dsp::Complex32>| {
                (0..samples.len() / 64)
                    .map(|i| rfd_net::RecordMsg {
                        start_us: i as f64,
                        end_us: i as f64 + 1.0,
                        line: format!("record {i}"),
                    })
                    .collect::<Vec<_>>()
            },
        )
    });
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            expect: Some(2),
            ..Default::default()
        },
        factory,
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());
    let dir = std::env::temp_dir().join(format!("rfd-journaled-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let send = |source: &str| {
        let meta = rfd_net::StreamMeta {
            sample_rate: 8e6,
            center_hz: 0.0,
            scale: 1.0,
        };
        let samples = vec![rfd_dsp::Complex32::new(0.1, -0.1); 512];
        let mut tx = rfd_net::TraceSender::connect_source(addr, source).unwrap();
        tx.send_samples(meta, &samples, SendRate::Max, 128).unwrap();
        tx.finish().unwrap();
    };
    let mut reference = RecordSubscriber::connect(addr).unwrap();
    let mut first = RecordSubscriber::connect_journaled(addr.to_string(), &dir).unwrap();
    send("a");
    // The first watcher takes five events and dies while processing the
    // fifth: only the four before it were acknowledged by a later fetch.
    let mut seen: Vec<SubEvent> = (0..5)
        .map(|_| next_stream_event(|| first.next_event()))
        .collect();
    drop(first);
    seen.pop();

    // A fresh watcher on the same directory resumes at the checkpoint and
    // reads through the second source to the server's Bye.
    let mut second = RecordSubscriber::connect_journaled(addr.to_string(), &dir).unwrap();
    send("b");
    seen.extend(stream_to_bye(|| second.next_event()));
    let uninterrupted = stream_to_bye(|| reference.next_event());
    run.join().unwrap();
    assert!(uninterrupted.len() > 5 + 8, "{uninterrupted:?}");
    assert_eq!(
        seen, uninterrupted,
        "restarted watch must see every event exactly once"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Fleet chaos: kill one of three senders mid-stream and let it reconnect.
// ---------------------------------------------------------------------------

/// A distinct seeded scene per source, so cross-source contamination after
/// a resume would show up in the diffs.
fn fleet_trace_file(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("rfd-fault-injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let trace = mixed_trace(3, 8, 28.0, seed);
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .unwrap();
    path
}

fn fleet_offline_lines(path: &std::path::Path, workers: usize) -> Vec<String> {
    let (header, samples) = rfd_ether::trace::read_trace(path).unwrap();
    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.band = rfd_ether::Band {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
    };
    cfg.telemetry = false;
    cfg.workers = workers;
    let out = run_architecture(&cfg, &samples, header.sample_rate);
    out.records.iter().map(|r| r.format_line()).collect()
}

/// The fleet survivability contract: three concurrent sources, one sender
/// repeatedly killed by injected disconnects. The resilient sender
/// re-handshakes with its source id, the server resumes the parked
/// session, and every source's record stream — the killed one included —
/// is byte-identical to offline analysis of its trace.
fn fleet_sender_kill_restart_matches_offline(workers: usize) {
    use std::collections::BTreeMap;
    let names = ["roof", "lab-3", "van.2"];
    let paths: Vec<PathBuf> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            fleet_trace_file(&format!("chaos-fleet-{n}-w{workers}.rfdt"), 7000 + i as u64)
        })
        .collect();
    let offline: Vec<Vec<String>> = paths
        .iter()
        .map(|p| fleet_offline_lines(p, workers))
        .collect();
    assert!(
        offline.iter().all(|l| !l.is_empty()),
        "every scene must produce records for the diff to mean anything"
    );

    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.telemetry = false;
    cfg.workers = workers;
    let slot = Arc::new(std::sync::Mutex::new(None));
    let factory = rfdump::fleet::pipeline_factory(cfg, None, slot);
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            expect: Some(names.len() as u64),
            resume_grace: Duration::from_secs(10),
            ..Default::default()
        },
        factory,
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());
    let mut net_sub = RecordSubscriber::connect(addr).unwrap();

    // Two healthy senders, plus one whose connection is repeatedly dropped
    // by injected faults (the same plan the single-stream resume test
    // proves fires at this trace size and chunking).
    let healthy: Vec<_> = names[..2]
        .iter()
        .zip(paths[..2].iter())
        .map(|(name, path)| {
            let name = name.to_string();
            let path = path.clone();
            std::thread::spawn(move || {
                let mut tx = rfd_net::TraceSender::connect_source(addr, &name).unwrap();
                tx.send_trace_file(&path, SendRate::Max, 1000).unwrap();
                tx.finish().unwrap();
            })
        })
        .collect();
    let chaotic = {
        let path = paths[2].clone();
        let plan = Arc::new(FaultPlan::parse("seed=5;disconnect=net.send.chunk%9x3").unwrap());
        std::thread::spawn(move || {
            let mut tx = TraceSender::connect_retrying(addr, Some("van.2"), RetryPolicy::default())
                .unwrap()
                .with_faults(Some(plan));
            tx.send_trace_file(&path, SendRate::Max, 1000)
                .expect("fleet resilient send must survive injected disconnects")
        })
    };
    for t in healthy {
        t.join().unwrap();
    }
    let report = chaotic.join().unwrap();
    assert!(
        report.reconnects >= 1,
        "the disconnect faults must actually have fired (w={workers})"
    );

    // Partition the merged tagged stream by source.
    let mut by_tag: BTreeMap<String, Vec<String>> = BTreeMap::new();
    loop {
        match net_sub.next_event().unwrap() {
            SubEvent::SourceRecord { source, record } => {
                by_tag.entry(source).or_default().push(record.line)
            }
            SubEvent::Bye => break,
            _ => {}
        }
    }
    let snap = run.join().unwrap();
    assert_eq!(snap.sources_done, names.len() as u64, "w={workers}");
    assert!(
        snap.resumes >= 1,
        "the fleet must have resumed the killed source (w={workers})"
    );
    let van = snap
        .per_source
        .iter()
        .find(|s| s.source == "van.2")
        .unwrap();
    assert!(
        van.resumes >= 1 && van.disconnects >= 1,
        "per-source resume accounting must reflect the kills (w={workers})"
    );
    for (name, offline) in names.iter().zip(offline.iter()) {
        assert_eq!(
            by_tag.get(*name),
            Some(offline),
            "stream for '{name}' must be byte-identical to offline after kill/restart (w={workers})"
        );
    }
}

/// The bounded-latency overload contract: one source's consumer is
/// cpu-starved by injected faults, blowing its deadline budget sweep after
/// sweep. The shed ladder must engage (budget violations booked, throttle
/// advisories sent, drop-oldest forcing room), while the unfaulted source
/// stays under budget and its record stream stays byte-identical to
/// offline analysis.
///
/// The deadline metric is, per chunk, how long it waited in the source's
/// queue and, per record, the time from the start of the push that released
/// it to its publication. For the clean source that is the cost of
/// analysing 1000-sample chunks, at most a queue's worth (32) of them:
/// milliseconds against the 100 ms budget, even while the starved source's
/// spinning thread holds one of two cores.
#[test]
fn fleet_cpu_chaos_sheds_the_starved_source_and_keeps_the_clean_one_byte_identical() {
    use std::collections::BTreeMap;
    let laggy_path = fleet_trace_file("chaos-overload-laggy.rfdt", 7100);
    let quick_path = fleet_trace_file("chaos-overload-quick.rfdt", 7101);
    let quick_offline = fleet_offline_lines(&quick_path, 0);
    assert!(!quick_offline.is_empty());

    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.telemetry = false;
    cfg.workers = 0;
    let slot = Arc::new(std::sync::Mutex::new(None));
    let factory = rfdump::fleet::pipeline_factory(cfg, None, slot);
    let reg = Arc::new(rfd_telemetry::Registry::new());
    // Spin 10 ms on every chunk popped for "laggy" only: its queue waits
    // pile up to queue_cap × 10 ms ≫ the 100 ms budget, while "quick"'s
    // consumer (its own thread) is untouched.
    let plan = Arc::new(FaultPlan::parse("seed=11;cpu=net.fleet.analysis.laggy/10ms").unwrap());
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            expect: Some(2),
            queue_cap: 32,
            latency_budget: Some(Duration::from_millis(100)),
            faults: Some(plan),
            ..Default::default()
        },
        factory,
        Some(reg.clone()),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());
    let mut net_sub = RecordSubscriber::connect(addr).unwrap();

    let senders: Vec<_> = [("laggy", &laggy_path), ("quick", &quick_path)]
        .into_iter()
        .map(|(name, path)| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut tx = rfd_net::TraceSender::connect_source(addr, name).unwrap();
                tx.send_trace_file(&path, SendRate::Max, 1000).unwrap();
                tx.finish().unwrap();
            })
        })
        .collect();
    for t in senders {
        t.join().unwrap();
    }

    let mut by_tag: BTreeMap<String, Vec<String>> = BTreeMap::new();
    loop {
        match net_sub.next_event().unwrap() {
            SubEvent::SourceRecord { source, record } => {
                by_tag.entry(source).or_default().push(record.line)
            }
            SubEvent::Bye => break,
            _ => {}
        }
    }
    let snap = run.join().unwrap();
    let lat = snap.latency.expect("budget run must carry latency stats");
    assert!(
        lat.violations >= 2,
        "the starved source must violate across sweeps, got {}",
        lat.violations
    );
    assert!(
        lat.shed_throttle >= 1,
        "the throttle rung must have fired an advisory"
    );
    assert!(
        reg.counter("events.budget_violated").get() >= 1,
        "budget_violated events must reach the registry"
    );
    assert!(
        reg.counter("events.source_shed").get() >= 1,
        "source_shed events must reach the registry"
    );
    let row = |name: &str| snap.per_source.iter().find(|s| s.source == name).unwrap();
    assert!(
        row("laggy").deadline_p99_us > 100_000.0,
        "the starved source's deadline p99 must be over budget, got {}",
        row("laggy").deadline_p99_us
    );
    assert!(
        row("quick").deadline_p99_us < 100_000.0,
        "the clean source must stay under budget, got {}",
        row("quick").deadline_p99_us
    );
    assert_eq!(row("quick").shed, "none", "only the offender is shed");
    assert!(
        snap.per_source
            .iter()
            .all(|s| s.health == rfd_net::SourceHealth::Healthy),
        "shedding must never escalate the health machine"
    );
    assert_eq!(
        by_tag.get("quick"),
        Some(&quick_offline),
        "the unfaulted source's stream must be byte-identical to offline"
    );
    assert!(
        !by_tag.get("laggy").is_none_or(Vec::is_empty),
        "the shed source still publishes what survived"
    );
}

#[test]
fn fleet_sender_killed_and_restarted_is_byte_identical_single_threaded() {
    fleet_sender_kill_restart_matches_offline(0);
}

#[test]
fn fleet_sender_killed_and_restarted_is_byte_identical_with_workers() {
    fleet_sender_kill_restart_matches_offline(4);
}
