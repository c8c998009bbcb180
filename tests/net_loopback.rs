//! Live loopback vs offline differential: a trace replayed through
//! `TraceSender → FleetServer(LivePipeline) → RecordSubscriber` must yield
//! a record stream **byte-identical** to offline `run_architecture` on the
//! same trace — at any worker count, from an untagged sender (a plain
//! `serve` session) and from tagged ones. This is the acceptance contract of
//! the whole net subsystem: the wire (i16 IQ + scale) and the chunk-by-
//! chunk push into the streaming session preserve both samples and
//! ordering exactly.

use rfd_integration::{arch_server, mixed_trace, piconet};
use rfd_net::{
    FleetConfig, FleetServer, HubMsg, RecordSubscriber, SendRate, SubEvent, TraceSender,
};
use rfdump::arch::{run_architecture, ArchConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Renders the mixed scene once and stores it as a `.rfdt` file, the way
/// a real deployment would replay a USRP capture.
fn trace_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rfd-net-loopback");
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

fn offline_lines(path: &std::path::Path, workers: usize) -> Vec<String> {
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

fn loopback_lines(path: &std::path::Path, workers: usize, rate: SendRate) -> Vec<String> {
    let once = FleetConfig {
        expect: Some(1),
        queue_cap: 8,
        ..Default::default()
    };
    let server = arch_server(once, workers);
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());

    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let mut tx = TraceSender::connect(addr).unwrap();
    let report = tx.send_trace_file(path, rate, 1000).unwrap();
    tx.finish().unwrap();
    assert!(report.samples > 0);

    let mut lines = Vec::new();
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(r) => lines.push(r.line),
            SubEvent::Bye => break,
            _ => {}
        }
    }
    let stats = run.join().unwrap().net;
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.samples_in, report.samples);
    assert_eq!(stats.seq_gaps, 0, "lossless path must have no seq gaps");
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.chunks_dropped, 0, "block policy must not drop");
    lines
}

#[test]
fn loopback_is_byte_identical_to_offline_at_any_worker_count() {
    let path = trace_file("identity.rfdt");
    let offline0 = offline_lines(&path, 0);
    assert!(
        !offline0.is_empty(),
        "scene must produce records for the diff to mean anything"
    );
    for workers in [0usize, 4] {
        let offline = offline_lines(&path, workers);
        assert_eq!(
            offline, offline0,
            "offline output must not vary (w={workers})"
        );
        let live = loopback_lines(&path, workers, SendRate::Max);
        assert_eq!(
            live, offline,
            "live stream must be byte-identical to offline (w={workers})"
        );
    }
}

#[test]
fn two_subscribers_see_the_same_stream() {
    let path = trace_file("fanout.rfdt");
    let once = FleetConfig {
        expect: Some(1),
        ..Default::default()
    };
    let server = arch_server(once, 0);
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());

    let subs: Vec<RecordSubscriber> = (0..2)
        .map(|_| RecordSubscriber::connect(addr).unwrap())
        .collect();
    let mut tx = TraceSender::connect(addr).unwrap();
    tx.send_trace_file(&path, SendRate::Max, 4096).unwrap();
    tx.finish().unwrap();

    let mut streams = Vec::new();
    for mut sub in subs {
        let mut lines = Vec::new();
        loop {
            match sub.next_event().unwrap() {
                SubEvent::Record(r) => lines.push(r.line),
                SubEvent::Bye => break,
                _ => {}
            }
        }
        streams.push(lines);
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[0], offline_lines(&path, 0));
    let stats = run.join().unwrap().net;
    assert_eq!(stats.subscribers, 2);
    assert_eq!(stats.subscribers_evicted, 0);
}

/// Renders a distinct scene per fleet source, so cross-source
/// contamination would be caught by the per-source diffs.
fn fleet_trace_file(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("rfd-net-loopback");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let trace = mixed_trace(2, 4, 28.0, seed);
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .unwrap();
    path
}

/// The fleet acceptance contract: three concurrent senders, each source's
/// record stream — whether observed through an in-process filtered hub
/// subscription or partitioned out of a network subscriber's tagged
/// stream — must be byte-identical to running that trace alone offline.
fn fleet_sources_match_offline(workers: usize) {
    let names = ["roof", "lab-3", "van.2"];
    let paths: Vec<PathBuf> = names
        .iter()
        .enumerate()
        .map(|(i, n)| fleet_trace_file(&format!("fleet-{n}-w{workers}.rfdt"), 9000 + i as u64))
        .collect();
    let offline: Vec<Vec<String>> = paths.iter().map(|p| offline_lines(p, workers)).collect();
    assert!(
        offline.iter().all(|l| !l.is_empty()),
        "every scene must produce records for the diff to mean anything"
    );

    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.telemetry = false;
    cfg.workers = workers;
    let slot = Arc::new(Mutex::new(None));
    let factory = rfdump::fleet::pipeline_factory(cfg, None, slot);
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            expect: Some(names.len() as u64),
            ..Default::default()
        },
        factory,
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    // One filtered in-process subscription per source...
    let filtered: Vec<_> = names.iter().map(|n| server.subscribe_filtered(n)).collect();
    let run = std::thread::spawn(move || server.run().unwrap());
    // ...plus one network subscriber seeing the whole merged stream (its
    // handshake needs the readiness loop running).
    let mut net_sub = RecordSubscriber::connect(addr).unwrap();

    let senders: Vec<_> = names
        .iter()
        .zip(paths.iter())
        .map(|(name, path)| {
            let name = name.to_string();
            let path = path.clone();
            std::thread::spawn(move || {
                let mut tx = TraceSender::connect_source(addr, &name).unwrap();
                let report = tx.send_trace_file(&path, SendRate::Max, 1000).unwrap();
                tx.finish().unwrap();
                report.samples
            })
        })
        .collect();
    let sent: u64 = senders.into_iter().map(|t| t.join().unwrap()).sum();

    // Partition the network subscriber's merged stream by tag.
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
    assert_eq!(snap.sources_joined, names.len() as u64);
    assert_eq!(snap.sources_done, names.len() as u64);
    assert_eq!(snap.net.samples_in, sent);
    assert_eq!(snap.net.decode_errors, 0);

    for ((name, sub), offline) in names.iter().zip(filtered).zip(offline.iter()) {
        let mut lines = Vec::new();
        loop {
            match sub.rx.recv().unwrap() {
                HubMsg::SourceRecord { record, .. } => lines.push(record.line),
                HubMsg::SourceBye { .. } | HubMsg::Bye => break,
                _ => {}
            }
        }
        assert_eq!(
            &lines, offline,
            "filtered hub stream for '{name}' must be byte-identical to offline (w={workers})"
        );
        assert_eq!(
            by_tag.get(*name),
            Some(offline),
            "tagged network stream for '{name}' must be byte-identical to offline (w={workers})"
        );
        let per = snap.per_source.iter().find(|s| s.source == *name).unwrap();
        assert_eq!(per.records, offline.len() as u64);
        assert!(per.done);
    }
}

#[test]
fn fleet_sources_are_byte_identical_to_offline_single_threaded() {
    fleet_sources_match_offline(0);
}

#[test]
fn fleet_sources_are_byte_identical_to_offline_with_workers() {
    fleet_sources_match_offline(4);
}

#[test]
fn real_time_pacing_still_matches_offline() {
    // A short tail of the scene at real-time rate: pacing changes arrival
    // timing, which must not leak into the analysis output.
    let dir = std::env::temp_dir().join("rfd-net-loopback");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("paced.rfdt");
    let trace = mixed_trace(1, 2, 28.0, 777);
    // Keep the paced replay under ~150 ms of signal.
    let n = trace
        .samples
        .len()
        .min((trace.band.sample_rate * 0.15) as usize);
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples[..n],
    )
    .unwrap();
    let offline = offline_lines(&path, 0);
    let live = loopback_lines(&path, 0, SendRate::RealTime);
    assert_eq!(live, offline);
}
