//! What a plain `serve` session — an untagged sender, an *anonymous* source
//! — must keep doing. The first five tests checked the single-session
//! server this crate used to have; they run against the one ingest server
//! now, names unchanged. The rest pin what the merge added: anonymous and
//! tagged sources side by side, takeover on an early reconnect, no growth
//! per session, and the [`Server`] preset.

use super::*;
use crate::client::{RecordSubscriber, SendRate, SubEvent, TraceSender};
use crate::fleet::tests::{meta, stub_factory, wait_for};
use crate::fleet::{FleetHandle, FleetSnapshot};
use crate::frame::Role;
use crate::queue::OverflowPolicy;
use std::net::SocketAddr;

type Running = std::thread::JoinHandle<FleetSnapshot>;

fn start(cfg: FleetConfig) -> (SocketAddr, FleetHandle, Running) {
    let server = FleetServer::bind("127.0.0.1:0", cfg, stub_factory(), None).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    (
        addr,
        handle,
        std::thread::spawn(move || server.run().unwrap()),
    )
}

fn once() -> FleetConfig {
    FleetConfig {
        expect: Some(1),
        ..Default::default()
    }
}

/// A producer driven frame by frame, for handshakes no client type makes.
struct RawProducer {
    stream: TcpStream,
    dec: FrameDecoder,
    seq: u32,
}

impl RawProducer {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut p = Self {
            stream,
            dec: FrameDecoder::new(),
            seq: 0,
        };
        p.send(&Frame::Hello(Role::Producer));
        p
    }

    fn send(&mut self, frame: &Frame) {
        self.stream
            .write_all(&encode_frame(frame, self.seq))
            .unwrap();
        self.seq += 1;
    }

    fn chunk(&mut self, start_sample: u64, n: usize) {
        self.send(&Frame::SampleChunk {
            start_sample,
            iq: vec![(7, -7); n],
        });
    }

    /// The next server→producer frame; `None` once the server has closed.
    fn recv(&mut self) -> Option<Frame> {
        loop {
            if let Some(SeqFrame { frame, .. }) = self.dec.next_frame().unwrap() {
                return Some(frame);
            }
            let mut buf = [0u8; 1024];
            match self.stream.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.push(&buf[..n]),
            }
        }
    }
}

/// Drains a subscriber to the global Bye; returns the bare record lines.
fn bare_lines(sub: &mut RecordSubscriber) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(r) => lines.push(r.line),
            SubEvent::Bye => return lines,
            _ => {}
        }
    }
}

#[test]
fn loopback_session_reaches_a_subscriber() {
    let (addr, _handle, run) = start(once());
    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let samples: Vec<Complex32> = (0..10_000)
        .map(|i| Complex32::new((i as f32 * 0.01).sin(), 0.0))
        .collect();
    let mut tx = TraceSender::connect(addr).unwrap();
    let report = tx
        .send_samples(meta(), &samples, SendRate::Max, 1024)
        .unwrap();
    tx.finish().unwrap();
    assert_eq!(report.samples, 10_000);

    let mut lines = Vec::new();
    let mut saw_stats = false;
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(r) => lines.push(r.line),
            SubEvent::Stats(_) => saw_stats = true,
            SubEvent::Bye => break,
            _ => {}
        }
    }
    assert_eq!(lines, vec!["session of 10000 samples".to_string()]);
    assert!(saw_stats, "session must publish a stats document");

    let stats = run.join().unwrap();
    assert_eq!(stats.net.sessions, 1);
    assert_eq!(stats.net.samples_in, 10_000);
    assert_eq!(stats.net.producers, 1);
    assert_eq!(stats.net.subscribers, 1);
    assert_eq!(stats.net.decode_errors, 0);
    assert!(stats.net.ingest_rt_ratio() > 0.0);
    assert_eq!((stats.sources_joined, stats.sources_done), (1, 1));
}

#[test]
fn malformed_first_frame_is_counted_and_dropped() {
    let (addr, handle, run) = start(FleetConfig::default());
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n this is not RFDN")
        .unwrap();
    drop(s);
    wait_for("garbage rejected", || handle.stats().net.decode_errors > 0);
    assert_eq!(handle.stats().net.decode_errors, 1);
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn dropped_producer_resumes_without_loss_or_duplication() {
    let (addr, handle, run) = start(FleetConfig {
        resume_grace: Duration::from_secs(10),
        ..once()
    });
    let mut sub = RecordSubscriber::connect(addr).unwrap();

    // First connection: meta + samples [0, 2000), then vanish mid-stream.
    {
        let mut p = RawProducer::connect(addr);
        p.send(&Frame::StreamMeta(meta()));
        p.chunk(0, 1000);
        p.chunk(1000, 1000);
        wait_for("both chunks ingested", || {
            handle.stats().net.samples_in == 2000
        });
    } // dropped without Bye → session parks
    wait_for("session parked", || handle.stats().net.sessions_parked == 1);

    // Second connection: resume, resend the overlap, finish the stream.
    let mut p = RawProducer::connect(addr);
    p.send(&Frame::Resume {
        session: 1,
        position: 0,
    });
    // The server's authoritative ack tells us where to resume.
    assert_eq!(
        p.recv(),
        Some(Frame::Ack {
            session: 1,
            position: 2000
        }),
        "server must have ingested both chunks"
    );
    p.chunk(1000, 1000); // overlap: deduped
    p.chunk(2000, 1000);
    p.send(&Frame::Bye);

    assert_eq!(bare_lines(&mut sub), vec!["session of 3000 samples"]);
    let stats = run.join().unwrap();
    assert_eq!(
        stats.net.sessions, 1,
        "one logical session across reconnects"
    );
    assert_eq!((stats.net.resumes, stats.resumes), (1, 1));
    assert_eq!(stats.net.sessions_parked, 1);
    assert_eq!(
        stats.net.samples_in, 3000,
        "duplicates must not be recounted"
    );
    assert_eq!(stats.net.chunks_duplicate, 1);
    assert_eq!(stats.net.sample_gaps, 0);
    assert!(stats.net.acks_sent >= 2);
}

#[test]
fn resuming_an_unknown_session_is_refused_with_a_bye() {
    let (addr, handle, run) = start(FleetConfig::default());
    let mut p = RawProducer::connect(addr);
    p.send(&Frame::Resume {
        session: 999,
        position: 0,
    });
    assert_eq!(
        p.recv(),
        Some(Frame::Bye),
        "unknown session must be refused with a Bye"
    );
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn drop_oldest_overflow_counts_dropped_chunks() {
    // A cap-1 queue flooded faster than the drainer accumulates. Whether
    // anything is dropped depends on the machine, so assert only that the
    // session completes and samples_in counts every wire sample.
    let (addr, _handle, run) = start(FleetConfig {
        queue_cap: 1,
        overflow: OverflowPolicy::DropOldest,
        ..once()
    });
    let samples: Vec<Complex32> = vec![Complex32::new(0.1, -0.1); 50_000];
    let mut tx = TraceSender::connect(addr).unwrap();
    tx.send_samples(meta(), &samples, SendRate::Max, 512)
        .unwrap();
    tx.finish().unwrap();
    let stats = run.join().unwrap();
    assert_eq!(stats.net.samples_in, 50_000);
    assert_eq!(stats.net.sessions, 1);
}

#[test]
fn anonymous_and_tagged_sources_share_one_server() {
    let (addr, _handle, run) = start(FleetConfig {
        expect: Some(3),
        ..Default::default()
    });
    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let senders: Vec<_> = [None, Some("roof"), Some("van.2")]
        .into_iter()
        .enumerate()
        .map(|(k, tag)| {
            std::thread::spawn(move || {
                let samples = vec![Complex32::new(0.1, -0.1); 1000 * (k + 1)];
                let mut tx = match tag {
                    Some(id) => TraceSender::connect_source(addr, id),
                    None => TraceSender::connect(addr),
                }
                .unwrap();
                tx.send_samples(meta(), &samples, SendRate::Max, 256)
                    .unwrap();
                tx.finish().unwrap();
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }

    // Each source's own sequence, as one unfiltered subscriber sees it:
    // the anonymous one bare, the tagged ones under their ids.
    let mut seen: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    let mut note = |who: &str, what: String| seen.entry(who.into()).or_default().push(what);
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Meta(_) => note("", "meta".into()),
            SubEvent::Record(r) => note("", r.line),
            SubEvent::Stats(_) => note("", "stats".into()),
            SubEvent::SourceMeta { source, .. } => note(&source, "meta".into()),
            SubEvent::SourceRecord { source, record } => note(&source, record.line),
            SubEvent::SourceBye { source } => note(&source, "bye".into()),
            SubEvent::Bye => break,
            SubEvent::Heartbeat => {}
        }
    }
    let stream = |n: usize, end: &str| {
        vec![
            "meta".to_string(),
            format!("session of {n} samples"),
            end.to_string(),
        ]
    };
    assert_eq!(seen[""], stream(1000, "stats"));
    assert_eq!(seen["roof"], stream(2000, "bye"));
    assert_eq!(seen["van.2"], stream(3000, "bye"));
    assert_eq!(seen.len(), 3);

    let stats = run.join().unwrap();
    assert_eq!((stats.sources_joined, stats.sources_done), (3, 3));
    assert_eq!(stats.net.samples_in, 6000);
    let rows: Vec<&str> = stats.per_source.iter().map(|s| s.source.as_str()).collect();
    assert_eq!(rows, ["roof", "van.2"], "only ids keep a row");
}

#[test]
fn sequential_anonymous_sessions_leave_no_rows_behind() {
    let (addr, handle, run) = start(FleetConfig::default());
    let samples = vec![Complex32::new(0.1, -0.1); 256];
    for _ in 0..50 {
        let mut tx = TraceSender::connect(addr).unwrap();
        tx.send_samples(meta(), &samples, SendRate::Max, 128)
            .unwrap();
        tx.finish().unwrap();
    }
    wait_for("all sessions published", || {
        handle.stats().sources_done == 50
    });
    let stats = handle.stats();
    assert!(
        stats.per_source.is_empty(),
        "rows left: {:?}",
        stats.per_source
    );
    assert_eq!(stats.net.sessions, 50);
    assert_eq!(stats.net.samples_in, 50 * 256);
    // A finished ordinal is refused exactly like one that never existed.
    let mut p = RawProducer::connect(addr);
    p.send(&Frame::Resume {
        session: 7,
        position: 0,
    });
    assert_eq!(p.recv(), Some(Frame::Bye));
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn resume_while_the_old_connection_is_attached_takes_over() {
    let (addr, handle, run) = start(FleetConfig {
        resume_grace: Duration::from_secs(10),
        ..once()
    });
    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let mut old = RawProducer::connect(addr);
    old.send(&Frame::StreamMeta(meta()));
    old.chunk(0, 1000);
    wait_for("first chunk ingested", || {
        handle.stats().net.samples_in == 1000
    });

    // The sender gave up on `old` (say, a stalled path) and reconnects
    // before the server has any reason to think `old` is dead.
    let mut new = RawProducer::connect(addr);
    new.send(&Frame::Resume {
        session: 1,
        position: 0,
    });
    assert_eq!(
        new.recv(),
        Some(Frame::Ack {
            session: 1,
            position: 1000
        }),
        "a live session must be taken over, not refused"
    );
    // The superseded connection is closed without touching the session.
    assert_eq!(
        old.recv(),
        Some(Frame::Ack {
            session: 1,
            position: 0
        })
    );
    assert_eq!(old.recv(), None, "newest connection wins");
    new.chunk(1000, 1000);
    new.send(&Frame::Bye);

    assert_eq!(bare_lines(&mut sub), vec!["session of 2000 samples"]);
    let stats = run.join().unwrap();
    assert_eq!(stats.net.resumes, 1);
    assert_eq!(stats.net.sessions_parked, 0, "a takeover never parks");
    assert_eq!((stats.net.sessions, stats.net.samples_in), (1, 2000));
}

#[test]
fn server_preset_is_a_once_fleet_of_one_shared_pipeline() {
    // bench/src/bin/perf_trace/micro.rs `ingest`, in miniature.
    let cfg = ServerConfig { once: true };
    let stub = |_: &StreamMeta, _: Vec<Complex32>| Vec::<RecordMsg>::new();
    let server = Server::bind("127.0.0.1:0", cfg, Box::new(stub), None).unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run());
    let iq = vec![(3i16, -3i16); 10_000];
    let mut tx = TraceSender::connect(addr).unwrap();
    tx.send_quantized(meta(), iq.chunks(4096).map(<[_]>::to_vec), SendRate::Max)
        .unwrap();
    tx.finish().unwrap();
    let stats = run.join().unwrap().unwrap();
    assert_eq!(stats.samples_in, 10_000);
    assert_eq!(stats.sessions, 1);
}
