//! The streaming core's contract: an [`rfdump::arch::Session`] may be fed in
//! pieces of any size and what it releases, concatenated, is exactly what
//! `run_architecture` reports for the whole trace — records and classified
//! peaks, under every architecture, at any worker count, across a crash and
//! a resume — and over the wire a subscriber holds records while the sender
//! is still sending.
//!
//! Nothing here asserts on elapsed time: `wait_for`'s timeout is a hang
//! guard, not a measurement.

use rfd_dsp::rng::Xoshiro256;
use rfd_dsp::Complex32;
use rfd_integration::{mixed_trace, piconet};
use rfd_mac::{
    merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim, ZigbeeConfig, ZigbeeSim,
};
use rfd_net::{
    FleetConfig, FleetServer, RecordSubscriber, SendRate, StreamMeta, SubEvent, TraceSender,
};
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, Released, Session};
use rfdump::durability::DurabilityConfig;
use rfdump::eval::ClassifiedPeak;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One trace and the configuration it is analysed under.
struct Case {
    name: &'static str,
    cfg: ArchConfig,
    samples: Vec<Complex32>,
    fs: f64,
}

fn rendered(name: &'static str, events: Vec<rfd_mac::TxEvent>, seed: u64) -> Case {
    let events = merge_schedules(vec![events]);
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    let mut scene = rfd_ether::scene::Scene::new(1e-4, seed);
    let gain = 28.0 + rfd_dsp::energy::power_to_db(1e-4);
    for node in 0..24 {
        scene.set_node(node, gain, (node as f64 - 6.0) * 300.0);
    }
    let trace = scene.render(&events, horizon);
    Case {
        name,
        cfg: ArchConfig {
            band: trace.band,
            noise_floor: Some(trace.noise_power),
            zigbee: name == "zigbee",
            telemetry: false,
            ..ArchConfig::rfdump(vec![piconet()])
        },
        fs: trace.band.sample_rate,
        samples: trace.samples,
    }
}

fn golden(name: &'static str) -> Case {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.rfdt"));
    let (header, samples) = rfd_ether::trace::read_trace(&path).unwrap();
    Case {
        name,
        cfg: ArchConfig {
            band: rfd_ether::Band {
                sample_rate: header.sample_rate,
                center_hz: header.center_hz,
            },
            zigbee: name == "zigbee",
            telemetry: false,
            ..ArchConfig::rfdump(vec![piconet()])
        },
        fs: header.sample_rate,
        samples,
    }
}

/// `of`'s trace under a naïve baseline (`kind`) on the same band.
fn baseline(name: &'static str, kind: ArchKind, of: &Case) -> Case {
    Case {
        name,
        cfg: ArchConfig {
            kind,
            band: of.cfg.band,
            noise_floor: of.cfg.noise_floor,
            telemetry: false,
            ..ArchConfig::naive(vec![piconet()])
        },
        samples: of.samples.clone(),
        fs: of.fs,
    }
}

fn is_rfdump(case: &Case) -> bool {
    matches!(case.cfg.kind, ArchKind::RfDump(_))
}

/// Seeded Wi-Fi, Bluetooth, ZigBee and mixed scenes plus the three golden
/// traces under RFDump, then the mixed scene and the Wi-Fi and Bluetooth
/// goldens under each naïve baseline.
fn cases() -> Vec<Case> {
    let mut wifi = WifiDcfSim::new(DcfConfig {
        seed: 311,
        ..Default::default()
    });
    wifi.queue_ping_flow(1, 2, 4, 300, 6_000.0, 0.0);
    let mut bt = L2PingSim::new(L2PingConfig {
        count: 10,
        ..Default::default()
    });
    let mut zigbee = ZigbeeSim::new(ZigbeeConfig {
        count: 6,
        interval_us: 3_000.0,
        seed: 313,
        ..Default::default()
    });
    let mixed = mixed_trace(3, 8, 28.0, 4242);
    let mixed = Case {
        name: "mixed",
        cfg: ArchConfig {
            band: mixed.band,
            noise_floor: Some(mixed.noise_power),
            telemetry: false,
            ..ArchConfig::rfdump(vec![piconet()])
        },
        fs: mixed.band.sample_rate,
        samples: mixed.samples,
    };
    let (naive, energy) = (ArchKind::Naive, ArchKind::NaiveEnergy);
    let (wifi_golden, bt_golden) = (golden("wifi"), golden("bluetooth"));
    let baselines = [
        baseline("mixed naive", naive, &mixed),
        baseline("mixed naive-energy", energy, &mixed),
        baseline("wifi golden naive", naive, &wifi_golden),
        baseline("wifi golden naive-energy", energy, &wifi_golden),
        baseline("bluetooth golden naive", naive, &bt_golden),
        baseline("bluetooth golden naive-energy", energy, &bt_golden),
    ];
    let mut cases = vec![
        rendered("wifi", wifi.run(), 311),
        rendered("bluetooth", bt.run(), 312),
        rendered("zigbee", zigbee.run(), 313),
        mixed,
        golden("wifi"),
        golden("bluetooth"),
        golden("zigbee"),
    ];
    cases.extend(baselines);
    cases
}

/// How a stream is cut into pushes.
#[derive(Debug, Clone, Copy)]
enum Pieces {
    Of(usize),
    /// Seeded sizes in `1..=8192`.
    Random(u64),
}

/// What a run released, in the form `rfdump -r` prints it.
#[derive(Debug, Default, PartialEq)]
struct Stream {
    lines: Vec<String>,
    classified: Vec<ClassifiedPeak>,
}

impl Stream {
    fn absorb(&mut self, released: Released) {
        self.lines
            .extend(released.records.iter().map(|r| r.format_line()));
        self.classified.extend(released.classified);
    }
}

fn offline(cfg: &ArchConfig, samples: &[Complex32], fs: f64) -> Stream {
    let out = run_architecture(cfg, samples, fs);
    Stream {
        lines: out.records.iter().map(|r| r.format_line()).collect(),
        classified: out.classified,
    }
}

/// Pushes `samples` into `session`, cut as `pieces` says.
fn push_cut(session: &mut Session, samples: &[Complex32], pieces: Pieces, got: &mut Stream) {
    let mut rng = Xoshiro256::new(match pieces {
        Pieces::Random(seed) => seed,
        Pieces::Of(_) => 0,
    });
    let mut rest = samples;
    while !rest.is_empty() {
        let n = match pieces {
            Pieces::Of(n) => n,
            Pieces::Random(_) => 1 + rng.next_range(8192) as usize,
        };
        let (piece, tail) = rest.split_at(n.min(rest.len()));
        got.absorb(session.push(piece));
        rest = tail;
    }
}

fn streamed(cfg: &ArchConfig, samples: &[Complex32], fs: f64, pieces: Pieces) -> Stream {
    let mut got = Stream::default();
    let mut session = Session::open(cfg, fs, Some(samples.len() as u64), None);
    push_cut(&mut session, samples, pieces, &mut got);
    got.absorb(session.finish().0);
    got
}

#[test]
fn any_partition_of_the_stream_yields_the_offline_records_and_peaks() {
    for case in cases() {
        let want = offline(&case.cfg, &case.samples, case.fs);
        assert!(
            !want.lines.is_empty(),
            "{}: no records, the property is vacuous",
            case.name
        );
        // The naïve baselines have no analysis pool to size.
        let counts: &[usize] = if is_rfdump(&case) { &[0, 2, 4] } else { &[0] };
        for &workers in counts {
            let cfg = ArchConfig {
                workers,
                ..case.cfg.clone()
            };
            for pieces in [
                Pieces::Of(199),
                Pieces::Of(200),
                Pieces::Of(4096),
                Pieces::Of(1 << 20),
                Pieces::Random(case.samples.len() as u64),
            ] {
                assert_eq!(
                    streamed(&cfg, &case.samples, case.fs, pieces),
                    want,
                    "{} at {workers} workers, pushed in {pieces:?}",
                    case.name
                );
            }
        }
    }
}

#[test]
fn one_sample_at_a_time_yields_the_offline_records_and_peaks() {
    let bluetooth = golden("bluetooth");
    let wifi_naive = baseline("wifi golden naive", ArchKind::Naive, &golden("wifi"));
    for case in [bluetooth, wifi_naive] {
        assert_eq!(
            streamed(&case.cfg, &case.samples, case.fs, Pieces::Of(1)),
            offline(&case.cfg, &case.samples, case.fs),
            "{}",
            case.name
        );
    }
}

#[test]
fn a_session_abandoned_mid_stream_resumes_under_another_partition() {
    let dir = std::env::temp_dir().join(format!("rfd-streaming-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Only RFDump journals; the naïve cases come last, so the seeds of the
    // others do not move.
    for (k, case) in cases().into_iter().filter(is_rfdump).enumerate() {
        let want = offline(&case.cfg, &case.samples, case.fs);
        let mut rng = Xoshiro256::new(0x5E55 + k as u64);
        for (crash_workers, resume_workers) in [(0, 0), (2, 0), (0, 4)] {
            let journal = dir.join(format!("{}-{crash_workers}-{resume_workers}", case.name));
            let journaled = |workers, resume| ArchConfig {
                workers,
                durability: Some(DurabilityConfig {
                    dir: journal.clone(),
                    resume,
                }),
                ..case.cfg.clone()
            };
            // The crash: a journaled session fed up to a seeded sample and
            // dropped without `finish`, as `kill -9` would leave it.
            let n = case.samples.len();
            let cut = n / 4 + rng.next_range(n as u64 / 2) as usize;
            let mut crashed = Session::open(&journaled(crash_workers, false), case.fs, None, None);
            let mut before = Stream::default();
            push_cut(
                &mut crashed,
                &case.samples[..cut],
                Pieces::Random(cut as u64),
                &mut before,
            );
            drop(crashed);

            // The redo, from sample zero, cut differently.
            let mut got = Stream::default();
            let mut resumed = Session::open(&journaled(resume_workers, true), case.fs, None, None);
            assert!(resumed.recovery().is_some_and(|r| r.resumed));
            push_cut(&mut resumed, &case.samples, Pieces::Of(4096), &mut got);
            got.absorb(resumed.finish().0);
            assert_eq!(
                got, want,
                "{}: crash at sample {cut} ({crash_workers} workers), resume at {resume_workers}",
                case.name
            );
            assert!(
                before.lines.len() <= want.lines.len()
                    && before.lines[..] == want.lines[..before.lines.len()],
                "{}: what the crashed run had released is a prefix of the stream",
                case.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "timed out: {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

fn trace_file(name: &str) -> PathBuf {
    // One directory per suite, under cargo's target tmp dir: each run
    // rewrites its files, and `cargo clean` reclaims it.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("rfd-streaming");
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

/// Over `FleetServer` with the real pipeline, under each architecture: the
/// second half of the trace is not sent until the subscriber holds a record
/// of the first.
#[test]
fn records_reach_a_subscriber_before_the_sender_has_finished() {
    let path = trace_file("half-then-half.rfdt");
    let rfdump = ArchConfig::rfdump(vec![piconet()]).kind;
    for kind in [rfdump, ArchKind::Naive, ArchKind::NaiveEnergy] {
        half_then_half(&path, kind);
    }
    let _ = std::fs::remove_file(&path);
}

fn half_then_half(path: &Path, kind: ArchKind) {
    let (header, samples) = rfd_ether::trace::read_trace(path).unwrap();
    let cfg = ArchConfig {
        kind,
        band: rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        },
        telemetry: false,
        workers: 0,
        ..ArchConfig::rfdump(vec![piconet()])
    };
    let want = offline(&cfg, &samples, header.sample_rate).lines;

    let once = FleetConfig {
        expect: Some(1),
        ..Default::default()
    };
    // What `rfdump serve -a ARCH --workers 0` runs; each session takes its
    // band from the stream.
    let factory = rfdump::fleet::pipeline_factory(cfg, None, Default::default());
    let server = FleetServer::bind("127.0.0.1:0", once, factory, None).unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());

    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let seen = Arc::new(Mutex::new(Vec::<String>::new()));
    let collector = {
        let seen = seen.clone();
        std::thread::spawn(move || loop {
            match sub.next_event().unwrap() {
                SubEvent::Record(r) => seen.lock().unwrap().push(r.line),
                SubEvent::Bye => break,
                _ => {}
            }
        })
    };

    let mut reader = rfd_ether::trace::ChunkedTraceReader::open(path).unwrap();
    let mut chunks = Vec::new();
    while let Some(iq) = reader.next_chunk(4096).unwrap() {
        chunks.push(iq);
    }
    let half = chunks.len() / 2;
    let mut held_at_half = 0;
    let paused = chunks.into_iter().enumerate().map(|(k, iq)| {
        if k == half {
            wait_for("a record of the first half reaches the subscriber", || {
                !seen.lock().unwrap().is_empty()
            });
            held_at_half = seen.lock().unwrap().len();
        }
        iq
    });
    let meta = StreamMeta {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
        scale: header.scale,
    };
    let mut tx = TraceSender::connect(addr).unwrap();
    tx.send_quantized(meta, paused, SendRate::Max).unwrap();
    tx.finish().unwrap();
    collector.join().unwrap();
    run.join().unwrap();

    assert!(held_at_half >= 1, "{kind:?}");
    assert!(
        held_at_half < want.len(),
        "{kind:?}: the first half cannot have produced the whole stream"
    );
    assert_eq!(*seen.lock().unwrap(), want, "{kind:?}");
}
