//! Golden-trace snapshots: three small deterministic i16 I/Q traces
//! committed under `tests/golden/` together with the exact record stream
//! the pipeline must report for each. The Wi-Fi and Bluetooth traces also
//! pin the two naïve baselines (`<name>.naive.expected`,
//! `<name>.naive-energy.expected`), configured as `rfdump -r TRACE -a
//! naive|naive-energy -p 9E8B33:47` configures them.
//!
//! The `.rfdt` file is the source of truth — the pipeline's input is its
//! decoded (i16-quantized) samples, so the expected output is a property
//! of the committed bytes, not of the simulator that once produced them.
//! Any intentional analysis change regenerates the `.expected` files:
//!
//! ```text
//! RFD_REGEN_GOLDEN=1 cargo test -p rfd-integration --test golden_traces
//! ```
//!
//! (documented in EXPERIMENTS.md; regenerated files show up in `git diff`
//! for review). Missing `.rfdt` files are rendered from fixed seeds on the
//! same regeneration path.

use rfd_mac::{
    merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim, ZigbeeConfig, ZigbeeSim,
};
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn regen() -> bool {
    std::env::var("RFD_REGEN_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Renders one of the three golden scenes. Only used when the `.rfdt`
/// does not exist yet (first generation or deliberate regeneration after
/// deleting it) — a checked-out repo never re-renders.
fn render(name: &str) -> rfd_ether::scene::EtherTrace {
    let events = match name {
        "wifi" => {
            let mut sim = WifiDcfSim::new(DcfConfig {
                seed: 71,
                ..Default::default()
            });
            sim.queue_ping_flow(1, 2, 2, 300, 2_500.0, 0.0);
            sim.run()
        }
        "bluetooth" => {
            // start_clock chosen so 4 of the 6 hops land inside the 8 MHz
            // monitored band (channels 32-39) and the trace stays short.
            let mut sim = L2PingSim::new(L2PingConfig {
                count: 3,
                start_clock: 3824,
                ..Default::default()
            });
            sim.run()
        }
        "zigbee" => {
            let mut sim = ZigbeeSim::new(ZigbeeConfig {
                count: 3,
                interval_us: 2_000.0,
                seed: 73,
                ..Default::default()
            });
            sim.run()
        }
        other => panic!("unknown golden scene {other}"),
    };
    let mut events = merge_schedules(vec![events]);
    // Drop leading silence (a nonzero Bluetooth start_clock schedules its
    // first slot deep into the trace) while preserving 1250 µs slot-pair
    // alignment, which the Bluetooth slot-timing detector keys on.
    let lead = events.iter().map(|e| e.start_us).fold(f64::MAX, f64::min);
    let shift = (lead / 1250.0).floor().max(0.0) * 1250.0;
    for e in &mut events {
        e.start_us -= shift;
    }
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 500.0;
    let mut scene = rfd_ether::scene::Scene::new(1e-4, 70);
    let gain = 30.0 + rfd_dsp::energy::power_to_db(1e-4);
    for node in 0..24 {
        scene.set_node(node, gain, (node as f64 - 6.0) * 300.0);
    }
    scene.render(&events, horizon)
}

const RFDUMP: ArchKind = ArchKind::RfDump(DetectorSet::TimingAndPhase);

/// Every pinned (trace, architecture) pair.
const GOLDENS: [(&str, ArchKind); 7] = [
    ("wifi", RFDUMP),
    ("bluetooth", RFDUMP),
    ("zigbee", RFDUMP),
    ("wifi", ArchKind::Naive),
    ("bluetooth", ArchKind::Naive),
    ("wifi", ArchKind::NaiveEnergy),
    ("bluetooth", ArchKind::NaiveEnergy),
];

fn config(name: &str, kind: ArchKind, band: rfd_ether::Band) -> ArchConfig {
    ArchConfig {
        kind,
        band,
        zigbee: name == "zigbee",
        ..ArchConfig::rfdump(vec![rfd_integration::piconet()])
    }
}

/// `<name>.expected` for RFDump, `<name>.<arch>.expected` for a baseline.
fn expected_path(name: &str, kind: ArchKind) -> PathBuf {
    let arch = match kind {
        ArchKind::RfDump(_) => "",
        ArchKind::Naive => ".naive",
        ArchKind::NaiveEnergy => ".naive-energy",
    };
    golden_dir().join(format!("{name}{arch}.expected"))
}

fn check_golden(name: &str, kind: ArchKind) {
    let dir = golden_dir();
    let trace_path = dir.join(format!("{name}.rfdt"));
    let expected_path = expected_path(name, kind);

    if !trace_path.exists() {
        assert!(
            regen(),
            "{} missing — run with RFD_REGEN_GOLDEN=1 to create it",
            trace_path.display()
        );
        std::fs::create_dir_all(&dir).unwrap();
        let t = render(name);
        rfd_ether::trace::write_trace(
            &trace_path,
            t.band.sample_rate,
            t.band.center_hz,
            &t.samples,
        )
        .unwrap();
    }

    let (header, samples) = rfd_ether::trace::read_trace(&trace_path).unwrap();
    let cfg = config(
        name,
        kind,
        rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        },
    );
    let out = run_architecture(&cfg, &samples, header.sample_rate);
    assert!(
        !out.records.is_empty(),
        "{name}: golden trace produced no records"
    );
    let mut got = out
        .records
        .iter()
        .map(|r| r.format_line())
        .collect::<Vec<_>>()
        .join("\n");
    got.push('\n');

    if regen() {
        // Atomic replace: a Ctrl-C mid-regen must not leave a half-written
        // golden that silently passes (or fails) future comparisons.
        rfd_journal::atomic_write(&expected_path, got.as_bytes()).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}) — run with RFD_REGEN_GOLDEN=1 to create it",
            expected_path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: record stream diverged from the golden snapshot; if the\n\
         change is intentional, regenerate with RFD_REGEN_GOLDEN=1 and\n\
         review the diff"
    );
}

#[test]
fn golden_wifi_trace_matches_snapshot() {
    check_golden("wifi", RFDUMP);
}

/// Kernel-backend matrix: the committed golden record streams must be
/// byte-identical whichever vectorized DSP backend runs. This pins the
/// bit-exactness contract of `rfd_dsp::kernels` to the full pipeline, not
/// just to the kernel unit tests: scalar is the reference, and AVX2 (when
/// this CPU supports it) must reproduce the exact same records.
#[test]
fn golden_record_streams_identical_across_kernel_backends() {
    use rfd_dsp::kernels::{self, Backend};
    if regen() {
        // Regeneration runs concurrently in the snapshot tests; comparing
        // against files mid-rewrite would race.
        return;
    }
    for (name, kind) in GOLDENS {
        let trace_path = golden_dir().join(format!("{name}.rfdt"));
        let expected_path = expected_path(name, kind);
        assert!(
            trace_path.exists(),
            "{} missing — regenerate the goldens first",
            trace_path.display()
        );
        let (header, samples) = rfd_ether::trace::read_trace(&trace_path).unwrap();
        let cfg = config(
            name,
            kind,
            rfd_ether::Band {
                sample_rate: header.sample_rate,
                center_hz: header.center_hz,
            },
        );
        let want = std::fs::read_to_string(&expected_path).unwrap();
        for &backend in kernels::available() {
            kernels::set_backend(backend).unwrap();
            let out = run_architecture(&cfg, &samples, header.sample_rate);
            let mut got = out
                .records
                .iter()
                .map(|r| r.format_line())
                .collect::<Vec<_>>()
                .join("\n");
            got.push('\n');
            assert_eq!(
                got, want,
                "{name} ({kind:?}): {backend} kernels diverged from the golden snapshot"
            );
        }
        // Leave the process on the scalar reference so the snapshot tests
        // (which share this process) keep their historical baseline backend.
        kernels::set_backend(Backend::Scalar).unwrap();
    }
}

#[test]
fn golden_bluetooth_trace_matches_snapshot() {
    check_golden("bluetooth", RFDUMP);
}

#[test]
fn golden_zigbee_trace_matches_snapshot() {
    check_golden("zigbee", RFDUMP);
}

#[test]
fn golden_wifi_trace_matches_naive_snapshot() {
    check_golden("wifi", ArchKind::Naive);
}

#[test]
fn golden_bluetooth_trace_matches_naive_snapshot() {
    check_golden("bluetooth", ArchKind::Naive);
}

#[test]
fn golden_wifi_trace_matches_naive_energy_snapshot() {
    check_golden("wifi", ArchKind::NaiveEnergy);
}

#[test]
fn golden_bluetooth_trace_matches_naive_energy_snapshot() {
    check_golden("bluetooth", ArchKind::NaiveEnergy);
}
