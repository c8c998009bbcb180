//! Kernel-matrix contract of the release binary: `RFD_KERNEL=auto` resolves
//! to the best backend the CPU has, every available backend prints a record
//! stream byte-identical to the auto run, and `--stats-json` names the
//! backend that ran.
//!
//! Each child has `RFD_KERNEL` removed or set explicitly, so the result does
//! not depend on the environment the suite itself runs under (the scalar
//! tier-1 leg sets `RFD_KERNEL=scalar`).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn workdir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let d = std::env::temp_dir().join(format!("rfd-kernel-matrix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    })
}

/// 802.11b pings over a Bluetooth l2ping exchange, so the record stream
/// goes through the Wi-Fi and the Bluetooth demodulators.
fn trace_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        use rfd_mac::{merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim};
        let mut wifi = WifiDcfSim::new(DcfConfig {
            seed: 31,
            ..Default::default()
        });
        wifi.queue_ping_flow(1, 2, 3, 300, 11_000.0, 0.0);
        let mut bt = L2PingSim::new(L2PingConfig {
            count: 6,
            ..Default::default()
        });
        let events = merge_schedules(vec![wifi.run(), bt.run()]);
        let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
        let mut scene = rfd_ether::scene::Scene::new(1e-4, 31);
        let gain = 28.0 + rfd_dsp::energy::power_to_db(1e-4);
        for node in 0..16 {
            scene.set_node(node, gain, (node as f64 - 4.0) * 400.0);
        }
        let trace = scene.render(&events, horizon);
        let path = workdir().join("mixed.rfdt");
        rfd_ether::trace::write_trace(
            &path,
            trace.band.sample_rate,
            trace.band.center_hz,
            &trace.samples,
        )
        .unwrap();
        path
    })
}

/// Runs the release binary with `RFD_KERNEL` set to `kernel`, or removed
/// (auto) for `None`; fails unless it exits 0.
fn rfdump(kernel: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfdump"));
    cmd.args(args);
    match kernel {
        Some(k) => cmd.env("RFD_KERNEL", k),
        None => cmd.env_remove("RFD_KERNEL"),
    };
    let out = cmd.output().expect("spawn rfdump");
    assert!(
        out.status.success(),
        "rfdump {args:?} under RFD_KERNEL={kernel:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `rfdump kernel` under auto: (resolved backend, available backends).
fn kernel_report() -> (String, Vec<String>) {
    let out = rfdump(None, &["kernel"]);
    let text = String::from_utf8(out.stdout).unwrap();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no '{key}' line in:\n{text}"))
            .split_whitespace()
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    (field("backend:").concat(), field("available:"))
}

#[test]
fn auto_resolves_to_the_best_available_backend() {
    // A silent fallback to scalar on a SIMD-capable host is a build or
    // dispatch regression, not a preference.
    let (backend, available) = kernel_report();
    for best in ["avx2", "sse2"] {
        if available.iter().any(|b| b == best) {
            assert_eq!(
                backend, best,
                "auto resolved to {backend}; available {available:?}"
            );
            return;
        }
    }
    assert_eq!(backend, "scalar");
}

#[test]
fn every_backend_prints_the_auto_record_stream() {
    let trace = trace_path().to_str().unwrap();
    let args = ["-r", trace, "--workers", "0", "-p", "9E8B33:47"];
    let auto = rfdump(None, &args).stdout;
    let text = String::from_utf8_lossy(&auto);
    assert!(
        text.contains(" 802.11 ") && text.contains(" bluetooth "),
        "the trace must yield Wi-Fi and Bluetooth records:\n{text}"
    );
    let (_, available) = kernel_report();
    for b in &available {
        let got = rfdump(Some(b), &args).stdout;
        assert!(
            got == auto,
            "record stream diverged under RFD_KERNEL={b}:\n--- auto\n{text}\n--- {b}\n{}",
            String::from_utf8_lossy(&got)
        );
    }
}

#[test]
fn stats_json_reports_the_backend_that_ran() {
    let trace = trace_path().to_str().unwrap();
    let stats = workdir().join("stats-scalar.json");
    rfdump(
        Some("scalar"),
        &["-r", trace, "-q", "--stats-json", stats.to_str().unwrap()],
    );
    let doc = std::fs::read_to_string(&stats).unwrap();
    assert!(
        doc.contains(r#""backend":"scalar""#),
        "stats json did not report the scalar kernel backend:\n{doc}"
    );
}
