//! What the release-binary suites share: a scratch directory, a generated
//! Wi-Fi + Bluetooth trace, and `rfdump` children under a pinned kernel.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// This test binary's scratch directory under cargo's target tmp dir,
/// emptied on first use: one per suite, reclaimed by `cargo clean`.
pub fn workdir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let name = format!("rfd-{}", env!("CARGO_CRATE_NAME"));
        let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    })
}

/// 802.11b pings over a Bluetooth l2ping exchange, so the record stream
/// goes through the Wi-Fi and the Bluetooth demodulators.
pub fn mixed_trace() -> &'static PathBuf {
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

/// The release binary with `RFD_KERNEL` set to `kernel`, or removed (auto)
/// for `None`, so a child does not depend on the environment the suite runs
/// under (the scalar tier-1 leg sets `RFD_KERNEL=scalar`).
pub fn command(kernel: Option<&str>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfdump"));
    match kernel {
        Some(k) => cmd.env("RFD_KERNEL", k),
        None => cmd.env_remove("RFD_KERNEL"),
    };
    cmd
}

/// Runs the release binary under `kernel` (see [`command`]); fails unless
/// it exits 0.
pub fn rfdump(kernel: Option<&str>, args: &[&str]) -> Output {
    let out = command(kernel).args(args).output().expect("spawn rfdump");
    assert!(
        out.status.success(),
        "rfdump {args:?} under RFD_KERNEL={kernel:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}
