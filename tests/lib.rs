//! Shared helpers for the cross-crate integration tests.

use rfd_dsp::rng::Xoshiro256;
use rfd_ether::scene::{EtherTrace, Scene};
use rfd_mac::{merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim};
use rfd_phy::bluetooth::demod::PiconetId;

/// The piconet used across integration tests.
pub const LAP: u32 = 0x9E8B33;
/// Its UAP.
pub const UAP: u8 = 0x47;

/// The test piconet id.
pub fn piconet() -> PiconetId {
    PiconetId { lap: LAP, uap: UAP }
}

/// Renders a mixed Wi-Fi + Bluetooth trace at the given SNR.
pub fn mixed_trace(n_pings: usize, n_l2pings: usize, snr_db: f32, seed: u64) -> EtherTrace {
    let mut wifi = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    wifi.queue_ping_flow(1, 2, n_pings, 300, 11_000.0, 0.0);
    let mut bt = L2PingSim::new(L2PingConfig {
        count: n_l2pings,
        ..Default::default()
    });
    let events = merge_schedules(vec![wifi.run(), bt.run()]);
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    let mut scene = Scene::new(1e-4, seed);
    let gain = snr_db + rfd_dsp::energy::power_to_db(1e-4);
    for node in 0..16 {
        scene.set_node(node, gain, (node as f64 - 4.0) * 400.0);
    }
    scene.render(&events, horizon)
}

/// An ingest server analysing with the full architecture the way `rfdump
/// serve -p LAP:UAP --workers N` does (telemetry off), on an ephemeral
/// loopback port.
pub fn arch_server(net: rfd_net::FleetConfig, workers: usize) -> rfd_net::FleetServer {
    let mut cfg = rfdump::arch::ArchConfig::rfdump(vec![piconet()]);
    cfg.telemetry = false;
    cfg.workers = workers;
    let factory = rfdump::fleet::pipeline_factory(cfg, None, Default::default());
    rfd_net::FleetServer::bind("127.0.0.1:0", net, factory, None).unwrap()
}

/// Deterministic randomized-case harness: runs `f` for `cases` iterations,
/// each with a freshly seeded [`Xoshiro256`], and re-raises any panic with
/// the failing case number so a failure reproduces exactly.
pub fn seeded_cases(base_seed: u64, cases: u64, mut f: impl FnMut(&mut Xoshiro256)) {
    for case in 0..cases {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Xoshiro256::new(seed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(e) = r {
            eprintln!("seeded_cases: case {case} (base_seed {base_seed}, seed {seed}) failed");
            std::panic::resume_unwind(e);
        }
    }
}

/// A random byte vector with length in `[min_len, max_len)`.
pub fn random_bytes(rng: &mut Xoshiro256, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len + rng.next_range((max_len - min_len) as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}
