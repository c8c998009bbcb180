//! The five seeded workloads and the three traces they are built from.
//!
//! The trace shapes follow `rfd-bench`'s `utilization_trace` and
//! `mix_trace` (the paper's §5.1 microbenchmarks), re-stated here so the
//! harness depends on nothing but `rfd-ether` / `rfd-mac` / `rfd-phy`, and
//! with every random choice — backoff, noise, carrier phase, the Bluetooth
//! clock — drawn from the harness's `--seed`.

use rfd_ether::{EtherTrace, Scene};
use rfd_mac::{merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim};
use rfd_phy::wifi::plcp::WifiRate;

/// The piconet every run acquires (`-p 9E8B33:47`, the GIAC-derived LAP the
/// paper's setup uses).
pub const PICONET_ARG: &str = "9E8B33:47";

/// AWGN power of every scene (-40 dBfs across the band).
const NOISE_POWER: f32 = 1e-4;

/// Which synthesized trace a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// 1 s, 802.11b unicast pings at 60 % utilization, 30 dB.
    WifiU60,
    /// 2 s, the same traffic at 5 % utilization.
    QuietU05,
    /// ~1.5 s of simultaneous 802.11b pings and Bluetooth l2ping, 28 dB.
    MixWifiBt,
}

impl TraceKind {
    /// File stem of the `.rfdt` / `.truth` pair.
    pub fn stem(self) -> &'static str {
        match self {
            TraceKind::WifiU60 => "wifi_u60",
            TraceKind::QuietU05 => "quiet_u05",
            TraceKind::MixWifiBt => "mix_wifi_bt",
        }
    }
}

/// How the trace is put through the `rfdump` binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `rfdump -r FILE`.
    Offline,
    /// `serve --once` + `watch` + `send --rate real-time` on loopback: open
    /// loop on the sender's 8 Msps schedule.
    LiveRealTime,
    /// `serve --fleet --expect N --journal DIR` + one `watch` + N
    /// `send --source sK --rate max`: closed loop under the server's
    /// block-policy backpressure.
    FleetMax {
        /// Number of concurrent senders (= load connections).
        sources: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The trace it replays.
    pub trace: TraceKind,
    /// How it replays it.
    pub mode: Mode,
}

/// All workloads, in `BENCHMARK.json` order. Why each exists is recorded
/// there and in `bench/README.md`.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wifi_u60",
        trace: TraceKind::WifiU60,
        mode: Mode::Offline,
    },
    Workload {
        name: "quiet_u05",
        trace: TraceKind::QuietU05,
        mode: Mode::Offline,
    },
    Workload {
        name: "mix_wifi_bt",
        trace: TraceKind::MixWifiBt,
        mode: Mode::Offline,
    },
    Workload {
        name: "live_rt_u60",
        trace: TraceKind::WifiU60,
        mode: Mode::LiveRealTime,
    },
    Workload {
        name: "fleet_max_quiet_x2",
        trace: TraceKind::QuietU05,
        mode: Mode::FleetMax { sources: 2 },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

fn scene(snr_db: f32, seed: u64) -> Scene {
    let mut scene = Scene::new(NOISE_POWER, seed);
    let gain = snr_db + 10.0 * NOISE_POWER.log10();
    for node in 0..40u16 {
        scene.set_node(node, gain, (node as f64 - 8.0) * 700.0);
    }
    scene
}

/// 802.11b unicast pings (request, ACK, reply, ACK; 500-byte payloads at
/// 1 Mbps) spaced to occupy `util` of the medium for `duration_us`.
fn utilization_trace(util: f64, duration_us: f64, seed: u64) -> EtherTrace {
    let payload = 500usize;
    let data_air = rfd_phy::wifi::frame_airtime_us(payload + 28, WifiRate::R1);
    let ack_air = rfd_phy::wifi::frame_airtime_us(14, WifiRate::R1);
    let exchange_air = 2.0 * (data_air + ack_air);
    let interval = (exchange_air / util).max(exchange_air + 800.0);
    let n = (duration_us / interval).floor().max(1.0) as usize;
    let mut sim = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    sim.queue_ping_flow(1, 2, n, payload, interval, 0.0);
    scene(30.0, seed).render(&sim.run(), duration_us)
}

/// 802.11b pings every 40 ms over a Bluetooth l2ping flood (DH5, hopping
/// over all 79 channels, so about one packet in eleven lands in band).
fn mix_trace(duration_us: f64, seed: u64) -> EtherTrace {
    let mut wifi = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    wifi.queue_ping_flow(1, 2, (duration_us / 40_000.0) as usize, 500, 40_000.0, 0.0);
    // One exchange = 5-slot request + 5-slot reply + 2 idle slots.
    let exchange_us = 12.0 * rfd_phy::bluetooth::hop::SLOT_US;
    let mut bt = L2PingSim::new(L2PingConfig {
        count: (duration_us / exchange_us) as usize,
        start_clock: (seed % 997) as u32 * 2,
        ..Default::default()
    });
    let events = merge_schedules(vec![wifi.run(), bt.run()]);
    scene(28.0, seed).render(&events, duration_us)
}

/// Renders the trace of `kind` for `seed`. The same seed gives the same
/// samples and the same truth.
pub fn synthesize(kind: TraceKind, seed: u64) -> EtherTrace {
    match kind {
        TraceKind::WifiU60 => utilization_trace(0.60, 1_000_000.0, seed),
        TraceKind::QuietU05 => utilization_trace(0.05, 2_000_000.0, seed),
        TraceKind::MixWifiBt => mix_trace(1_500_000.0, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
