//! Shared harness for the paper-reproduction benchmarks.
//!
//! Each `benches/*.rs` target but `fleet_ingest` regenerates one table or
//! figure of the RFDump paper. This library holds the common machinery: the
//! microbenchmark workloads of §5.1 (802.11 unicast, 802.11 broadcast,
//! Bluetooth `l2ping`, traffic mix), SNR sweeps, detector-level scoring, and
//! plain-text table printing.
//!
//! Workload sizes are scaled down from the paper (packet counts in the
//! hundreds rather than thousands) so the full suite regenerates in minutes;
//! set `RFD_BENCH_SCALE` (e.g. `=4`) to scale counts back up. Rates and
//! ratios — the quantities the paper reports — are unaffected by scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rfd_dsp::energy::power_to_db;
use rfd_ether::scene::{EtherTrace, Scene};
use rfd_mac::{merge_schedules, DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim};
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_phy::Protocol;
use rfdump::chunk::SampleChunk;
use rfdump::detect::{Classification, FastDetector};
use rfdump::eval::{score_detector, AccuracyReport, ClassifiedPeak, EvalOptions};
use rfdump::peak::{PeakDetector, PeakDetectorConfig};

/// The piconet used across all benchmarks (the GIAC-derived LAP the paper's
/// BlueSniff setup also uses).
pub(crate) const LAP: u32 = 0x9E8B33;
/// Its UAP.
pub(crate) const UAP: u8 = 0x47;

/// The benchmark piconet id.
pub fn piconet() -> PiconetId {
    PiconetId { lap: LAP, uap: UAP }
}

/// Workload scale factor from `RFD_BENCH_SCALE` (default 1).
pub fn scale() -> f64 {
    std::env::var("RFD_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &f64| v > 0.0)
        .unwrap_or(1.0)
}

/// Scales an integer count.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// Noise power used for all benchmark scenes (-40 dBfs across the band).
pub(crate) const NOISE_POWER: f32 = 1e-4;

/// Builds a scene at the paper's band with every node at `snr_db`.
pub(crate) fn scene_at_snr(snr_db: f32, seed: u64) -> Scene {
    let mut scene = Scene::new(NOISE_POWER, seed);
    let gain = snr_db + power_to_db(NOISE_POWER);
    for node in 0..40u16 {
        scene.set_node(node, gain, (node as f64 - 8.0) * 700.0);
    }
    scene
}

/// §5.1.2 workload: `n_pings` ICMP echo request/reply pairs of `payload`
/// bytes between two stations (each data frame gets a SIFS-spaced MAC ACK).
pub fn unicast_trace(n_pings: usize, payload: usize, snr_db: f32, seed: u64) -> EtherTrace {
    let mut sim = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    sim.queue_ping_flow(1, 2, n_pings, payload, 12_000.0, 0.0);
    let events = sim.run();
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    scene_at_snr(snr_db, seed).render(&events, horizon)
}

/// §5.1.3 workload: a broadcast flood (DIFS + k·slot spacing, no ACKs).
pub fn broadcast_trace(n_frames: usize, payload: usize, snr_db: f32, seed: u64) -> EtherTrace {
    let mut sim = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    sim.queue_broadcast_flood(1, n_frames, payload, 0.0);
    let events = sim.run();
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    scene_at_snr(snr_db, seed).render(&events, horizon)
}

/// §5.1.4 workload: `l2ping` DH5 exchanges with the sequence-in-size
/// encoding, hopped over all 79 channels.
pub fn bluetooth_trace(n_pings: usize, snr_db: f32, seed: u64) -> EtherTrace {
    let mut sim = L2PingSim::new(L2PingConfig {
        count: n_pings,
        start_clock: (seed as u32 % 997) * 2,
        ..Default::default()
    });
    let events = sim.run();
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    scene_at_snr(snr_db, seed).render(&events, horizon)
}

/// §5.1.5 workload: simultaneous 802.11b pings and Bluetooth l2pings.
pub fn mix_trace(n_wifi_pings: usize, n_l2pings: usize, snr_db: f32, seed: u64) -> EtherTrace {
    let mut wifi = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    wifi.queue_ping_flow(1, 2, n_wifi_pings, 500, 40_000.0, 0.0);
    let mut bt = L2PingSim::new(L2PingConfig {
        count: n_l2pings,
        ..Default::default()
    });
    let events = merge_schedules(vec![wifi.run(), bt.run()]);
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    scene_at_snr(snr_db, seed).render(&events, horizon)
}

/// Fig. 9 workload: 802.11 unicast pings with spacing chosen to hit a target
/// medium utilization.
pub fn utilization_trace(target_util: f64, duration_us: f64, seed: u64) -> EtherTrace {
    // One exchange = req + ack + rep + ack; airtime for 500-byte pings.
    let payload = 500usize;
    let data_air = rfd_phy::wifi::frame_airtime_us(payload + 28, rfd_phy::wifi::plcp::WifiRate::R1);
    let ack_air = rfd_phy::wifi::frame_airtime_us(14, rfd_phy::wifi::plcp::WifiRate::R1);
    let exchange_air = 2.0 * (data_air + ack_air);
    let interval = (exchange_air / target_util.clamp(0.02, 0.98)).max(exchange_air + 800.0);
    let n = (duration_us / interval).floor().max(1.0) as usize;
    let mut sim = WifiDcfSim::new(DcfConfig {
        seed,
        ..Default::default()
    });
    sim.queue_ping_flow(1, 2, n, payload, interval, 0.0);
    let events = sim.run();
    scene_at_snr(30.0, seed).render(&events, duration_us)
}

/// Runs the peak detector plus one fast detector over a trace and returns
/// the classified peaks (the paper's per-detector accuracy methodology).
pub fn classify_with_detector(
    trace: &EtherTrace,
    detector: &mut dyn FastDetector,
) -> Vec<ClassifiedPeak> {
    let fs = trace.band.sample_rate;
    let chunks = SampleChunk::chunk_trace(&trace.samples, fs, rfdump::CHUNK_SAMPLES);
    let mut det = PeakDetector::new(
        PeakDetectorConfig {
            noise_floor: Some(trace.noise_power),
            ..Default::default()
        },
        fs,
    );
    let mut peaks = Vec::new();
    for c in &chunks {
        det.push_chunk(c, &mut peaks);
    }
    det.finish(&mut peaks);

    let mut classified = Vec::new();
    let mut index: std::collections::HashMap<u64, (u64, u64)> = Default::default();
    for pb in &peaks {
        index.insert(pb.peak.id, (pb.peak.start, pb.peak.end));
        for c in detector.on_peak(pb) {
            push_classified(&mut classified, &index, &c);
        }
    }
    for c in detector.finish() {
        push_classified(&mut classified, &index, &c);
    }
    classified
}

fn push_classified(
    out: &mut Vec<ClassifiedPeak>,
    index: &std::collections::HashMap<u64, (u64, u64)>,
    c: &Classification,
) {
    let Some(&(start, end)) = index.get(&c.peak_id) else {
        return;
    };
    let (a, b) = c.range.unwrap_or((start, end));
    out.push(ClassifiedPeak {
        protocol: c.protocol,
        start_sample: a,
        end_sample: b,
    });
}

/// Scores a detector's classifications against a trace's ground truth.
pub fn detector_report(
    trace: &EtherTrace,
    protocol: Protocol,
    classified: &[ClassifiedPeak],
    discount_collisions: bool,
) -> AccuracyReport {
    score_detector(
        protocol,
        &trace.truth,
        &trace.collided_ids(),
        classified,
        trace.samples.len() as u64,
        EvalOptions {
            discount_collisions,
            ..Default::default()
        },
    )
}

/// Like [`detector_report`] but with an explicit overlap criterion —
/// Table 4's DBPSK detector deliberately passes only the PLCP header of a
/// high-rate frame, so "found" there means a small time overlap, not 50 %.
pub fn detector_report_with(
    trace: &EtherTrace,
    protocol: Protocol,
    classified: &[ClassifiedPeak],
    discount_collisions: bool,
    min_overlap: f64,
) -> AccuracyReport {
    score_detector(
        protocol,
        &trace.truth,
        &trace.collided_ids(),
        classified,
        trace.samples.len() as u64,
        EvalOptions {
            discount_collisions,
            min_overlap,
        },
    )
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a miss rate the way the paper's log-scale figures read.
pub fn fmt_rate(r: f64) -> String {
    if r <= 0.0 {
        "0".into()
    } else {
        format!("{r:.4}")
    }
}

pub mod report {
    //! Machine-readable benchmark output (`BENCH_*.json`).
    //!
    //! The two bench targets that write one (`fig9_efficiency` and
    //! `fleet_ingest`) print their human table as before and *also* write
    //! a `BENCH_<name>.json` document into `$RFD_BENCH_OUT` (or the working
    //! directory) so experiment scripts can consume runs without scraping
    //! stdout. The document shares the repo's hand-rolled JSON codec with
    //! `--stats-json`:
    //!
    //! ```json
    //! {"schema": "rfd-bench", "version": 1, "bench": "fig9",
    //!  "results": { ... bench-specific ... }}
    //! ```

    use rfd_telemetry::json::JsonValue;
    use std::path::PathBuf;

    /// Schema identifier carried in every bench document.
    pub(crate) const BENCH_SCHEMA: &str = "rfd-bench";
    /// Current bench document version.
    pub(crate) const BENCH_VERSION: u64 = 1;

    /// Collects one bench target's results and writes `BENCH_<name>.json`.
    pub struct BenchReport {
        name: String,
        results: Vec<(String, JsonValue)>,
    }

    impl BenchReport {
        /// A new, empty report for the bench target `name`.
        pub fn new(name: &str) -> Self {
            BenchReport {
                name: name.to_string(),
                results: Vec::new(),
            }
        }

        /// Adds one named result (any JSON value).
        pub fn push(&mut self, key: &str, value: JsonValue) {
            self.results.push((key.to_string(), value));
        }

        /// The full document.
        pub fn to_json(&self) -> JsonValue {
            JsonValue::obj(vec![
                ("schema", JsonValue::str(BENCH_SCHEMA)),
                ("version", JsonValue::num(BENCH_VERSION as f64)),
                ("bench", JsonValue::str(&self.name)),
                ("results", JsonValue::Obj(self.results.clone())),
            ])
        }

        /// Writes `BENCH_<name>.json` into `$RFD_BENCH_OUT` (or the working
        /// directory) and returns the path.
        pub fn write(&self) -> std::io::Result<PathBuf> {
            let dir = std::env::var_os("RFD_BENCH_OUT")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."));
            let path = dir.join(format!("BENCH_{}.json", self.name));
            std::fs::write(&path, self.to_json().to_json())?;
            Ok(path)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn report_document_is_versioned_and_parses() {
            let mut r = BenchReport::new("unit");
            r.push("x", JsonValue::num(1.5));
            let doc = rfd_telemetry::json::parse(&r.to_json().to_json()).unwrap();
            assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
            assert_eq!(doc.get("bench").unwrap().as_str(), Some("unit"));
            assert_eq!(
                doc.get("results").unwrap().get("x").unwrap().as_f64(),
                Some(1.5)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfdump::detect::WifiSifsDetector;

    #[test]
    fn unicast_trace_has_expected_truth() {
        let t = unicast_trace(3, 200, 25.0, 1);
        let wifi = t
            .truth
            .iter()
            .filter(|r| r.protocol == Protocol::Wifi)
            .count();
        assert_eq!(wifi, 12); // req+rep+2 acks per ping
    }

    #[test]
    fn sifs_detector_scores_near_zero_miss_at_high_snr() {
        let t = unicast_trace(4, 300, 25.0, 2);
        let mut det = WifiSifsDetector::new();
        let classified = classify_with_detector(&t, &mut det);
        let report = detector_report(&t, Protocol::Wifi, &classified, true);
        assert_eq!(report.total_true, 16);
        assert_eq!(
            report.missed, 0,
            "SIFS detector must find every unicast frame"
        );
    }

    #[test]
    fn utilization_trace_hits_target_roughly() {
        let t = utilization_trace(0.4, 200_000.0, 3);
        let busy: u64 = t
            .truth
            .iter()
            .map(|r| (r.end_sample - r.start_sample) as u64)
            .sum();
        let util = busy as f64 / t.samples.len() as f64;
        assert!((0.25..=0.6).contains(&util), "utilization {util}");
    }

    #[test]
    fn scale_default_is_one() {
        assert_eq!(scaled(100), (100.0 * scale()) as usize);
    }
}
