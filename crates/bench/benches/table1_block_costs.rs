//! Table 1: CPU time / real time for individual processing blocks.
//!
//! Paper (GNU Radio on a 2.13 GHz Core 2 Duo, 8 Msps stream):
//!
//! ```text
//! 802.11 demodulation (1 Mbps)   0.6
//! Bluetooth demodulation         0.7
//! Peak/Energy detection          0.05
//! ```
//!
//! We time the equivalent blocks of this implementation over a busy 8 Msps
//! trace, plus the two phase detectors (§4.5: "inexpensive: a complex
//! conjugation, multiplication and arctan() per sample") over the peaks the
//! peak detector found — the gate each demodulator sits behind. Absolute
//! ratios shift with hardware and implementation maturity; the load-bearing
//! relation is demodulation ≫ detection.
//!
//! Run: `cargo bench -p rfd-bench --bench table1_block_costs`

use rfd_bench::*;
use rfdump::chunk::SampleChunk;
use rfdump::detect::{BtPhaseDetector, FastDetector, WifiPhaseDetector};
use rfdump::peak::{PeakDetector, PeakDetectorConfig};
use std::time::Instant;

fn main() {
    // A busy trace: back-to-back unicast traffic at ~80% utilization.
    let trace = utilization_trace(0.8, 150_000.0 * scale(), 42);
    let fs = trace.band.sample_rate;
    let real = trace.samples.len() as f64 / fs;

    // 802.11 continuous demodulation.
    let t0 = Instant::now();
    let mut wifi = rfd_phy::wifi::WifiRx::new(fs);
    for block in trace.samples.chunks(8192) {
        wifi.process(block);
    }
    let wifi_found = wifi.take_results().len();
    let wifi_cpu = t0.elapsed().as_secs_f64();

    // Bluetooth demodulation, single channel (paper reports per-block cost;
    // the naive architecture runs one of these per covered channel).
    let t0 = Instant::now();
    let mut bt = rfd_phy::bluetooth::demod::BtChannelRx::new(35, fs, 0.0, vec![piconet()]);
    for block in trace.samples.chunks(8192) {
        bt.process(block);
    }
    let _ = bt.finish();
    let bt_cpu = t0.elapsed().as_secs_f64();

    // Peak/energy detection.
    let t0 = Instant::now();
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
    let peak_cpu = t0.elapsed().as_secs_f64();

    // The phase detectors, each over every peak found above (built outside
    // the timed region: synthesizing the Barker pattern is a one-off that
    // would weigh on a 150 ms trace).
    let mut wifi_det = WifiPhaseDetector::new(fs);
    let t0 = Instant::now();
    let wifi_votes: usize = peaks.iter().map(|pb| wifi_det.on_peak(pb).len()).sum();
    let wifi_det_cpu = t0.elapsed().as_secs_f64();

    let mut bt_det = BtPhaseDetector::new(trace.band.center_hz);
    let t0 = Instant::now();
    let bt_votes: usize = peaks.iter().map(|pb| bt_det.on_peak(pb).len()).sum();
    let bt_det_cpu = t0.elapsed().as_secs_f64();

    let rows = vec![
        vec![
            "802.11 demodulation (1 Mbps)".into(),
            format!("{:.3}", wifi_cpu / real),
            "0.6".into(),
        ],
        vec![
            "Bluetooth demodulation (1 ch)".into(),
            format!("{:.3}", bt_cpu / real),
            "0.7".into(),
        ],
        vec![
            "Peak/Energy detection".into(),
            format!("{:.3}", peak_cpu / real),
            "0.05".into(),
        ],
        vec![
            "802.11 DBPSK phase detection".into(),
            format!("{:.3}", wifi_det_cpu / real),
            "-".into(),
        ],
        vec![
            "Bluetooth GFSK phase detection".into(),
            format!("{:.3}", bt_det_cpu / real),
            "-".into(),
        ],
    ];
    print_table(
        "Table 1 — CPU time / real time of individual blocks",
        &["block", "measured", "paper"],
        &rows,
    );
    println!(
        "\ndemodulation / phase detection: 802.11 {:.1}x, Bluetooth {:.1}x",
        wifi_cpu / wifi_det_cpu,
        bt_cpu / bt_det_cpu
    );
    println!(
        "\ntrace: {:.0} ms at 8 Msps, ~80% utilization; {} peaks ({} voted \
         802.11, {} voted Bluetooth), {} wifi frames decoded.\nshape to \
         check: each demodulator costs several times its phase detector and \
         the peak/energy detection in front of both.",
        real * 1e3,
        peaks.len(),
        wifi_votes,
        bt_votes,
        wifi_found
    );
}
