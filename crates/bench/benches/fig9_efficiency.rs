//! Figure 9: CPU time / real time vs medium utilization for nine monitoring
//! configurations.
//!
//! Paper result (2.13 GHz Core 2 Duo, single core): the naïve architecture
//! is flat at ~7× real time; energy filtering helps at low utilization but
//! converges toward naïve as the ether fills; RFDump's detectors sit far
//! below both, and even with demodulation RFDump stays 3-10× cheaper.
//! Absolute ratios differ on modern hardware — the *ordering* and the
//! utilization trends are the reproduction target.
//!
//! Run: `cargo bench -p rfd-bench --bench fig9_efficiency`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_telemetry::json::JsonValue;
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};

fn main() {
    let duration_us = 150_000.0 * scale();
    let utils = [0.05, 0.2, 0.4, 0.6, 0.8];

    struct Config {
        label: &'static str,
        kind: ArchKind,
        demod: bool,
    }
    let configs = [
        Config {
            label: "naive",
            kind: ArchKind::Naive,
            demod: true,
        },
        Config {
            label: "naive+energy",
            kind: ArchKind::NaiveEnergy,
            demod: true,
        },
        Config {
            label: "naive+energy no-demod",
            kind: ArchKind::NaiveEnergy,
            demod: false,
        },
        Config {
            label: "rfdump timing",
            kind: ArchKind::RfDump(DetectorSet::Timing),
            demod: true,
        },
        Config {
            label: "rfdump phase",
            kind: ArchKind::RfDump(DetectorSet::Phase),
            demod: true,
        },
        Config {
            label: "rfdump timing+phase",
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demod: true,
        },
        Config {
            label: "rfdump timing no-demod",
            kind: ArchKind::RfDump(DetectorSet::Timing),
            demod: false,
        },
        Config {
            label: "rfdump phase no-demod",
            kind: ArchKind::RfDump(DetectorSet::Phase),
            demod: false,
        },
        Config {
            label: "rfdump t+p no-demod",
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demod: false,
        },
    ];

    // Pre-render one trace per utilization (shared across configs, as the
    // paper does).
    let traces: Vec<_> = utils
        .iter()
        .enumerate()
        .map(|(i, &u)| utilization_trace(u, duration_us, 900 + i as u64))
        .collect();

    let mut report = BenchReport::new("fig9");
    // CPU/RT ratios depend on which DSP kernel backend ran; record it so
    // before/after comparisons (RFD_KERNEL=scalar vs auto) are attributable.
    report.push(
        "kernel_backend",
        JsonValue::str(rfd_dsp::kernels::active().name()),
    );
    report.push(
        "utilizations",
        JsonValue::Arr(utils.iter().map(|&u| JsonValue::num(u)).collect()),
    );
    let mut rows = Vec::new();
    for c in &configs {
        let mut row = vec![c.label.to_string()];
        let mut ratios = Vec::new();
        for trace in &traces {
            let cfg = ArchConfig {
                kind: c.kind,
                demodulate: c.demod,
                band: trace.band,
                piconets: vec![piconet()],
                noise_floor: Some(trace.noise_power),
                zigbee: false,
                microwave: false,
                telemetry: false,
                workers: 0,
                faults: None,
                governor: None,
                chunk_samples: rfdump::CHUNK_SAMPLES,
                durability: None,
            };
            let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
            row.push(format!("{:.3}", out.cpu_over_realtime()));
            ratios.push(JsonValue::num(out.cpu_over_realtime()));
        }
        report.push(
            c.label,
            JsonValue::obj(vec![("cpu_over_realtime", JsonValue::Arr(ratios))]),
        );
        rows.push(row);
    }

    let mut headers = vec!["configuration"];
    let labels: Vec<String> = utils
        .iter()
        .map(|u| format!("util {:.0}%", u * 100.0))
        .collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    print_table(
        "Figure 9 — CPU time / real time vs medium utilization",
        &headers,
        &rows,
    );
    println!(
        "\npaper shape: naive flat and highest; naive+energy grows toward naive\n\
         with utilization; rfdump configurations lowest, detector-only ones\n\
         well below real time. Absolute values are hardware-dependent.\n\
         trace: {:.0} ms of 802.11 unicast pings per point; 1 wifi + {} BT\n\
         channel demodulators downstream.",
        duration_us / 1e3,
        7
    );
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("failed to write bench json: {e}"),
    }
}
