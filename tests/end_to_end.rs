//! End-to-end integration: MAC schedule → ether rendering → monitoring
//! architectures → accuracy evaluation, across crates.

use rfd_integration::{mixed_trace, piconet, LAP};
use rfd_phy::Protocol;
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, DetectorSet};
use rfdump::eval::{score_detector, EvalOptions};
use rfdump::records::PacketInfo;

#[test]
fn rfdump_matches_ground_truth_at_high_snr() {
    let trace = mixed_trace(4, 20, 30.0, 11);
    let cfg = ArchConfig::rfdump(vec![piconet()]);
    let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);

    let wifi = score_detector(
        Protocol::Wifi,
        &trace.truth,
        &trace.collided_ids(),
        &out.classified,
        trace.samples.len() as u64,
        EvalOptions {
            discount_collisions: true,
            ..Default::default()
        },
    );
    assert!(
        wifi.miss_rate < 0.1,
        "wifi miss rate {} ({} of {})",
        wifi.miss_rate,
        wifi.missed,
        wifi.total_true
    );

    let bt = score_detector(
        Protocol::Bluetooth,
        &trace.truth,
        &trace.collided_ids(),
        &out.classified,
        trace.samples.len() as u64,
        EvalOptions {
            discount_collisions: true,
            ..Default::default()
        },
    );
    // The slot-timing first-packet miss allows a small nonzero rate.
    assert!(
        bt.miss_rate < 0.35,
        "bt miss rate {} ({} of {})",
        bt.miss_rate,
        bt.missed,
        bt.total_true
    );
}

#[test]
fn decoded_wifi_sequence_numbers_match_transmitted() {
    let trace = mixed_trace(5, 0, 30.0, 13);
    let cfg = ArchConfig::rfdump(vec![]);
    let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
    // Every transmitted data frame's MAC seq should appear among decodes.
    let mut want: Vec<u16> = Vec::new();
    for t in &trace.truth {
        if let rfd_ether::scene::TruthDetail::Wifi {
            seq: Some(s),
            psdu_len,
            ..
        } = t.detail
        {
            if psdu_len > 100 {
                want.push(s);
            }
        }
    }
    let got: Vec<u16> = out
        .records
        .iter()
        .filter_map(|r| match r.info {
            PacketInfo::Wifi {
                seq: Some(s),
                fcs_ok: true,
                psdu_len,
                ..
            } if psdu_len > 100 => Some(s),
            _ => None,
        })
        .collect();
    for s in &want {
        assert!(
            got.contains(s),
            "seq {s} transmitted but not decoded (got {got:?})"
        );
    }
}

#[test]
fn bluetooth_payload_sizes_recover_sequence_numbers() {
    // The paper's ground-truth trick (§5.1.1): sequence numbers recovered
    // from packet sizes across the 8-of-79-channel bottleneck.
    let trace = mixed_trace(0, 40, 30.0, 17);
    let cfg = ArchConfig::rfdump(vec![piconet()]);
    let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
    let decoded_sizes: Vec<usize> = out
        .records
        .iter()
        .filter_map(|r| match &r.info {
            PacketInfo::Bluetooth {
                payload_len,
                crc_ok: true,
                lap,
                ..
            } if *lap == LAP => Some(*payload_len),
            _ => None,
        })
        .collect();
    assert!(!decoded_sizes.is_empty(), "no Bluetooth packets decoded");
    let truth_sizes: Vec<usize> = trace
        .truth
        .iter()
        .filter_map(|t| match t.detail {
            rfd_ether::scene::TruthDetail::Bluetooth { payload_len, .. } if t.in_band => {
                Some(payload_len)
            }
            _ => None,
        })
        .collect();
    for s in &decoded_sizes {
        assert!(
            truth_sizes.contains(s),
            "decoded size {s} not in ground truth"
        );
        // Sequence-in-size: 225 + seq % 114.
        assert!(
            (225..339).contains(s),
            "size {s} outside the l2ping encoding"
        );
    }
}

#[test]
fn naive_and_rfdump_find_the_same_wifi_packets() {
    let trace = mixed_trace(4, 0, 30.0, 19);
    let naive = run_architecture(
        &ArchConfig::naive(vec![]),
        &trace.samples,
        trace.band.sample_rate,
    );
    let rfdump = run_architecture(
        &ArchConfig::rfdump(vec![]),
        &trace.samples,
        trace.band.sample_rate,
    );
    let decoded = |out: &rfdump::arch::ArchOutput| -> Vec<(u16, usize)> {
        let mut v: Vec<(u16, usize)> = out
            .records
            .iter()
            .filter_map(|r| match r.info {
                PacketInfo::Wifi {
                    seq: Some(s),
                    psdu_len,
                    fcs_ok: true,
                    ..
                } => Some((s, psdu_len)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let a = decoded(&naive);
    let b = decoded(&rfdump);
    assert_eq!(a, b, "the architectures must agree on decoded frames");
    assert!(!a.is_empty());
}

#[test]
fn trace_file_round_trip_preserves_analysis() {
    let trace = mixed_trace(3, 10, 28.0, 23);
    let dir = std::env::temp_dir().join("rfd-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.rfdt");
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .unwrap();
    let (h, replayed) = rfd_ether::trace::read_trace(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cfg = ArchConfig::rfdump(vec![piconet()]);
    let live = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
    let replay = run_architecture(&cfg, &replayed, h.sample_rate);
    assert_eq!(live.records.len(), replay.records.len());
    for (a, b) in live.records.iter().zip(replay.records.iter()) {
        assert_eq!(a.protocol, b.protocol);
        assert!((a.start_us - b.start_us).abs() < 5.0);
    }
}

#[test]
fn efficiency_ordering_holds_on_a_light_trace() {
    let trace = mixed_trace(3, 10, 30.0, 29);
    let run = |kind, demod| {
        let cfg = ArchConfig {
            kind,
            demodulate: demod,
            band: trace.band,
            piconets: vec![piconet()],
            noise_floor: Some(trace.noise_power),
            zigbee: false,
            microwave: false,
            telemetry: false,
            workers: rfdump::arch::default_workers(),
            faults: rfd_fault::FaultPlan::ambient(),
            governor: None,
            chunk_samples: rfdump::CHUNK_SAMPLES,
            durability: None,
        };
        run_architecture(&cfg, &trace.samples, trace.band.sample_rate).cpu_over_realtime()
    };
    let naive = run(ArchKind::Naive, true);
    let gated = run(ArchKind::NaiveEnergy, true);
    let rfd = run(ArchKind::RfDump(DetectorSet::TimingAndPhase), true);
    let rfd_nodemod = run(ArchKind::RfDump(DetectorSet::Timing), false);
    assert!(gated < naive, "energy gating must help: {gated} vs {naive}");
    assert!(rfd < naive, "rfdump must beat naive: {rfd} vs {naive}");
    assert!(
        rfd_nodemod < rfd,
        "detection alone must be cheapest: {rfd_nodemod} vs {rfd}"
    );
}
