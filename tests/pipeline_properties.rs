//! Randomized-case tests of the monitoring pipeline's invariants: peak
//! detection geometry, dispatcher bookkeeping, trace-format round trips,
//! coding-layer guarantees. Each test sweeps deterministic seeded cases via
//! [`rfd_integration::seeded_cases`], so every failure reproduces exactly.

use rfd_dsp::coding::{
    bits_to_bytes_lsb, bytes_to_bits_lsb, crc32, hamming1510_decode, hamming1510_encode,
    repeat3_decode, repeat3_encode, Crc, Scrambler, Whitener,
};
use rfd_dsp::rng::GaussianGen;
use rfd_dsp::Complex32;
use rfd_integration::{random_bytes, seeded_cases};
use rfdump::peak::{detect_peaks, PeakDetectorConfig};

fn bursty(n: usize, bursts: &[(usize, usize)], noise: f32, seed: u64) -> Vec<Complex32> {
    let mut sig = vec![Complex32::ZERO; n];
    for &(s, l) in bursts {
        for (i, z) in sig.iter_mut().enumerate().take((s + l).min(n)).skip(s) {
            *z = Complex32::cis(i as f32 * 0.7);
        }
    }
    GaussianGen::new(seed).add_awgn(&mut sig, noise);
    sig
}

/// Peaks are ordered, non-overlapping, and cover every strong burst.
#[test]
fn peak_detector_invariants() {
    seeded_cases(0x5EED_0001, 32, |rng| {
        let n_bursts = 1 + rng.next_range(4) as usize;
        let lens: Vec<usize> = (0..5)
            .map(|_| 400 + rng.next_range(3_600) as usize)
            .collect();
        let mut bursts = Vec::new();
        let mut pos = 3_000usize;
        for i in 0..n_bursts {
            let gap = 2_000 + rng.next_range(18_000) as usize;
            bursts.push((pos, lens[i % lens.len()]));
            pos += lens[i % lens.len()] + gap;
        }
        let n = pos + 3_000;
        let sig = bursty(n, &bursts, 1e-4, rng.next_range(500));
        let peaks = detect_peaks(
            &sig,
            8e6,
            PeakDetectorConfig {
                noise_floor: Some(1e-4),
                ..Default::default()
            },
        );
        // One peak per burst.
        assert_eq!(peaks.len(), bursts.len());
        // Ordered and non-overlapping, ids increasing.
        for w in peaks.windows(2) {
            assert!(w[0].peak.end <= w[1].peak.start);
            assert!(w[0].peak.id < w[1].peak.id);
        }
        // Each burst covered with tight edges.
        for ((s, l), pb) in bursts.iter().zip(peaks.iter()) {
            let p = pb.peak;
            assert!(
                (p.start as i64 - *s as i64).abs() <= 30,
                "start {} vs {}",
                p.start,
                s
            );
            assert!(
                (p.end as i64 - (*s + *l) as i64).abs() <= 60,
                "end {} vs {}",
                p.end,
                s + l
            );
            // PeakBlock samples must match the original stream.
            let a = (p.start - pb.sample_start) as usize;
            for k in (0..(p.len() as usize)).step_by(97) {
                assert_eq!(pb.samples[a + k], sig[p.start as usize + k]);
            }
        }
    });
}

/// The fused energy→peak-gate pass must be a pure refactoring of the
/// unfused reference: identical peaks (indices, powers, samples — bit for
/// bit) for every chunking of the stream, including adversarial chunk sizes
/// of 1, lane−1, lane, lane+1 and full-size chunks, under every SIMD
/// backend this CPU supports. `push_chunk_unfused` is the pre-fusion
/// detector loop kept verbatim as the differential oracle.
#[test]
fn fused_peak_detector_matches_unfused_reference() {
    use rfd_dsp::kernels::{self, Backend};
    use rfdump::chunk::{PeakBlock, SampleChunk};
    use rfdump::peak::PeakDetector;
    use std::sync::Arc;

    // Chunk sizes straddling the 4- and 8-lane boundaries, plus big chunks
    // so the strided hot-scan path runs too.
    const CHUNK_SIZES: &[usize] = &[1, 3, 7, 8, 9, 15, 16, 17, 1024, 8192];

    fn run_detector(
        chunks: &[SampleChunk],
        cfg: PeakDetectorConfig,
        fused: bool,
    ) -> Vec<PeakBlock> {
        let mut det = PeakDetector::new(cfg, 8e6);
        let mut out = Vec::new();
        for c in chunks {
            if fused {
                det.push_chunk(c, &mut out);
            } else {
                det.push_chunk_unfused(c, &mut out);
            }
        }
        det.finish(&mut out);
        out
    }

    fn assert_same_peaks(label: &str, got: &[PeakBlock], want: &[PeakBlock]) {
        assert_eq!(got.len(), want.len(), "{label}: peak count diverged");
        for (a, b) in got.iter().zip(want.iter()) {
            assert_eq!(a.peak.id, b.peak.id, "{label}: id");
            assert_eq!(a.peak.start, b.peak.start, "{label}: start");
            assert_eq!(a.peak.end, b.peak.end, "{label}: end");
            assert_eq!(
                a.peak.mean_power.to_bits(),
                b.peak.mean_power.to_bits(),
                "{label}: mean_power {} vs {}",
                a.peak.mean_power,
                b.peak.mean_power
            );
            assert_eq!(
                a.peak.noise_floor.to_bits(),
                b.peak.noise_floor.to_bits(),
                "{label}: noise_floor"
            );
            assert_eq!(a.sample_start, b.sample_start, "{label}: sample_start");
            assert_eq!(
                a.samples.len(),
                b.samples.len(),
                "{label}: sample window length"
            );
            for (i, (x, y)) in a.samples.iter().zip(b.samples.iter()).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{label}: sample {i} diverged: {x} vs {y}"
                );
            }
        }
    }

    seeded_cases(0x5EED_0008, 12, |rng| {
        let n_bursts = 1 + rng.next_range(3) as usize;
        let mut bursts = Vec::new();
        let mut pos = 3_000usize;
        for _ in 0..n_bursts {
            let len = 300 + rng.next_range(2_500) as usize;
            bursts.push((pos, len));
            pos += len + 2_000 + rng.next_range(10_000) as usize;
        }
        let n = pos + 3_000;
        let sig = bursty(n, &bursts, 1e-4, rng.next_range(500));

        // Slice the stream into adversarially-sized contiguous chunks.
        let mut chunks = Vec::new();
        let (mut at, mut seq) = (0usize, 0u64);
        while at < n {
            let want = CHUNK_SIZES[rng.next_range(CHUNK_SIZES.len() as u64) as usize];
            let take = want.min(n - at);
            chunks.push(SampleChunk {
                seq,
                start: at as u64,
                samples: Arc::new(sig[at..at + take].to_vec()),
                sample_rate: 8e6,
                ingest: None,
            });
            seq += 1;
            at += take;
        }

        let cfg = PeakDetectorConfig {
            noise_floor: Some(1e-4),
            ..Default::default()
        };
        let reference = run_detector(&chunks, cfg, false);
        assert_eq!(
            reference.len(),
            bursts.len(),
            "unfused reference must see every burst"
        );
        for &backend in kernels::available() {
            kernels::set_backend(backend).unwrap();
            let fused = run_detector(&chunks, cfg, true);
            assert_same_peaks(&format!("fused[{backend}] vs unfused"), &fused, &reference);
        }
        kernels::set_backend(Backend::Scalar).unwrap();
    });
}

/// CRC engines detect every 1- and 2-bit error.
#[test]
fn crc_detects_small_errors() {
    seeded_cases(0x5EED_0002, 96, |rng| {
        let data = random_bytes(rng, 4, 64);
        let which = rng.next_range(3) as usize;
        let crc = [Crc::crc32_ieee(), Crc::crc16_x25(), Crc::crc16_802154()][which].clone();
        // On the CRC-32 draws the table-driven `crc32` must agree with the
        // bit-serial engine on the clean and on both corrupted inputs.
        let compute = |bytes: &[u8]| {
            let v = crc.compute(bytes);
            if which == 0 {
                assert_eq!(u64::from(crc32(bytes)), v, "fast crc32 disagrees");
            }
            v
        };
        let good = compute(&data);
        let nbits = data.len() * 8;
        let b1 = rng.next_range(nbits as u64) as usize;
        let b2 = rng.next_range(nbits as u64) as usize;
        let mut bad = data.clone();
        bad[b1 / 8] ^= 1 << (b1 % 8);
        assert_ne!(compute(&bad), good, "single-bit error missed");
        if b2 != b1 {
            bad[b2 / 8] ^= 1 << (b2 % 8);
            assert_ne!(compute(&bad), good, "double-bit error missed");
        }
    });
}

/// Scrambler/descrambler and whitener are exact inverses; bit<->byte
/// packing round-trips.
#[test]
fn coding_round_trips() {
    seeded_cases(0x5EED_0003, 64, |rng| {
        let data = random_bytes(rng, 1, 128);
        let seed = (rng.next_range(0x80)) as u8;
        let clk = rng.next_range(64) as u32;

        let bits = bytes_to_bits_lsb(&data);
        assert_eq!(bits_to_bytes_lsb(&bits), data);

        let tx = Scrambler::new(seed).scramble(&bits);
        assert_eq!(Scrambler::new(seed).descramble(&tx), bits);

        let mut w = bits.clone();
        Whitener::for_bt_clock(clk).apply(&mut w);
        Whitener::for_bt_clock(clk).apply(&mut w);
        assert_eq!(w, bits);

        assert_eq!(repeat3_decode(&repeat3_encode(&bits)), bits);
    });
}

/// (15,10) FEC corrects any single error per block.
#[test]
fn hamming_corrects_any_single_error() {
    seeded_cases(0x5EED_0004, 64, |rng| {
        let blocks = 1 + rng.next_range(5) as usize;
        let data_seed = rng.next_u64();
        let nbits = blocks * 10;
        let data: Vec<bool> = (0..nbits)
            .map(|i| (data_seed >> (i % 64)) & 1 == 1)
            .collect();
        let mut coded = hamming1510_encode(&data);
        for blk in 0..blocks {
            let f = rng.next_range(15) as usize;
            coded[blk * 15 + f] = !coded[blk * 15 + f];
        }
        let (decoded, _) = hamming1510_decode(&coded);
        assert_eq!(decoded, data);
    });
}

/// Trace files round-trip arbitrary sample data within quantization.
#[test]
fn trace_format_round_trip() {
    seeded_cases(0x5EED_0005, 48, |rng| {
        let n = 1 + rng.next_range(499) as usize;
        let samples: Vec<Complex32> = (0..n)
            .map(|_| Complex32::new((rng.next_f32() - 0.5) * 6.0, (rng.next_f32() - 0.5) * 6.0))
            .collect();
        let rate_mhz = 1 + rng.next_range(63) as u32;
        let header = rfd_ether::trace::TraceHeader {
            sample_rate: rate_mhz as f64 * 1e6,
            center_hz: 37e6,
            n_samples: samples.len() as u64,
            scale: rfd_ether::trace::auto_scale(&samples),
        };
        let bytes = rfd_ether::trace::encode_trace(&header, &samples);
        let (h2, s2) = rfd_ether::trace::decode_trace(&bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(s2.len(), samples.len());
        let tol = header.scale * 2e-4;
        for (a, b) in samples.iter().zip(s2.iter()) {
            assert!((*a - *b).abs() <= tol, "{} vs {}", a, b);
        }
    });
}

/// PLCP headers round-trip for every rate/length combination.
#[test]
fn plcp_header_round_trip() {
    use rfd_phy::wifi::plcp::{PlcpHeader, WifiRate};
    seeded_cases(0x5EED_0006, 64, |rng| {
        let len = rng.next_range(2400) as usize;
        let rate =
            [WifiRate::R1, WifiRate::R2, WifiRate::R5_5, WifiRate::R11][rng.next_range(4) as usize];
        let h = PlcpHeader::for_psdu(len, rate);
        let parsed = PlcpHeader::from_bits(&h.to_bits()).unwrap();
        assert_eq!(parsed.psdu_len(), len);
        assert_eq!(parsed.rate, rate);
    });
}

/// MAC frames round-trip and corruption is always caught by the FCS.
#[test]
fn mac_frame_fcs_guarantees() {
    use rfd_phy::wifi::frame::{MacAddr, MacFrame};
    seeded_cases(0x5EED_0007, 64, |rng| {
        let body = random_bytes(rng, 0, 256);
        let seq = rng.next_range(4096) as u16;
        let f = MacFrame::data(
            MacAddr::station(1),
            MacAddr::station(2),
            MacAddr::station(0),
            seq,
            body,
        );
        let bytes = f.to_bytes();
        assert_eq!(MacFrame::from_bytes(&bytes).unwrap(), f);
        let mut bad = bytes.clone();
        let idx = rng.next_range(bad.len() as u64) as usize;
        bad[idx] ^= 1 << rng.next_range(8);
        assert!(
            MacFrame::from_bytes(&bad).is_none(),
            "corruption at byte {idx} accepted"
        );
    });
}

/// The dispatcher conserves peaks: every offered peak is either dispatched
/// (≥1 vote) or counted unclassified — no loss, no duplication.
#[test]
fn dispatcher_conserves_peaks() {
    use rfd_phy::Protocol;
    use rfdump::chunk::{Peak, PeakBlock};
    use rfdump::detect::Classification;
    use rfdump::dispatch::{DispatchConfig, Dispatcher};
    use std::sync::Arc;

    let mut rng = rfd_dsp::rng::Xoshiro256::new(99);
    let mut d = Dispatcher::new(DispatchConfig::default());
    let total = 200u64;
    let mut dispatched = 0u64;
    for id in 0..total {
        let pb = PeakBlock {
            peak: Peak {
                id,
                start: id * 5_000,
                end: id * 5_000 + 1_000,
                mean_power: 1.0,
                noise_floor: 1e-4,
            },
            samples: Arc::new(vec![]),
            sample_start: id * 5_000,
            sample_rate: 8e6,
            ingest: None,
        };
        let votes = if rng.next_bool(0.6) {
            vec![Classification {
                peak_id: id,
                protocol: if rng.next_bool(0.5) {
                    Protocol::Wifi
                } else {
                    Protocol::Bluetooth
                },
                confidence: 0.5 + rng.next_f32() * 0.5,
                channel: None,
                range: None,
            }]
        } else {
            vec![]
        };
        dispatched += d.on_peak(pb, votes).len() as u64;
    }
    dispatched += d.finish().len() as u64;
    let stats = d.stats();
    assert_eq!(stats.total_peaks, total);
    assert_eq!(dispatched + stats.unclassified_peaks, total);
}
