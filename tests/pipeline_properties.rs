//! Randomized-case tests of the monitoring pipeline's invariants: peak
//! detection geometry, dispatcher bookkeeping, trace-format round trips,
//! coding-layer guarantees. Each test sweeps deterministic seeded cases via
//! [`rfd_integration::seeded_cases`], so every failure reproduces exactly.

use rfd_dsp::coding::{
    bits_to_bytes_lsb, bytes_to_bits_lsb, crc32, hamming1510_decode, hamming1510_encode,
    repeat3_decode, repeat3_encode, Crc, Scrambler, Whitener,
};
use rfd_dsp::kernels::{self, Backend};
use rfd_dsp::rng::{GaussianGen, Xoshiro256};
use rfd_dsp::Complex32;
use rfd_integration::{random_bytes, seeded_cases};
use rfdump::chunk::{PeakBlock, SampleChunk};
use rfdump::peak::{detect_peaks, PeakDetector, PeakDetectorConfig};
use std::sync::Arc;

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

/// Chunk sizes straddling the 4- and 8-lane boundaries, plus big chunks so
/// the strided hot-scan path runs too.
const CHUNK_SIZES: &[usize] = &[1, 3, 7, 8, 9, 15, 16, 17, 1024, 8192];

/// `sig` cut into contiguous chunks whose sizes are drawn from
/// [`CHUNK_SIZES`].
fn adversarial_chunks(sig: &[Complex32], rng: &mut Xoshiro256) -> Vec<SampleChunk> {
    let mut chunks = Vec::new();
    let (mut at, mut seq) = (0usize, 0u64);
    while at < sig.len() {
        let want = CHUNK_SIZES[rng.next_range(CHUNK_SIZES.len() as u64) as usize];
        let take = want.min(sig.len() - at);
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
    chunks
}

/// Runs a detector over `chunks`, fused or through the unfused reference;
/// returns its peaks and how many blocks it sent through the sequential
/// pass.
fn run_detector(
    chunks: &[SampleChunk],
    cfg: PeakDetectorConfig,
    fused: bool,
) -> (Vec<PeakBlock>, u64) {
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
    (out, det.sequential_blocks())
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

/// The fused energy→peak-gate pass must be a pure refactoring of the
/// unfused reference: identical peaks (indices, powers, samples — bit for
/// bit) for every chunking of the stream, including adversarial chunk sizes
/// of 1, lane−1, lane, lane+1 and full-size chunks, under every SIMD
/// backend this CPU supports. `push_chunk_unfused` is the pre-fusion
/// detector loop kept verbatim as the differential oracle.
#[test]
fn fused_peak_detector_matches_unfused_reference() {
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
        let chunks = adversarial_chunks(&sig, rng);

        let cfg = PeakDetectorConfig {
            noise_floor: Some(1e-4),
            ..Default::default()
        };
        let (reference, _) = run_detector(&chunks, cfg, false);
        assert_eq!(
            reference.len(),
            bursts.len(),
            "unfused reference must see every burst"
        );
        for &backend in kernels::available() {
            kernels::set_backend(backend).unwrap();
            let (fused, _) = run_detector(&chunks, cfg, true);
            assert_same_peaks(&format!("fused[{backend}] vs unfused"), &fused, &reference);
        }
        kernels::set_backend(Backend::Scalar).unwrap();
    });
}

/// Streams built to break the fused pass's exactness certificate, and
/// streams that stress its certified path, each under the noise-floor and
/// averaging-window settings below: the fused pass must match the unfused
/// reference bit for bit under every backend, and must send a block through
/// the sequential pass exactly when its certificate fails — counted by
/// `PeakDetector::sequential_blocks`, which is also required to agree
/// across chunkings and backends.
#[test]
fn fused_peak_detector_falls_back_where_the_certificate_breaks() {
    use rfdump::peak::DETECT_BLOCK;

    const N: usize = 100 * DETECT_BLOCK;
    // Unit-power bursts in 1e-4 noise. The first peak's hang run crosses
    // the block boundary at 5 000 (the burst ends ten samples before it);
    // the second opens five samples into the block at 10 000, inside the
    // first averaging window of that block.
    let base = bursty(
        N,
        &[(3_000, 1_990), (10_005, 2_500), (16_000, 1_200)],
        1e-4,
        7,
    );
    let edit = |f: &dyn Fn(&mut [Complex32])| {
        let mut sig = base.clone();
        f(&mut sig);
        sig
    };
    let tiny = 2f32.powi(-20); // scales power by 2^-40
                               // Each breaker fails the certificate of the block it sits in, and of
                               // the next block too when it sits in the averaging window that block
                               // inherits: the sample's offset in its block is given for that.
    let breakers: Vec<(&str, Vec<Complex32>, Option<usize>)> = vec![
        (
            "2^-40 sample in a unit-power block",
            edit(&|s| s[11_111] = s[11_111].scale(tiny)),
            Some(111),
        ),
        (
            "subnormal power",
            edit(&|s| s[7_777] = Complex32::new(1e-20, 0.0)),
            Some(177),
        ),
        (
            "single huge sample",
            edit(&|s| s[13_333] = Complex32::new(1e12, 0.0)),
            Some(133),
        ),
        // Two whole blocks of zeros: the first still inherits noise in its
        // window; the second holds nothing but zeros.
        (
            "exact-zero blocks",
            edit(&|s| s[6_000..6_400].fill(Complex32::ZERO)),
            None,
        ),
    ];
    let configs = [
        (Some(1e-4), 20),
        (None, 5),
        (None, 20),
        (None, 80),
        (Some(1e-4), 80),
    ];

    let mut rng = Xoshiro256::new(0x5EED_0009);
    // Fused fallback count, identical under every backend, after checking
    // the fused peaks against the unfused reference.
    let mut check = |label: &str, sig: &[Complex32], cfg: PeakDetectorConfig| -> u64 {
        let chunks = adversarial_chunks(sig, &mut rng);
        let (reference, _) = run_detector(&chunks, cfg, false);
        let mut counts = Vec::new();
        for &backend in kernels::available() {
            kernels::set_backend(backend).unwrap();
            let (fused, sequential) = run_detector(&chunks, cfg, true);
            assert_same_peaks(&format!("{label} fused[{backend}]"), &fused, &reference);
            counts.push(sequential);
        }
        kernels::set_backend(Backend::Scalar).unwrap();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{label}: {counts:?}"
        );
        // Whole-block pushes decide the same blocks as any chunking.
        let mut det = PeakDetector::new(cfg, 8e6);
        let mut out = Vec::new();
        det.push_samples(0, sig, None, &mut out);
        det.finish(&mut out);
        assert_eq!(det.sequential_blocks(), counts[0], "{label}: chunking");
        counts[0]
    };

    for (floor, avg_window) in configs {
        let cfg = PeakDetectorConfig {
            noise_floor: floor,
            avg_window,
            ..Default::default()
        };
        let label = format!("floor {floor:?} window {avg_window}");
        let peaks = detect_peaks(&base, 8e6, cfg);
        assert_eq!(
            peaks.len(),
            3,
            "{label}: the base stream must show its bursts"
        );
        // The clean stream falls back on its first block, whose window is
        // not yet full, and where a burst edge puts noise and signal more
        // than 2^29 apart in one block or the window it inherits: at most
        // two blocks for each of the six edges.
        let clean = check(&format!("{label} base"), &base, cfg);
        assert!(
            (1..=13).contains(&clean),
            "{label}: {clean} clean fallbacks"
        );
        for (what, sig, offset) in &breakers {
            let inherited = offset.is_some_and(|o| o >= DETECT_BLOCK - avg_window);
            let sequential = check(&format!("{label} {what}"), sig, cfg);
            assert_eq!(
                sequential,
                clean + 1 + inherited as u64,
                "{label}: {what} must take the fallback"
            );
        }
        // A final partial block always runs sequentially.
        let whole = check(&format!("{label} whole"), &base[..N - DETECT_BLOCK], cfg);
        let partial = check(&format!("{label} partial"), &base[..N - 77], cfg);
        assert_eq!(partial, whole + 1, "{label}: final partial block");
    }
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
