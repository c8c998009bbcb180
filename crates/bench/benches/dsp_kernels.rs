//! Kernel-backend benchmark: per-kernel throughput under every SIMD backend
//! this CPU supports, the fused vs unfused detection front end, and the
//! whole-pipeline effect (a Fig. 9-style efficiency run before/after).
//!
//! All backends are bit-exact against the scalar reference (see
//! `tests/kernel_differential.rs`), so the only thing that may differ here
//! is speed. The report quantifies it:
//!
//! - `kernels.<name>.<backend>` — per-call timing and Msps for each hot
//!   kernel under each backend (`scalar`, and `avx2` when available);
//! - `speedup.<name>` — best-backend Msps over scalar Msps;
//! - `fused_peak_detector` — the single-pass energy→peak-gate front end vs
//!   the pre-fusion reference loop, same backend;
//! - `pipeline` — full `run_architecture` CPU/RT under scalar vs the best
//!   backend, on the Fig. 9 utilization workload.
//!
//! Prints tables and writes `BENCH_dsp.json`.
//!
//! Run: `cargo bench -p rfd-bench --bench dsp_kernels`

use rfd_bench::print_table;
use rfd_bench::report::{time_fn, BenchReport, Timing};
use rfd_dsp::fft::Fft;
use rfd_dsp::kernels::{self, Backend};
use rfd_dsp::rng::GaussianGen;
use rfd_dsp::Complex32;
use rfd_telemetry::json::JsonValue;
use rfdump::chunk::SampleChunk;
use rfdump::peak::{PeakDetector, PeakDetectorConfig};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 65_536;
const MIN_ITERS: u64 = 20;
const MIN_TIME: Duration = Duration::from_millis(150);

fn noise(n: usize, seed: u64) -> Vec<Complex32> {
    let mut v = vec![Complex32::ZERO; n];
    GaussianGen::new(seed).add_awgn(&mut v, 1.0);
    v
}

/// One kernel timed under one backend; returns Msps.
fn timed(samples: usize, f: impl FnMut()) -> (Timing, f64) {
    let t = time_fn(f, MIN_ITERS, MIN_TIME);
    let msps = samples as f64 / (t.mean_ns / 1e9) / 1e6;
    (t, msps)
}

fn main() {
    let mut report = BenchReport::new("dsp");
    let backends: Vec<Backend> = kernels::available().to_vec();
    println!(
        "backends on this host: {}",
        backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let sig = noise(N, 1);
    let flat: Vec<f32> = sig.iter().flat_map(|z| [z.re, z.im]).collect();
    let taps2: Vec<f32> = noise(41, 3).iter().flat_map(|z| [z.re, z.im]).collect();
    let window = &flat[..taps2.len()];
    let fft64 = Fft::new(64);

    // kernel name -> per-backend (mean_ns, msps)
    let kernel_names = [
        "sum_sq_f32",
        "power_into",
        "fir_dot41",
        "conj_mul_adjacent",
        "fft64",
    ];
    let mut msps: Vec<Vec<f64>> = vec![Vec::new(); kernel_names.len()];
    let mut json_kernels: Vec<(String, JsonValue)> = kernel_names
        .iter()
        .map(|n| (n.to_string(), JsonValue::Obj(Vec::new())))
        .collect();

    for &backend in &backends {
        kernels::set_backend(backend).unwrap();
        let mut results: Vec<(Timing, f64)> = Vec::new();

        results.push(timed(N, || {
            black_box(kernels::sum_sq_f32(&flat[..N]));
        }));
        let mut power = Vec::new();
        results.push(timed(N, || {
            kernels::power_into(&sig, &mut power);
            black_box(power.len());
        }));
        results.push(timed(N, || {
            // One dot per output sample: normalize to the window length so
            // Msps reads as filtered samples per second.
            let mut acc = Complex32::ZERO;
            for _ in 0..N {
                acc += kernels::fir_dot(window, &taps2);
            }
            black_box(acc);
        }));
        let mut adj = vec![Complex32::ZERO; sig.len() - 1];
        results.push(timed(N, || {
            kernels::conj_mul_adjacent(&sig, &mut adj);
            black_box(adj.len());
        }));
        let mut buf = sig[..64].to_vec();
        results.push(timed(N, || {
            for chunk in sig.chunks_exact(64) {
                buf.copy_from_slice(chunk);
                fft64.forward(&mut buf);
            }
            black_box(buf[0]);
        }));

        for (k, (t, m)) in results.into_iter().enumerate() {
            msps[k].push(m);
            let mut entry = t.to_json();
            entry.push("throughput_msps", JsonValue::num(m));
            if let JsonValue::Obj(fields) = &mut json_kernels[k].1 {
                fields.push((backend.name().to_string(), entry));
            }
        }
    }

    // Per-kernel table: one row per kernel, one Msps column per backend.
    let mut headers: Vec<&str> = vec!["kernel"];
    headers.extend(backends.iter().map(|b| b.name()));
    headers.push("best/scalar");
    let mut rows = Vec::new();
    let mut json_speedup: Vec<(String, JsonValue)> = Vec::new();
    for (k, name) in kernel_names.iter().enumerate() {
        let scalar = msps[k][0];
        let best = msps[k].iter().cloned().fold(0.0f64, f64::max);
        let speedup = best / scalar;
        let mut row = vec![name.to_string()];
        row.extend(msps[k].iter().map(|m| format!("{m:.0} Msps")));
        row.push(format!("{speedup:.2}x"));
        rows.push(row);
        json_speedup.push((name.to_string(), JsonValue::num(speedup)));
    }
    print_table(
        "DSP kernel throughput by backend (bit-exact, speed only)",
        &headers,
        &rows,
    );
    report.push("kernels", JsonValue::Obj(json_kernels));
    report.push("speedup", JsonValue::Obj(json_speedup));

    // -- fused vs unfused detection front end (best backend) ---------------
    kernels::set_backend(*backends.last().unwrap()).unwrap();
    let quiet: Vec<Complex32> = sig.iter().map(|z| z.scale(0.01)).collect();
    let chunks = SampleChunk::chunk_trace(&quiet, 8e6, rfdump::CHUNK_SAMPLES);
    let cfg = PeakDetectorConfig {
        noise_floor: Some(1e-4),
        ..Default::default()
    };
    let run_detector = |fused: bool| {
        let mut det = PeakDetector::new(cfg, 8e6);
        let mut out = Vec::new();
        for c in &chunks {
            if fused {
                det.push_chunk(c, &mut out);
            } else {
                det.push_chunk_unfused(c, &mut out);
            }
        }
        black_box(out.len());
    };
    let (t_fused, m_fused) = timed(N, || run_detector(true));
    let (t_unfused, m_unfused) = timed(N, || run_detector(false));
    print_table(
        "Detection front end: fused energy→peak-gate vs unfused reference",
        &["path", "mean/call", "throughput"],
        &[
            vec![
                "fused".into(),
                t_fused.fmt_mean(),
                format!("{m_fused:.0} Msps"),
            ],
            vec![
                "unfused".into(),
                t_unfused.fmt_mean(),
                format!("{m_unfused:.0} Msps"),
            ],
        ],
    );
    let mut fused_json = t_fused.to_json();
    fused_json.push("throughput_msps", JsonValue::num(m_fused));
    let mut unfused_json = t_unfused.to_json();
    unfused_json.push("throughput_msps", JsonValue::num(m_unfused));
    report.push(
        "fused_peak_detector",
        JsonValue::obj(vec![
            ("fused", fused_json),
            ("unfused", unfused_json),
            ("speedup", JsonValue::num(m_fused / m_unfused)),
        ]),
    );

    // -- whole pipeline before/after (Fig. 9 workload) ---------------------
    let trace = rfd_bench::utilization_trace(0.3, 150_000.0, 7);
    let cfg = rfdump::arch::ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        telemetry: false,
        ..rfdump::arch::ArchConfig::rfdump(vec![rfd_bench::piconet()])
    };
    let mut pipeline_rows = Vec::new();
    let mut pipeline_json: Vec<(String, JsonValue)> = Vec::new();
    for &backend in &[Backend::Scalar, *backends.last().unwrap()] {
        kernels::set_backend(backend).unwrap();
        let t = time_fn(
            || {
                let out =
                    rfdump::arch::run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
                black_box(out.records.len());
            },
            3,
            Duration::from_millis(300),
        );
        let trace_s = trace.samples.len() as f64 / trace.band.sample_rate;
        let cpu_over_rt = (t.mean_ns / 1e9) / trace_s;
        pipeline_rows.push(vec![
            backend.name().to_string(),
            t.fmt_mean(),
            format!("{cpu_over_rt:.3}x"),
        ]);
        pipeline_json.push((
            backend.name().to_string(),
            JsonValue::obj(vec![
                ("mean_ns", JsonValue::num(t.mean_ns)),
                ("cpu_over_realtime", JsonValue::num(cpu_over_rt)),
            ]),
        ));
    }
    print_table(
        "Full pipeline (Fig. 9 workload): scalar vs best backend",
        &["backend", "mean/run", "CPU/RT"],
        &pipeline_rows,
    );
    report.push("pipeline", JsonValue::Obj(pipeline_json));

    match report.write() {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("\nfailed to write bench json: {e}"),
    }
}
