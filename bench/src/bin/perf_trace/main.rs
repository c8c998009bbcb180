//! `perf_trace` — the per-layer half of the repo benchmark: one traced run.
//!
//! In-process, single-threaded, on the trace of the chosen workload. Each
//! round replays the trace stage by stage through every crate's public entry
//! points with a span at each boundary (`staged`), runs the real flowgraph
//! on the same bytes for the in-process end-to-end figure the stages must
//! add up to, and times the layers the replay does not isolate (`micro`).
//! Reported values are medians over the rounds that fit in `--seconds`.
//!
//! Metric definitions and which end-to-end metric each should move:
//! `bench/README.md`.

mod micro;
mod staged;

use rfd_dsp::Complex32;
use rfd_ether::trace::{auto_scale, decode_trace, encode_trace, TraceHeader};
use rfd_perfbench::alloc::CountingAlloc;
use rfd_perfbench::json::Json;
use rfd_perfbench::report::{self, Args, Fingerprint, Metric, WorkloadResult};
use rfd_perfbench::spans::{chrome_trace, self_totals, LayerTotals, Recorder, Span};
use rfd_perfbench::stats::median;
use rfd_perfbench::workloads::{self, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// Samples of the trace the `micro` passes run over.
const MICRO_SAMPLES: usize = 2_000_000;

/// Span names whose self times, with the residual, make up the in-process
/// end to end (decode → analysis → formatted lines). The egress stages
/// (journal, framing, hub) are traced too but lie outside that sum.
const E2E_LAYERS: [(&str, &[&str]); 8] = [
    ("ether.decode", &["ether.decode"]),
    ("chunk.split", &["chunk.split"]),
    ("peak", &["peak.push_chunk", "peak.finish"]),
    ("detect", &["detect.on_peak"]),
    ("dispatch", &["dispatch.on_peak", "dispatch.finish"]),
    (
        "analyze",
        &["analyze.wifi", "analyze.bt", "analyze.microwave"],
    ),
    ("records.sort", &["records.sort"]),
    ("records.format", &["records.format"]),
];

/// Per-metric values, one per round, in first-seen order.
#[derive(Default)]
struct Series(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Series {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }
}

fn self_s(totals: &BTreeMap<&'static str, LayerTotals>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.self_ns as f64 * 1e-9)
        .sum()
}

fn self_allocs(totals: &BTreeMap<&'static str, LayerTotals>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.self_allocs as f64)
        .sum()
}

/// `a / b`, or 0 where the workload gives the layer nothing to do (no
/// Bluetooth forwarded on a Wi-Fi-only trace, say): the metric is then
/// reported as 0 because the driver wants every name on every workload.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One round's decomposition of the in-process end to end, ns/sample: the
/// layers of [`E2E_LAYERS`] and the residual that closes the sum exactly.
struct Budget {
    e2e: f64,
    layers: [f64; E2E_LAYERS.len()],
    residual: f64,
    /// The same stages minus decode and format, and the flowgraph's own
    /// per-block CPU total (`-s`), which covers the same blocks.
    staged_blocks: f64,
    stats_total_cpu: f64,
}

/// What one round hands back beside the metric values.
struct Round {
    spans: Vec<Span>,
    /// Every record stream agreed.
    agree: bool,
    budget: Budget,
}

/// What every round of one workload measures on.
struct Input {
    /// The trace as `rfdump -r` would read it from disk.
    bytes: Vec<u8>,
    header: TraceHeader,
    /// The first [`MICRO_SAMPLES`] decoded samples, for the `micro` passes.
    prefix: Vec<Complex32>,
    /// The same, quantized as `send` puts them on the wire.
    prefix_iq: Vec<(i16, i16)>,
}

/// Runs every measurement once and appends one value per metric.
fn round(n: u64, input: &Input, work: &Path, s: &mut Series) -> Round {
    let Input { bytes, header, .. } = input;
    let journal = work.join("journal");
    let samples = header.n_samples as f64;
    let msamples = samples / 1e6;

    // The real flowgraph on the same bytes: the figure the stages add up to.
    let flow = staged::flowgraph(bytes, 0, false);

    // Traced and untraced staged replays, alternating which goes first.
    let mut traced = Recorder::new(true);
    traced.set_trace(n);
    let run_traced = |rec: &mut Recorder| staged::replay(rec, bytes, &journal);
    let run_plain = || {
        let t = Instant::now();
        let r = staged::replay(&mut Recorder::new(false), bytes, &journal);
        (t.elapsed().as_secs_f64(), r)
    };
    let (replay, plain_s, plain) = if n.is_multiple_of(2) {
        let r = run_traced(&mut traced);
        let (t, p) = run_plain();
        (r, t, p)
    } else {
        let (t, p) = run_plain();
        (run_traced(&mut traced), t, p)
    };
    let spans = traced.spans().to_vec();
    let totals = self_totals(&spans);
    let traced_s = totals["replay"].total_ns as f64 * 1e-9;
    let c = &replay.counts;

    let telemetry = staged::flowgraph(bytes, 0, true);
    let pooled = staged::flowgraph(bytes, 2, false);
    let agree = replay.lines == flow.lines
        && plain.lines == flow.lines
        && telemetry.lines == flow.lines
        && pooled.lines == flow.lines
        && c.journal_recovered == c.records;

    // ---- the layers of the offline path ----
    let layer = |names: &[&str]| self_s(&totals, names);
    let staged_sum: f64 = E2E_LAYERS.iter().map(|(_, names)| layer(names)).sum();
    let budget = Budget {
        e2e: flow.e2e_s() * 1e9 / samples,
        layers: E2E_LAYERS.map(|(_, names)| layer(names) * 1e9 / samples),
        residual: (flow.e2e_s() - staged_sum) * 1e9 / samples,
        staged_blocks: (staged_sum - layer(&["ether.decode", "records.format"])) * 1e9 / samples,
        stats_total_cpu: flow.out.stats.total_cpu().as_secs_f64() * 1e9 / samples,
    };
    s.push("inproc.e2e_ns_per_sample", "ns/sample", budget.e2e);
    s.push(
        "ether.decode_ns_per_sample",
        "ns/sample",
        layer(&["ether.decode"]) * 1e9 / samples,
    );
    s.push(
        "chunk.split_ns_per_sample",
        "ns/sample",
        layer(&["chunk.split"]) * 1e9 / samples,
    );
    s.push(
        "flowgraph.residual_ns_per_sample",
        "ns/sample",
        budget.residual,
    );
    s.push(
        "flowgraph.pool_w2_speedup",
        "ratio",
        flow.arch_s / pooled.arch_s,
    );
    s.push(
        "peak.ns_per_sample",
        "ns/sample",
        layer(&["peak.push_chunk", "peak.finish"]) * 1e9 / samples,
    );
    s.push("peak.blocks", "count", c.peaks as f64);
    s.push("peak.busy_share", "share", c.peak_samples as f64 / samples);
    s.push(
        "detect.ns_per_peak",
        "ns/peak",
        per(layer(&["detect.on_peak"]) * 1e9, c.peaks as f64),
    );
    s.push("detect.votes", "count", c.votes as f64);
    s.push(
        "dispatch.ns_per_peak",
        "ns/peak",
        per(
            layer(&["dispatch.on_peak", "dispatch.finish"]) * 1e9,
            c.peaks as f64,
        ),
    );
    s.push(
        "dispatch.forwarded_share",
        "share",
        c.fwd_samples as f64 / samples,
    );
    s.push(
        "analyze.wifi_ns_per_fwd_sample",
        "ns/sample",
        per(layer(&["analyze.wifi"]) * 1e9, c.fwd_wifi_samples as f64),
    );
    s.push(
        "analyze.bt_ns_per_fwd_sample",
        "ns/sample",
        per(layer(&["analyze.bt"]) * 1e9, c.fwd_bt_samples as f64),
    );
    s.push(
        "analyze.decoded_share",
        "share",
        per(c.decoded as f64, c.dispatched as f64),
    );
    s.push(
        "records.format_ns_per_record",
        "ns/record",
        per(layer(&["records.format"]) * 1e9, c.records as f64),
    );
    s.push(
        "records.codec_ns_per_record",
        "ns/record",
        per(
            layer(&["records.encode", "records.decode"]) * 1e9,
            c.records as f64,
        ),
    );
    s.push(
        "journal.append_ns_per_entry",
        "ns/entry",
        per(layer(&["journal.append"]) * 1e9, c.records as f64),
    );
    s.push("journal.sync_us", "us", layer(&["journal.sync"]) * 1e6);
    s.push(
        "journal.recover_ms",
        "ms",
        layer(&["journal.recover"]) * 1e3,
    );
    s.push(
        "journal.bytes_per_record",
        "bytes",
        per(c.journal_bytes as f64, c.records as f64),
    );
    s.push(
        "net.hub_publish_ns_per_record",
        "ns/record",
        per(layer(&["net.hub_publish"]) * 1e9, c.records as f64),
    );
    s.push(
        "telemetry.overhead_share",
        "share",
        telemetry.arch_s / flow.arch_s - 1.0,
    );
    s.push("trace.overhead_share", "share", traced_s / plain_s - 1.0);
    // ---- exact counts from the counting allocator ----
    s.push(
        "alloc.offline_per_msample",
        "1/Msample",
        flow.arch_allocs.allocs as f64 / msamples,
    );
    s.push(
        "alloc.offline_bytes_per_sample",
        "B/sample",
        flow.arch_allocs.bytes as f64 / samples,
    );
    s.push(
        "alloc.peak_per_msample",
        "1/Msample",
        self_allocs(&totals, &["peak.push_chunk", "peak.finish"]) / msamples,
    );
    s.push(
        "alloc.analyze_per_record",
        "1/record",
        per(
            self_allocs(
                &totals,
                &["analyze.wifi", "analyze.bt", "analyze.microwave"],
            ),
            c.records as f64,
        ),
    );

    // ---- layers the replay does not isolate, on a prefix of the trace ----
    let (x, iq) = (&input.prefix[..], &input.prefix_iq[..]);
    let nx = x.len() as f64;
    let fs = header.sample_rate;
    s.push(
        "phy.wifi_rx_ns_per_sample",
        "ns/sample",
        micro::wifi_rx(x, fs) * 1e9 / nx,
    );
    s.push(
        "phy.bt_rx_ns_per_sample",
        "ns/sample",
        micro::bt_rx(x, fs) * 1e9 / nx,
    );
    s.push(
        "dsp.fir41_ns_per_sample",
        "ns/sample",
        micro::fir41(x) * 1e9 / nx,
    );
    s.push(
        "dsp.power_ns_per_sample",
        "ns/sample",
        micro::power(x) * 1e9 / nx,
    );
    s.push(
        "dsp.phase_diff_ns_per_sample",
        "ns/sample",
        micro::phase_diff(x) * 1e9 / nx,
    );
    s.push(
        "dsp.fft64_ns_per_sample",
        "ns/sample",
        micro::fft64(x) * 1e9 / nx,
    );
    let big = micro::framing(iq, rfd_net::frame::DEFAULT_CHUNK_SAMPLES);
    let small = micro::framing(&iq[..iq.len() / 16], 64);
    s.push(
        "net.frame_encode_ns_per_sample",
        "ns/sample",
        big.encode_s * 1e9 / nx,
    );
    s.push(
        "net.frame_decode_ns_per_sample",
        "ns/sample",
        big.decode_s * 1e9 / nx,
    );
    s.push(
        "net.frame_decode_small_ns_per_frame",
        "ns/frame",
        small.decode_s * 1e9 / small.frames as f64,
    );
    s.push(
        "alloc.frame_decode_per_frame",
        "1/frame",
        big.decode_allocs.allocs as f64 / big.frames as f64,
    );
    s.push(
        "net.queue_ns_per_chunk",
        "ns/chunk",
        micro::queue(20_000) * 1e9 / 20_000.0,
    );
    s.push(
        "net.hub_publish_8sub_ns_per_record",
        "ns/record",
        per(
            micro::hub_publish(&flow.lines, 8) * 1e9,
            flow.lines.len() as f64,
        ),
    );
    s.push(
        "net.ingest_msps",
        "Msample/s",
        nx / micro::ingest(iq, fs, header.scale) / 1e6,
    );
    s.push(
        "net.fleet_ingest_msps",
        "Msample/s",
        nx / micro::fleet_ingest(iq, fs, header.scale, 2) / 1e6,
    );
    let _ = std::fs::remove_dir_all(&journal);
    Round {
        spans,
        agree,
        budget,
    }
}

/// The layer table of the round whose end to end is the median: ns/sample
/// and share of the in-process end to end, the residual closing the sum
/// exactly, and the flowgraph's own CPU accounting beside the stages that
/// cover the same blocks (any remainder is printed, not hidden).
fn layer_table(budgets: &[Budget]) -> String {
    let mut by_e2e: Vec<&Budget> = budgets.iter().collect();
    by_e2e.sort_by(|a, b| a.e2e.total_cmp(&b.e2e));
    let b = by_e2e[(by_e2e.len() - 1) / 2];
    let mut out = format!("  {:<22} {:>12} {:>9}\n", "layer", "ns/sample", "% of e2e");
    let mut row = |name: &str, ns: f64| {
        out.push_str(&format!(
            "  {name:<22} {ns:>12.3} {:>8.1}%\n",
            100.0 * ns / b.e2e
        ))
    };
    for ((name, _), ns) in E2E_LAYERS.iter().zip(b.layers) {
        row(name, ns);
    }
    row("flowgraph.residual", b.residual);
    row("in-process e2e", b.e2e);
    out.push_str(&format!(
        "  staged chunk..sort {:.3} ns/sample vs ArchOutput.stats.total_cpu() {:.3} ns/sample (remainder {:+.3})\n",
        b.staged_blocks,
        b.stats_total_cpu,
        b.stats_total_cpu - b.staged_blocks,
    ));
    out
}

fn run_workload(w: Workload, args: &Args, work: &Path) -> (WorkloadResult, Vec<Span>) {
    let setup = Instant::now();
    let trace = workloads::synthesize(w.trace, args.seed);
    let header = TraceHeader {
        sample_rate: trace.band.sample_rate,
        center_hz: trace.band.center_hz,
        n_samples: trace.samples.len() as u64,
        scale: auto_scale(&trace.samples),
    };
    let bytes = encode_trace(&header, &trace.samples);
    drop(trace);
    let (_, mut prefix) = decode_trace(&bytes).expect("the trace was encoded just above");
    prefix.truncate(MICRO_SAMPLES);
    prefix.shrink_to_fit();
    let input = Input {
        prefix_iq: micro::quantize(&prefix, header.scale),
        prefix,
        bytes,
        header,
    };
    let header = &input.header;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut series = Series::default();
    let mut spans = Vec::new();
    let mut budgets = Vec::new();
    let mut agreed = 0u64;
    let mut spent = Vec::new();
    let started = Instant::now();
    while budgets.len() < MIN_ROUNDS
        || started.elapsed().as_secs_f64() + median(&spent) <= args.seconds
    {
        let t = Instant::now();
        let r = round(budgets.len() as u64, &input, work, &mut series);
        spent.push(t.elapsed().as_secs_f64());
        spans = r.spans;
        agreed += r.agree as u64;
        budgets.push(r.budget);
    }
    let rounds = budgets.len() as u64;
    println!(
        "== {} (trace {}, {} samples, {rounds} rounds) ==",
        w.name,
        w.trace.stem(),
        header.n_samples
    );
    print!("{}", layer_table(&budgets));
    let result = WorkloadResult {
        name: w.name,
        correct: agreed == rounds,
        // One operation = one round's check that the staged replay, the
        // plain, telemetry and pooled flowgraph runs and the journal all
        // yield the same records.
        attempted: rounds,
        failed: rounds - agreed,
        notes: vec![
            ("rounds".into(), Json::Num(rounds as f64)),
            ("trace_samples".into(), Json::Num(header.n_samples as f64)),
            ("setup_s".into(), Json::Num(setup_s)),
        ],
        metrics: series
            .0
            .iter()
            .map(|(n, u, v)| Metric::new(n, u, v))
            .collect(),
    };
    (result, spans)
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    let mut results = Vec::new();
    let mut all_spans = Vec::new();
    for &w in &args.workloads {
        let (r, spans) = run_workload(w, args, work);
        print!("{}", r.table());
        println!("{}", r.driver_line());
        all_spans.extend(spans);
        results.push(r);
    }
    if let Some(out) = &args.out {
        let fp = Fingerprint::collect(&args.rfdump);
        let trace_out = out.with_extension("trace.json");
        std::fs::write(
            out,
            report::result_file(&fp, "layers", args.seed, args.seconds, &results),
        )
        .and_then(|()| std::fs::write(&trace_out, chrome_trace(&all_spans)))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        eprintln!(
            "perf_trace: wrote {} and {}",
            out.display(),
            trace_out.display()
        );
    }
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args = match report::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_trace: {e}");
            eprintln!(
                "usage: perf_trace [--workload NAME|all] [--seed N] [--seconds S] [--out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let work = match report::work_dir() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perf_trace: cannot create a work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf_trace: the staged replay and the flowgraph disagree on the records");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf_trace: {e}");
            ExitCode::FAILURE
        }
    }
}
