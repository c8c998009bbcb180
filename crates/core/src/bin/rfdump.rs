//! `rfdump` — the command-line monitor.
//!
//! The wireless analogue of `tcpdump -r`: reads a recorded sample trace (the
//! USRP-style `.rfdt` format written by `rfd_ether::trace`) and prints one
//! line per monitored transmission.
//!
//! Besides offline replay, three subcommands speak the `rfd-net` wire
//! protocol: `serve` runs the live capture server (sample streams in,
//! record streams out), `send` replays a trace into a server, and `watch`
//! subscribes to a server's record stream. A fourth, `top`, polls a
//! `--metrics-addr` scrape endpoint and renders a refreshing terminal
//! view of rates, per-stage latency quantiles and recent events.
//!
//! `rfdump kernel` reports the DSP kernel backend this host resolves:
//! the active backend (after honoring `RFD_KERNEL=scalar|sse2|avx2|auto`),
//! the raw request, and every backend the CPU supports. All backends are
//! bit-exact against the scalar reference, so record output never depends
//! on which one runs; the subcommand exists so scripts can assert the
//! vectorized paths actually engaged.
//!
//! ```text
//! rfdump -r trace.rfdt [options]
//! rfdump serve --listen ADDR [--once | --expect N] [--source-timeout SECS]
//!              [--fleet]
//!              [--queue-cap N] [--overflow block|drop-oldest]
//!              [--sub-queue-cap N] [--resume-grace SECS]
//!              [arch options] [-q]
//!              [--stats-json F] [--trace-out F] [--metrics-addr ADDR]
//! rfdump send --connect ADDR [--rate max|real-time] [--chunk N]
//!             [--retries N] [--source ID] TRACE
//! rfdump watch --connect ADDR [-q] [--journal DIR]
//!              [--source ID [--wait-source SECS]]
//! rfdump top --connect ADDR [--interval SECS] [--once]
//! rfdump kernel
//!
//!   -r FILE          trace file to read (required)
//!   -a ARCH          rfdump | naive | naive-energy      (default rfdump)
//!   -d SET           timing | phase | both | all        (default both)
//!   -n               detection only, no demodulation
//!   -p LAP:UAP       piconet to acquire (hex, e.g. 9e8b33:47); repeatable
//!   -z               enable the ZigBee detectors/analyzer
//!   -s               print per-stage CPU statistics
//!   -q               suppress packet lines (stats only)
//!   --workers N      analysis worker threads (0 = run the analysis
//!                    pool's tasks inline on the scheduler thread; the
//!                    record output is byte-identical for any N; default
//!                    from RFD_WORKERS, else 0)
//!   --no-telemetry   disable the metrics registry / span trace
//!   --stats-json F   write the versioned rfd-stats JSON document to F
//!   --trace-out F    write the span trace as chrome://tracing JSON to F
//!   --chaos SPEC     fault-injection plan (see rfd-fault; overrides the
//!                    RFD_FAULTS environment variable)
//!   --governor MODE  graceful degradation: auto (adaptive ladder) or a
//!                    pinned shed level 0|1|2 (deterministic runs)
//!   --metrics-addr A serve live metrics over HTTP at A (host:port; port 0
//!                    picks an ephemeral port, printed to stderr):
//!                    /metrics is Prometheus text format 0.0.4, /events the
//!                    typed event log as JSON. Implies telemetry. Available
//!                    on offline replay and on serve; record output is
//!                    byte-identical with or without the endpoint.
//!   --journal DIR    crash-safe durability: journal emitted records and
//!                    commit watermarks under DIR (rfdump architecture only)
//!   --resume         recover from the journal in DIR: replay durable
//!                    records, skip their re-analysis, and produce output
//!                    byte-identical to an uninterrupted run
//!   --expect N       (serve) shut down cleanly once N sources — `--source`
//!                    senders or plain sessions — have completed (bounded
//!                    runs); `--once` is `--expect 1`
//!   --source-timeout S (serve) evict a source after S seconds of silence
//!                    (no frames; default 30)
//!   --fleet          (serve) accepted and unnecessary: every `serve` admits
//!                    N concurrent senders, shards each onto its own
//!                    pipeline instance, and tags the records of those that
//!                    named themselves with `--source`
//!   --source ID      (send) name this capture source; the server shards
//!                    and tags its records by ID. (watch) print only ID's
//!                    records, bare — byte-identical to `rfdump -r` on the
//!                    same trace; exits nonzero if ID never appears
//!   --wait-source S  (watch --source) retry for up to S seconds until the
//!                    source appears, instead of failing at first miss
//!
//! `serve` shuts down cleanly on SIGINT or on end-of-file of a piped
//! stdin: subscribers get a Bye, --stats-json / --trace-out are flushed,
//! and the exit code is 0.
//! `send` retries a failed connect, and reconnects after a dropped or
//! failed send, with capped exponential backoff, resuming from the server's
//! acknowledged sample; --retries N bounds consecutive failed attempts
//! (default 5; 0 is a single attempt, even under --chaos).
//! Under `--source`, a reconnecting sender re-handshakes with its source
//! id (a plain one with the session number the server acked) and the
//! server resumes its parked session (see `serve --resume-grace`); the
//! record stream stays byte-identical to an uninterrupted run.
//! `watch` resumes its subscription from the last received record. Once
//! the server has acked its subscription it prints `rfdump: watching ADDR`
//! on stderr (as `serve` prints `rfdump: serving on ADDR`), so a script can
//! start its senders knowing no record will be missed.
//! ```

use rfd_fault::FaultPlan;
use rfd_net::{
    FleetConfig, FleetServer, HubMsg, OverflowPolicy, RecordSubscriber, RetryPolicy, SendRate,
    SubEvent, TraceSender,
};
use rfdump::arch::{
    default_workers, ArchConfig, ArchKind, DetectorSet, Released, Session, PUSH_SAMPLES,
};
use rfdump::durability::DurabilityConfig;
use rfdump::governor::GovernorConfig;
use rfdump::protocols::render_table2;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parses a `--chaos` spec into a fault plan.
fn parse_chaos(spec: &str) -> Result<Option<Arc<FaultPlan>>, String> {
    FaultPlan::parse(spec)
        .map(|p| Some(Arc::new(p)))
        .map_err(|e| format!("bad --chaos spec: {e}"))
}

/// Parses a `--governor` mode: `auto` or a pinned shed level.
fn parse_governor(mode: &str) -> Result<GovernorConfig, String> {
    match mode {
        "auto" => Ok(GovernorConfig::default()),
        lvl => {
            let level: u8 = lvl
                .parse()
                .map_err(|_| format!("--governor needs auto or 0..=2, got '{mode}'"))?;
            if level > rfdump::governor::MAX_LEVEL {
                return Err(format!("--governor level {level} out of range (max 2)"));
            }
            Ok(GovernorConfig {
                force_level: Some(level),
                ..Default::default()
            })
        }
    }
}

/// Parses a `--latency-budget` value: positive milliseconds.
fn parse_budget_ms(v: &str) -> Result<f64, String> {
    let ms: f64 = v
        .parse()
        .map_err(|_| format!("--latency-budget needs positive milliseconds, got '{v}'"))?;
    if !ms.is_finite() || ms <= 0.0 {
        return Err(format!(
            "--latency-budget needs positive milliseconds, got '{v}'"
        ));
    }
    Ok(ms)
}

/// Parses a `-d` detector set.
fn parse_detector_set(name: &str) -> Result<DetectorSet, String> {
    match name {
        "timing" => Ok(DetectorSet::Timing),
        "phase" => Ok(DetectorSet::Phase),
        "both" => Ok(DetectorSet::TimingAndPhase),
        "all" => Ok(DetectorSet::All),
        other => Err(format!("unknown detector set '{other}'")),
    }
}

/// Parses an `-a` architecture name; RFDump runs the `-d` detector set.
fn parse_arch(name: &str, detector_set: DetectorSet) -> Result<ArchKind, String> {
    match name {
        "rfdump" => Ok(ArchKind::RfDump(detector_set)),
        "naive" => Ok(ArchKind::Naive),
        "naive-energy" => Ok(ArchKind::NaiveEnergy),
        other => Err(format!("unknown architecture '{other}'")),
    }
}

/// The flag combinations `rfdump -r` and `serve` both reject: `--resume`
/// needs a journal, and journaling and a latency budget exist only in the
/// RFDump session.
fn check_arch_flags(
    arch: ArchKind,
    journal: bool,
    resume: bool,
    latency_budget: bool,
) -> Result<(), String> {
    if resume && !journal {
        return Err("--resume needs --journal DIR".to_string());
    }
    let rfdump = matches!(arch, ArchKind::RfDump(_));
    if journal && !rfdump {
        return Err("--journal requires the rfdump architecture".to_string());
    }
    if latency_budget && !rfdump {
        return Err("--latency-budget requires the rfdump architecture".to_string());
    }
    Ok(())
}

/// Folds `--latency-budget` into the governor config: a budget turns the
/// governor on (adaptive, unless `--governor` already pinned or configured
/// it).
///
/// A budget *without* an explicit `--governor` engages only the latency
/// ladder ([`GovernorConfig::latency_only`]); CPU-ratio shedding stays
/// opt-in via `--governor auto`.
fn apply_latency_budget(governor: &mut Option<GovernorConfig>, budget_ms: Option<f64>) {
    if let Some(budget_us) = budget_ms.map(|ms| ms * 1e3) {
        governor
            .get_or_insert_with(|| GovernorConfig::latency_only(budget_us))
            .latency_budget_us = Some(budget_us);
    }
}

struct Options {
    trace: Option<String>,
    arch: ArchKind,
    demodulate: bool,
    piconets: Vec<rfd_phy::bluetooth::demod::PiconetId>,
    zigbee: bool,
    stats: bool,
    quiet: bool,
    telemetry: bool,
    workers: usize,
    stats_json: Option<String>,
    trace_out: Option<String>,
    chaos: Option<Arc<FaultPlan>>,
    governor: Option<GovernorConfig>,
    latency_budget_ms: Option<f64>,
    journal: Option<String>,
    resume: bool,
    metrics_addr: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rfdump -r FILE [-a rfdump|naive|naive-energy] [-d timing|phase|both|all]\n\
         \x20             [-n] [-p LAP:UAP]... [-z] [-s] [-q] [--workers N]\n\
         \x20             [--no-telemetry] [--stats-json FILE] [--trace-out FILE]\n\
         \x20             [--chaos SPEC] [--governor auto|0|1|2]\n\
         \x20             [--latency-budget MS]\n\
         \x20             [--journal DIR] [--resume] [--metrics-addr ADDR]\n\
         \x20      rfdump serve --listen ADDR [--once | --expect N]\n\
         \x20             [--source-timeout SECS] [--fleet]\n\
         \x20             [--latency-budget MS]\n\
         \x20             [--queue-cap N] [--overflow block|drop-oldest]\n\
         \x20             [--sub-queue-cap N] [--resume-grace SECS]\n\
         \x20             [arch options] [-q]\n\
         \x20             [--stats-json FILE] [--trace-out FILE] [--chaos SPEC]\n\
         \x20             [--journal DIR] [--resume] [--metrics-addr ADDR]\n\
         \x20      rfdump send --connect ADDR [--rate max|real-time] [--chunk N]\n\
         \x20             [--retries N] [--chaos SPEC] [--source ID] TRACE\n\
         \x20      rfdump watch --connect ADDR [-q] [--chaos SPEC] [--journal DIR]\n\
         \x20             [--source ID [--wait-source SECS]]\n\
         \x20      rfdump top --connect ADDR [--interval SECS] [--once]\n\
         \x20      rfdump kernel        (print the resolved DSP kernel backend)\n\
         \x20      rfdump --protocols   (print the protocol feature table)"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        trace: None,
        arch: ArchKind::RfDump(DetectorSet::TimingAndPhase),
        demodulate: true,
        piconets: Vec::new(),
        zigbee: false,
        stats: false,
        quiet: false,
        telemetry: true,
        workers: default_workers(),
        stats_json: None,
        trace_out: None,
        chaos: None,
        governor: None,
        latency_budget_ms: None,
        journal: None,
        resume: false,
        metrics_addr: None,
    };
    let mut detector_set = DetectorSet::TimingAndPhase;
    let mut arch_name = String::from("rfdump");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-r" => opts.trace = Some(args.next().ok_or("-r needs a file")?),
            "-a" => arch_name = args.next().ok_or("-a needs an architecture")?,
            "-d" => detector_set = parse_detector_set(&args.next().ok_or("-d needs a set")?)?,
            "-n" => opts.demodulate = false,
            "-p" => {
                let spec = args.next().ok_or("-p needs LAP:UAP")?;
                let (lap_s, uap_s) = spec.split_once(':').ok_or("piconet must be LAP:UAP")?;
                let lap = u32::from_str_radix(lap_s, 16).map_err(|e| e.to_string())?;
                let uap = u8::from_str_radix(uap_s, 16).map_err(|e| e.to_string())?;
                opts.piconets
                    .push(rfd_phy::bluetooth::demod::PiconetId { lap, uap });
            }
            "-z" => opts.zigbee = true,
            "-s" => opts.stats = true,
            "-q" => opts.quiet = true,
            "--workers" => {
                opts.workers = args
                    .next()
                    .ok_or("--workers needs a count")?
                    .parse()
                    .map_err(|_| "--workers needs a non-negative integer".to_string())?;
            }
            "--no-telemetry" => opts.telemetry = false,
            "--stats-json" => {
                opts.stats_json = Some(args.next().ok_or("--stats-json needs a file")?)
            }
            "--trace-out" => opts.trace_out = Some(args.next().ok_or("--trace-out needs a file")?),
            "--chaos" => opts.chaos = parse_chaos(&args.next().ok_or("--chaos needs a spec")?)?,
            "--governor" => {
                opts.governor = Some(parse_governor(
                    &args.next().ok_or("--governor needs a mode")?,
                )?)
            }
            "--latency-budget" => {
                opts.latency_budget_ms = Some(parse_budget_ms(
                    &args.next().ok_or("--latency-budget needs milliseconds")?,
                )?)
            }
            "--journal" => opts.journal = Some(args.next().ok_or("--journal needs a directory")?),
            "--resume" => opts.resume = true,
            "--metrics-addr" => {
                opts.metrics_addr = Some(args.next().ok_or("--metrics-addr needs host:port")?)
            }
            "--protocols" => {
                print!("{}", render_table2());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.arch = parse_arch(&arch_name, detector_set)?;
    check_arch_flags(
        opts.arch,
        opts.journal.is_some(),
        opts.resume,
        opts.latency_budget_ms.is_some(),
    )?;
    apply_latency_budget(&mut opts.governor, opts.latency_budget_ms);
    Ok(opts)
}

// ---------------------------------------------------------------------------
// Network modes
// ---------------------------------------------------------------------------

/// Options for `rfdump serve`.
struct ServeOptions {
    listen: String,
    net: FleetConfig,
    arch: ArchConfig,
    quiet: bool,
    stats_json: Option<String>,
    trace_out: Option<String>,
    metrics_addr: Option<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut listen = None;
    let mut net = FleetConfig::default();
    let mut once = false;
    let mut quiet = false;
    let mut stats_json = None;
    let mut trace_out = None;
    let mut metrics_addr = None;
    let mut latency_budget_ms = None;
    let mut detector_set = DetectorSet::TimingAndPhase;
    let mut arch_name = String::from("rfdump");
    // The band is a placeholder: each producer session's StreamMeta
    // overrides it.
    let mut arch = ArchConfig {
        kind: ArchKind::RfDump(detector_set),
        demodulate: true,
        band: rfd_ether::Band {
            sample_rate: 8e6,
            center_hz: 0.0,
        },
        piconets: Vec::new(),
        noise_floor: None,
        zigbee: false,
        microwave: true,
        telemetry: true,
        workers: default_workers(),
        faults: FaultPlan::ambient(),
        governor: None,
        chunk_samples: rfdump::CHUNK_SAMPLES,
        durability: None,
    };
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--listen" => listen = Some(next("an address")?.to_string()),
            "--once" => {
                once = true;
                net.expect = Some(1);
            }
            // Accepted for scripts written when tagged senders needed their
            // own server mode; every `serve` admits them now.
            "--fleet" => {}
            "--expect" => {
                net.expect = Some(
                    next("a count")?
                        .parse()
                        .map_err(|_| "--expect needs a positive integer".to_string())?,
                );
            }
            "--source-timeout" => {
                let secs: f64 = next("seconds")?
                    .parse()
                    .map_err(|_| "--source-timeout needs positive seconds".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--source-timeout needs positive seconds".to_string());
                }
                net.idle_timeout = Duration::from_secs_f64(secs);
            }
            "--queue-cap" => {
                net.queue_cap = next("a count")?
                    .parse()
                    .map_err(|_| "--queue-cap needs a positive integer".to_string())?;
            }
            "--sub-queue-cap" => {
                net.sub_queue_cap = next("a count")?
                    .parse()
                    .map_err(|_| "--sub-queue-cap needs a positive integer".to_string())?;
            }
            "--overflow" => {
                let s = next("a policy")?;
                net.overflow = OverflowPolicy::parse(s)
                    .ok_or_else(|| format!("unknown overflow policy '{s}'"))?;
            }
            "-a" => arch_name = next("an architecture")?.to_string(),
            "-d" => detector_set = parse_detector_set(next("a set")?)?,
            "-n" => arch.demodulate = false,
            "-p" => {
                let spec = next("LAP:UAP")?;
                let (lap_s, uap_s) = spec.split_once(':').ok_or("piconet must be LAP:UAP")?;
                let lap = u32::from_str_radix(lap_s, 16).map_err(|e| e.to_string())?;
                let uap = u8::from_str_radix(uap_s, 16).map_err(|e| e.to_string())?;
                arch.piconets
                    .push(rfd_phy::bluetooth::demod::PiconetId { lap, uap });
            }
            "-z" => arch.zigbee = true,
            "-q" => quiet = true,
            "--workers" => {
                arch.workers = next("a count")?
                    .parse()
                    .map_err(|_| "--workers needs a non-negative integer".to_string())?;
            }
            "--no-telemetry" => arch.telemetry = false,
            "--stats-json" => stats_json = Some(next("a file")?.to_string()),
            "--trace-out" => trace_out = Some(next("a file")?.to_string()),
            "--resume-grace" => {
                let secs: f64 = next("seconds")?
                    .parse()
                    .map_err(|_| "--resume-grace needs seconds".to_string())?;
                net.resume_grace = Duration::from_secs_f64(secs.max(0.0));
            }
            "--chaos" => {
                let plan = parse_chaos(next("a spec")?)?;
                arch.faults = plan.clone();
                net.faults = plan;
            }
            "--governor" => arch.governor = Some(parse_governor(next("a mode")?)?),
            "--latency-budget" => latency_budget_ms = Some(parse_budget_ms(next("milliseconds")?)?),
            "--journal" => journal = Some(next("a directory")?.to_string()),
            "--resume" => resume = true,
            "--metrics-addr" => metrics_addr = Some(next("host:port")?.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    arch.kind = parse_arch(&arch_name, detector_set)?;
    check_arch_flags(
        arch.kind,
        journal.is_some(),
        resume,
        latency_budget_ms.is_some(),
    )?;
    if net.expect == Some(0) {
        return Err("--expect needs a positive integer".to_string());
    }
    if latency_budget_ms.is_some() && once {
        // `--once` is a bounded one-shot run; bounded-latency mode is a
        // steady-state control loop and has nothing to govern there.
        return Err("--latency-budget is incompatible with --once".to_string());
    }
    apply_latency_budget(&mut arch.governor, latency_budget_ms);
    arch.durability = journal.map(|dir| DurabilityConfig {
        dir: std::path::PathBuf::from(dir),
        resume,
    });
    if resume {
        // Don't let a seeded kill fault crash every resumed session.
        if let Some(plan) = &arch.faults {
            plan.disarm_kills();
        }
    }
    if net.faults.is_none() {
        net.faults = FaultPlan::ambient();
    }
    net.latency_budget = latency_budget_ms.map(|ms| Duration::from_secs_f64(ms / 1e3));
    arch.telemetry =
        arch.telemetry || stats_json.is_some() || trace_out.is_some() || metrics_addr.is_some();
    Ok(ServeOptions {
        listen: listen.ok_or("serve needs --listen ADDR")?,
        net,
        arch,
        quiet,
        stats_json,
        trace_out,
        metrics_addr,
    })
}

/// True when stdin will deliver a meaningful EOF once the writer is done
/// (a pipe or a regular file). TTYs and `/dev/null` are excluded so an
/// interactive or backgrounded `rfdump serve` does not shut down at once.
fn stdin_is_stream() -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::fs::FileTypeExt;
        match std::fs::metadata("/proc/self/fd/0") {
            Ok(m) => m.file_type().is_fifo() || m.file_type().is_file(),
            Err(_) => false,
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Prints a line scripts wait for — a bound address — to stderr in one
/// write. `eprintln!` hands an unbuffered stderr each formatted piece
/// separately, so a reader polling a log file can catch `127.0` where
/// `127.0.0.1:7099` is on its way.
fn announce(line: String) {
    use std::io::Write as _;
    let _ = std::io::stderr().write_all((line + "\n").as_bytes());
}

/// Binds and spawns the `--metrics-addr` scrape endpoint around a fresh
/// registry. Prints the bound address to stderr (port 0 resolves here, so
/// scripts can discover the ephemeral port).
fn bind_metrics(
    addr: &str,
) -> Result<(rfd_obs::MetricsHandle, Arc<rfd_telemetry::Registry>), ExitCode> {
    let reg = Arc::new(rfd_telemetry::Registry::new());
    let srv = match rfd_obs::MetricsServer::bind(addr, reg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rfdump: cannot bind metrics on {addr}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match srv.local_addr() {
        Ok(a) => announce(format!("rfdump: metrics on {a}")),
        Err(_) => announce(format!("rfdump: metrics on {addr}")),
    }
    Ok((srv.spawn(), reg))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let opts = match parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rfdump: {e}");
            return usage();
        }
    };
    // The shared registry exists whenever anything will consume it: a
    // scrape endpoint, or a stats/trace document — the document's events
    // section must capture net-layer and fleet overload events (resumes,
    // budget violations, sheds, admission refusals), which are emitted
    // into this registry, never into a pipeline's private one.
    let (metrics, registry) = match &opts.metrics_addr {
        None if opts.stats_json.is_some() || opts.trace_out.is_some() => {
            (None, Some(Arc::new(rfd_telemetry::Registry::new())))
        }
        None => (None, None),
        Some(addr) => match bind_metrics(addr) {
            Ok((handle, reg)) => (Some(handle), Some(reg)),
            Err(code) => return code,
        },
    };
    // One fresh pipeline per source: a tagged source journals under
    // `DIR/<id>`, an anonymous session (factory called with "") under `DIR`
    // itself. The slot keeps the last finished source's architecture output
    // for --stats-json / --trace-out.
    let slot: rfdump::live::SharedOutput = Arc::new(std::sync::Mutex::new(None));
    let factory = rfdump::fleet::pipeline_factory(opts.arch, registry.clone(), slot.clone());
    let server = match FleetServer::bind(&opts.listen, opts.net, factory, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rfdump: cannot listen on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(a) => announce(format!("rfdump: serving on {a}")),
        Err(_) => announce(format!("rfdump: serving on {}", opts.listen)),
    }
    // Clean shutdown on SIGINT (always) and on stdin EOF (only when stdin
    // is a pipe/file): subscribers get a Bye, stats are still flushed, and
    // the exit code stays 0.
    let user_stop = Arc::new(AtomicBool::new(false));
    rfd_fault::signal::install_sigint();
    {
        let handle = server.handle();
        let user_stop = Arc::clone(&user_stop);
        std::thread::spawn(move || loop {
            if rfd_fault::signal::sigint_seen() {
                user_stop.store(true, Ordering::SeqCst);
                eprintln!("rfdump: interrupt - shutting down");
                handle.shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    if stdin_is_stream() {
        let handle = server.handle();
        let user_stop = Arc::clone(&user_stop);
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin().lock();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            user_stop.store(true, Ordering::SeqCst);
            eprintln!("rfdump: stdin closed - shutting down");
            handle.shutdown();
        });
    }
    // Print records locally through an in-process subscription, the way an
    // unfiltered network `watch` prints them: an anonymous session's lines
    // bare, a tagged source's as `[source] line`.
    let local = server.subscribe();
    let quiet = opts.quiet;
    let printer = std::thread::spawn(move || {
        while let Ok(msg) = local.rx.recv() {
            match msg {
                HubMsg::Record(r) if !quiet => println!("{}", r.line),
                HubMsg::SourceRecord { source, record } if !quiet => {
                    println!("[{source}] {}", record.line);
                }
                HubMsg::Record(_) | HubMsg::SourceRecord { .. } | HubMsg::Stats(_) => {}
                HubMsg::Meta(m) => eprintln!(
                    "rfdump: session started at {:.1} Msps, band center {:.1} MHz",
                    m.sample_rate / 1e6,
                    m.center_hz / 1e6,
                ),
                HubMsg::SourceMeta { source, meta } => eprintln!(
                    "rfdump: source '{source}' joined at {:.1} Msps, band center {:.1} MHz",
                    meta.sample_rate / 1e6,
                    meta.center_hz / 1e6,
                ),
                HubMsg::SourceBye { source } => eprintln!("rfdump: source '{source}' done"),
                HubMsg::Bye => break,
            }
        }
    });
    let snap = match server.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rfdump: server failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = printer.join();
    eprintln!(
        "rfdump: served {} source(s) ({} done, {} refused), {} samples, {} records, ingest RT ratio {:.3}",
        snap.sources_joined,
        snap.sources_done,
        snap.rejects,
        snap.net.samples_in,
        snap.net.records_published,
        snap.net.ingest_rt_ratio(),
    );
    let out = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
    let clean_stop = user_stop.load(Ordering::SeqCst);
    if let Some(path) = &opts.stats_json {
        match &out {
            Some(out) => {
                let doc = rfdump::stats::stats_json_with_fleet(out, &snap);
                if let Err(e) =
                    rfd_journal::atomic_write(std::path::Path::new(path), doc.to_json().as_bytes())
                {
                    eprintln!("rfdump: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rfdump: stats written to {path}");
            }
            None => {
                eprintln!("rfdump: no source completed; not writing {path}");
                if !clean_stop {
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        match &out {
            Some(out) => {
                if let Err(e) = rfdump::stats::write_chrome_trace(out, std::path::Path::new(path)) {
                    eprintln!("rfdump: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("rfdump: span trace written to {path}");
            }
            None => {
                eprintln!("rfdump: no source completed; not writing {path}");
                if !clean_stop {
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(m) = metrics {
        m.join();
    }
    ExitCode::SUCCESS
}

/// Options for `rfdump send`.
struct SendOptions {
    connect: String,
    trace: String,
    rate: SendRate,
    chunk: usize,
    retries: u32,
    chaos: Option<Arc<FaultPlan>>,
    source: Option<String>,
}

fn parse_send_args(args: &[String]) -> Result<SendOptions, String> {
    let mut connect = None;
    let mut trace = None;
    let mut rate = SendRate::Max;
    let mut chunk = rfd_net::frame::DEFAULT_CHUNK_SAMPLES;
    let mut retries = RetryPolicy::default().max_retries;
    let mut chaos = None;
    let mut source: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs an address")?.clone()),
            "--source" => {
                let id = it.next().ok_or("--source needs an id")?;
                rfd_net::validate_source_id(id).map_err(|e| e.to_string())?;
                source = Some(id.clone());
            }
            "--rate" => {
                let s = it.next().ok_or("--rate needs max|real-time")?;
                rate = SendRate::parse(s).ok_or_else(|| format!("unknown rate '{s}'"))?;
            }
            "--chunk" => {
                chunk = it
                    .next()
                    .ok_or("--chunk needs a sample count")?
                    .parse()
                    .map_err(|_| "--chunk needs a positive integer".to_string())?;
            }
            "--retries" => {
                retries = it
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|_| "--retries needs a non-negative integer".to_string())?;
            }
            "--chaos" => chaos = parse_chaos(it.next().ok_or("--chaos needs a spec")?)?,
            other if !other.starts_with('-') && trace.is_none() => trace = Some(other.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(SendOptions {
        connect: connect.ok_or("send needs --connect ADDR")?,
        trace: trace.ok_or("send needs a trace file")?,
        rate,
        chunk,
        retries,
        chaos,
        source,
    })
}

fn cmd_send(args: &[String]) -> ExitCode {
    let opts = match parse_send_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rfdump: {e}");
            return usage();
        }
    };
    let retry = RetryPolicy {
        max_retries: opts.retries,
        ..RetryPolicy::default()
    };
    // Under `--source` every reconnect re-handshakes with the source id
    // (fleet session resume); a plain sender resumes by session number.
    let mut tx = match TraceSender::connect_retrying(&opts.connect, opts.source.as_deref(), retry) {
        Ok(tx) => tx,
        Err(e) => {
            eprintln!("rfdump: cannot connect to {}: {e}", opts.connect);
            return ExitCode::FAILURE;
        }
    };
    if opts.chaos.is_some() {
        tx = tx.with_faults(opts.chaos.clone());
    }
    let report = match tx.send_trace_file(std::path::Path::new(&opts.trace), opts.rate, opts.chunk)
    {
        Ok(r) => r,
        Err(e) => {
            // A reconnect that cannot reach the server reads as "cannot
            // connect"; everything past the socket is a send error.
            use std::io::ErrorKind as K;
            match e.kind() {
                K::ConnectionRefused | K::TimedOut | K::AddrNotAvailable => {
                    eprintln!("rfdump: cannot connect to {}: {e}", opts.connect)
                }
                _ => eprintln!("rfdump: cannot send {}: {e}", opts.trace),
            }
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "rfdump: sent {} samples in {} chunks ({:.2} MB, {:.1} ms, {} throttle(s), {} reconnect(s))",
        report.samples,
        report.chunks,
        report.bytes as f64 / 1e6,
        report.wall.as_secs_f64() * 1e3,
        report.throttles,
        report.reconnects,
    );
    ExitCode::SUCCESS
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let mut connect = None;
    let mut quiet = false;
    let mut chaos = None;
    let mut journal: Option<String> = None;
    let mut source: Option<String> = None;
    let mut wait_source: Option<Duration> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("rfdump: --connect needs an address");
                    return usage();
                }
            },
            "--source" => match it.next() {
                Some(id) => match rfd_net::validate_source_id(id) {
                    Ok(()) => source = Some(id.clone()),
                    Err(e) => {
                        eprintln!("rfdump: {e}");
                        return usage();
                    }
                },
                None => {
                    eprintln!("rfdump: --source needs an id");
                    return usage();
                }
            },
            "--wait-source" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs.is_finite() && secs > 0.0 => {
                    wait_source = Some(Duration::from_secs_f64(secs))
                }
                _ => {
                    eprintln!("rfdump: --wait-source needs positive seconds");
                    return usage();
                }
            },
            "--chaos" => match it.next().map(|s| parse_chaos(s)) {
                Some(Ok(p)) => chaos = p,
                Some(Err(e)) => {
                    eprintln!("rfdump: {e}");
                    return usage();
                }
                None => {
                    eprintln!("rfdump: --chaos needs a spec");
                    return usage();
                }
            },
            "--journal" => match it.next() {
                Some(dir) => journal = Some(dir.clone()),
                None => {
                    eprintln!("rfdump: --journal needs a directory");
                    return usage();
                }
            },
            "-q" => quiet = true,
            other => {
                eprintln!("rfdump: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("rfdump: watch needs --connect ADDR");
        return usage();
    };
    if source.is_some() && journal.is_some() {
        // The journal checkpoints the *unfiltered* stream position; a
        // filtered resume would silently skip other sources' records.
        eprintln!("rfdump: --source is incompatible with --journal");
        return usage();
    }
    if wait_source.is_some() && source.is_none() {
        eprintln!("rfdump: --wait-source needs --source ID");
        return usage();
    }
    // With --wait-source the whole watch retries until the deadline when
    // the server isn't up yet or the source hasn't joined the stream.
    let deadline = wait_source.map(|d| std::time::Instant::now() + d);
    loop {
        match watch_stream(&connect, quiet, &chaos, &journal, &source) {
            Ok((records, reconnects)) => {
                eprintln!(
                    "rfdump: stream ended after {records} record(s), {reconnects} reconnect(s)"
                );
                return ExitCode::SUCCESS;
            }
            Err(WatchErr::SourceMissing | WatchErr::Connect(_))
                if deadline.is_some_and(|dl| std::time::Instant::now() < dl) =>
            {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(WatchErr::SourceMissing) => {
                let want = source.as_deref().unwrap_or("");
                eprintln!("rfdump: source '{want}' never appeared in the stream");
                return ExitCode::FAILURE;
            }
            Err(WatchErr::Connect(e)) => {
                eprintln!("rfdump: cannot connect to {connect}: {e}");
                return ExitCode::FAILURE;
            }
            Err(WatchErr::Stream(e)) => {
                eprintln!("rfdump: stream failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}

/// Why one pass of [`watch_stream`] gave up.
enum WatchErr {
    /// Could not establish the subscription.
    Connect(std::io::Error),
    /// The established stream failed mid-flight.
    Stream(std::io::Error),
    /// The stream ended without the `--source` id ever appearing.
    SourceMissing,
}

/// One full watch pass: subscribe, print, run to stream end.
/// Returns `(records_printed, reconnects)` on a clean end.
fn watch_stream(
    connect: &str,
    quiet: bool,
    chaos: &Option<Arc<FaultPlan>>,
    journal: &Option<String>,
    source: &Option<String>,
) -> Result<(u64, u64), WatchErr> {
    // Durable watch: the subscription position is checkpointed under the
    // journal directory, so a restarted `watch --journal DIR` resumes where
    // the previous process durably left off.
    let sub = match journal {
        Some(dir) => RecordSubscriber::connect_journaled(connect, std::path::Path::new(dir)),
        None => RecordSubscriber::connect(connect),
    };
    let mut sub = match sub {
        Ok(s) if chaos.is_some() => s.with_faults(chaos.clone()),
        Ok(s) => s,
        Err(e) => return Err(WatchErr::Connect(e)),
    };
    // The server has acked the subscription: every record published from
    // here on reaches this watcher, so a script may start its senders.
    announce(format!("rfdump: watching {connect}"));
    let mut records = 0u64;
    // Under `--source`, matching records print bare (byte-identical to an
    // offline `rfdump -r` on the same trace); unfiltered tagged records
    // print as `[source] line`.
    let mut source_seen = false;
    loop {
        match sub.next_event() {
            Ok(SubEvent::Record(r)) => {
                if source.is_none() {
                    records += 1;
                    if !quiet {
                        println!("{}", r.line);
                    }
                }
            }
            Ok(SubEvent::Meta(m)) => eprintln!(
                "rfdump: session started at {:.1} Msps, band center {:.1} MHz",
                m.sample_rate / 1e6,
                m.center_hz / 1e6,
            ),
            Ok(SubEvent::SourceRecord {
                source: from,
                record,
            }) => match &source {
                Some(want) if *want == from => {
                    source_seen = true;
                    records += 1;
                    if !quiet {
                        println!("{}", record.line);
                    }
                }
                Some(_) => {}
                None => {
                    records += 1;
                    if !quiet {
                        println!("[{from}] {}", record.line);
                    }
                }
            },
            Ok(SubEvent::SourceMeta { source: from, meta }) => {
                let wanted = match &source {
                    Some(want) => *want == from,
                    None => true,
                };
                if wanted {
                    source_seen = true;
                    eprintln!(
                        "rfdump: source '{from}' started at {:.1} Msps, band center {:.1} MHz",
                        meta.sample_rate / 1e6,
                        meta.center_hz / 1e6,
                    );
                }
            }
            Ok(SubEvent::SourceBye { source: from }) => match &source {
                // The watched source is done: its tagged stream is
                // complete, no need to wait for the fleet-wide Bye.
                Some(want) if *want == from => break,
                Some(_) => {}
                None => eprintln!("rfdump: source '{from}' done"),
            },
            Ok(SubEvent::Stats(_) | SubEvent::Heartbeat) => {}
            Ok(SubEvent::Bye) => break,
            Err(e) => return Err(WatchErr::Stream(e)),
        }
    }
    if source.is_some() && !source_seen {
        return Err(WatchErr::SourceMissing);
    }
    Ok((records, sub.reconnects()))
}

/// `rfdump kernel`: prints which DSP kernel backend this process resolves.
///
/// Output is `key: value` lines so shell scripts can grep a field, e.g.
/// `rfdump kernel | awk '/^backend:/ {print $2}'`. Honors `RFD_KERNEL`.
fn cmd_kernel() -> ExitCode {
    println!("backend: {}", rfd_dsp::kernels::active().name());
    println!("requested: {}", rfd_dsp::kernels::requested());
    let names: Vec<&str> = rfd_dsp::kernels::available()
        .iter()
        .map(|b| b.name())
        .collect();
    println!("available: {}", names.join(" "));
    ExitCode::SUCCESS
}

/// `rfdump top`: polls a metrics endpoint and renders a refreshing view.
fn cmd_top(args: &[String]) -> ExitCode {
    let mut connect = None;
    let mut interval = 2.0f64;
    let mut once = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("rfdump: --connect needs an address");
                    return usage();
                }
            },
            "--interval" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 => interval = secs,
                _ => {
                    eprintln!("rfdump: --interval needs positive seconds");
                    return usage();
                }
            },
            "--once" => once = true,
            other => {
                eprintln!("rfdump: unknown argument '{other}'");
                return usage();
            }
        }
    }
    let Some(addr) = connect else {
        eprintln!("rfdump: top needs --connect ADDR");
        return usage();
    };
    rfd_fault::signal::install_sigint();
    let mut prev: Option<(std::collections::BTreeMap<String, f64>, std::time::Instant)> = None;
    loop {
        let text = match rfd_obs::scrape(&addr, "/metrics") {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rfdump: cannot scrape {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let events = rfd_obs::scrape(&addr, "/events").ok();
        let cur = rfd_obs::top::parse_samples(&text);
        let now = std::time::Instant::now();
        let screen = rfd_obs::top::render(
            &addr,
            &cur,
            prev.as_ref()
                .map(|(p, t)| (p, now.duration_since(*t).as_secs_f64())),
            events.as_deref(),
        );
        if once {
            print!("{screen}");
            return ExitCode::SUCCESS;
        }
        // Clear screen + home, then the fresh frame.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((cur, now));
        let deadline = std::time::Instant::now() + Duration::from_secs_f64(interval);
        while std::time::Instant::now() < deadline {
            if rfd_fault::signal::sigint_seen() {
                println!();
                return ExitCode::SUCCESS;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("send") => return cmd_send(&argv[1..]),
        Some("watch") => return cmd_watch(&argv[1..]),
        Some("top") => return cmd_top(&argv[1..]),
        Some("kernel") => return cmd_kernel(),
        _ => {}
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rfdump: {e}");
            return usage();
        }
    };
    let Some(path) = &opts.trace else {
        return usage();
    };
    let mut reader = match rfd_ether::trace::ChunkedTraceReader::open(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rfdump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = *reader.header();
    eprintln!(
        "rfdump: {} samples at {:.1} Msps ({:.1} ms), band center {:.1} MHz",
        header.n_samples,
        header.sample_rate / 1e6,
        header.n_samples as f64 / header.sample_rate * 1e3,
        header.center_hz / 1e6,
    );

    let cfg = ArchConfig {
        kind: opts.arch,
        demodulate: opts.demodulate,
        band: rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        },
        piconets: opts.piconets,
        noise_floor: None,
        zigbee: opts.zigbee,
        microwave: true,
        telemetry: opts.telemetry
            || opts.stats_json.is_some()
            || opts.trace_out.is_some()
            || opts.metrics_addr.is_some(),
        workers: opts.workers,
        faults: opts.chaos.clone().or_else(FaultPlan::ambient),
        governor: opts.governor,
        chunk_samples: rfdump::CHUNK_SAMPLES,
        durability: opts.journal.as_ref().map(|dir| DurabilityConfig {
            dir: std::path::PathBuf::from(dir),
            resume: opts.resume,
        }),
    };
    if let Some(d) = cfg.durability.as_ref().filter(|d| d.resume) {
        // A seeded kill fault already crashed the previous incarnation;
        // firing it again on the redo pass would loop forever.
        if let Some(plan) = &cfg.faults {
            plan.disarm_kills();
        }
        let fp = rfdump::durability::config_fingerprint(&cfg, header.n_samples, header.sample_rate);
        if let Err(e) = rfdump::durability::preflight(d, &fp) {
            eprintln!("rfdump: cannot resume: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (metrics, registry) = match &opts.metrics_addr {
        None => (None, None),
        Some(addr) => match bind_metrics(addr) {
            Ok((handle, reg)) => (Some(handle), Some(reg)),
            Err(code) => return code,
        },
    };
    // The file goes through the same session a socket does: read a piece,
    // push it, print what that made final.
    let mut session = Session::open(&cfg, header.sample_rate, Some(header.n_samples), registry);
    if let Some(r) = session.recovery().filter(|r| r.resumed) {
        eprintln!(
            "rfdump: resumed from journal: {} entries replayed, {} record(s) recovered, resume latency {:.1} ms",
            r.entries_replayed,
            r.records_recovered,
            r.resume_latency_us as f64 / 1e3,
        );
    }
    let mut packets = 0usize;
    let mut print = |released: Released| {
        packets += released.records.len();
        if !opts.quiet {
            for rec in &released.records {
                println!("{}", rec.format_line());
            }
        }
    };
    let mut samples = Vec::new();
    loop {
        match reader.read_into(&mut samples, PUSH_SAMPLES) {
            Ok(0) => break,
            Ok(_) => print(session.push(&samples)),
            Err(e) => {
                eprintln!("rfdump: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (last, out) = session.finish();
    print(last);
    if let Some(m) = metrics {
        m.join();
    }
    eprintln!(
        "rfdump: {packets} packets, CPU/RT {:.3}",
        out.cpu_over_realtime()
    );
    if out.panics > 0 || !out.quarantined.is_empty() {
        eprintln!(
            "rfdump: survived {} analyzer panic(s); quarantined: {}",
            out.panics,
            if out.quarantined.is_empty() {
                "none".to_string()
            } else {
                out.quarantined.join(", ")
            },
        );
    }
    if let Some(g) = &out.governor {
        eprintln!(
            "rfdump: governor finished at level {} ({}), {} escalation(s), shed {} demod / {} detector(s) / {} vote(s)",
            g.level,
            rfdump::governor::LEVEL_NAMES[g.level as usize],
            g.escalations,
            g.shed_demod,
            g.shed_detectors,
            g.shed_votes,
        );
    }
    if opts.stats {
        eprint!("{}", out.stats.table());
        if let Some(ds) = &out.dispatch_stats {
            eprintln!(
                "peaks: {} total, {} unclassified",
                ds.total_peaks, ds.unclassified_peaks
            );
        }
        if let Some(ps) = &out.pool_stats {
            eprintln!(
                "pool: {} tasks over {} workers, busy {:.1} ms, stall {:.1} ms",
                ps.executed(),
                ps.workers.len(),
                ps.busy().as_secs_f64() * 1e3,
                ps.stall().as_secs_f64() * 1e3,
            );
        }
    }
    if let Some(path) = &opts.stats_json {
        if let Err(e) = rfdump::stats::write_stats_json(&out, std::path::Path::new(path)) {
            eprintln!("rfdump: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("rfdump: stats written to {path}");
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = rfdump::stats::write_chrome_trace(&out, std::path::Path::new(path)) {
            eprintln!("rfdump: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("rfdump: span trace written to {path}");
    }
    ExitCode::SUCCESS
}
