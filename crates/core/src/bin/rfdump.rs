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
//! the active backend (after honoring `RFD_KERNEL=scalar|avx2|auto`),
//! the raw request, and every backend the CPU supports. All backends are
//! bit-exact against the scalar reference, so record output never depends
//! on which one runs; the subcommand exists so scripts can assert the
//! vectorized paths actually engaged.
//!
//! ```text
//! rfdump -r trace.rfdt [options]
//! rfdump serve --listen ADDR [--once | --expect N] [--source-timeout SECS]
//!              [--fleet] [--latency-budget MS]
//!              [--queue-cap N] [--overflow block|drop-oldest]
//!              [--sub-queue-cap N] [--resume-grace SECS]
//!              [arch options] [-q]
//!              [--stats-json F] [--trace-out F] [--chaos SPEC]
//!              [--journal DIR] [--resume] [--metrics-addr ADDR]
//! rfdump send --connect ADDR [--rate max|real-time] [--chunk N]
//!             [--retries N] [--chaos SPEC] [--source ID] TRACE
//! rfdump watch --connect ADDR [-q] [--chaos SPEC] [--journal DIR]
//!              [--source ID [--wait-source SECS]]
//! rfdump top --connect ADDR [--interval SECS] [--once]
//! rfdump kernel
//! rfdump --protocols
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
//!   --governor LEVEL graceful degradation pinned at shed level 0|1|2
//!                    (deterministic runs); --latency-budget is what
//!                    sheds adaptively
//!   --latency-budget MS shed on a violated sample-to-record p99 budget
//!                    (rfdump architecture only; on serve, per source and
//!                    not with --once)
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

#![deny(clippy::print_stdout, clippy::print_stderr)]

use rfd_fault::FaultPlan;
use rfd_net::{
    FleetConfig, FleetServer, FleetSnapshot, HubMsg, OverflowPolicy, RecordSubscriber, RetryPolicy,
    SendRate, SubEvent, TraceSender,
};
use rfdump::arch::{
    ArchConfig, ArchKind, ArchOutput, DetectorSet, Released, Session, PUSH_SAMPLES,
};
use rfdump::durability::DurabilityConfig;
use rfdump::governor::GovernorConfig;
use rfdump::protocols::render_table2;
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `eprintln!` that drops a write error instead of panicking: stderr only
/// carries diagnostics, so a full or closed one must neither end the run
/// nor change its exit status. Every stderr line goes through here, in one
/// write, so a reader polling a log file for a line scripts wait for (a
/// bound address) never catches half of it.
macro_rules! say {
    ($($arg:tt)*) => {
        diag(format_args!($($arg)*))
    };
}

/// The body of [`say!`].
fn diag(line: std::fmt::Arguments) {
    let _ = io::stderr().write_all(format!("{line}\n").as_bytes());
}

/// Parses a `--chaos` spec into a fault plan.
fn parse_chaos(spec: &str) -> Result<Option<Arc<FaultPlan>>, String> {
    FaultPlan::parse(spec)
        .map(|p| Some(Arc::new(p)))
        .map_err(|e| format!("bad --chaos spec: {e}"))
}

/// Parses a `--governor` level: a pinned shed level 0..=2.
fn parse_governor(level: &str) -> Result<GovernorConfig, String> {
    if level == "auto" {
        return Err(
            "--governor auto was removed: shed on measured latency with --latency-budget MS"
                .to_string(),
        );
    }
    let level: u8 = level
        .parse()
        .map_err(|_| format!("--governor needs a level 0..=2, got '{level}'"))?;
    if level > rfdump::governor::MAX_LEVEL {
        return Err(format!("--governor level {level} out of range (max 2)"));
    }
    Ok(GovernorConfig {
        force_level: Some(level),
        ..Default::default()
    })
}

/// `secs` as a `Duration` a deadline can be set from: non-negative,
/// finite, and near enough that `Instant::now()` plus it does not overflow.
fn deadline_duration(secs: f64) -> Option<Duration> {
    let d = Duration::try_from_secs_f64(secs).ok()?;
    std::time::Instant::now().checked_add(d).map(|_| d)
}

/// Parses a `--latency-budget` value: positive milliseconds that make a
/// deadline (see [`deadline_duration`]).
fn parse_budget_ms(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(ms) if ms > 0.0 && deadline_duration(ms / 1e3).is_some() => Ok(ms),
        _ => Err(format!(
            "--latency-budget needs positive milliseconds, got '{v}'"
        )),
    }
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

fn usage() -> ExitCode {
    say!(
        "usage: rfdump -r FILE [-a rfdump|naive|naive-energy] [-d timing|phase|both|all]\n\
         \x20             [-n] [-p LAP:UAP]... [-z] [-s] [-q] [--workers N]\n\
         \x20             [--no-telemetry] [--stats-json FILE] [--trace-out FILE]\n\
         \x20             [--chaos SPEC] [--governor 0|1|2]\n\
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

/// Writes to stdout through its line buffer, as `print!` does, but hands a
/// write error back instead of panicking: every stdout byte goes through
/// here.
fn emit(text: std::fmt::Arguments) -> io::Result<()> {
    io::stdout().lock().write_fmt(text)
}

/// The exit status a failed stdout write makes. A reader that went away
/// (EPIPE, as `| head` does) ends the run the way end of input does:
/// status 0, nothing said. Any other error is reported, status 1.
fn write_failed(e: io::Error) -> u8 {
    if e.kind() == io::ErrorKind::BrokenPipe {
        return 0;
    }
    say!("rfdump: cannot write records: {e}");
    1
}

/// The exit status of a command whose last act was `printed`.
fn exit_after(printed: io::Result<()>) -> ExitCode {
    ExitCode::from(printed.map_or_else(write_failed, |()| 0))
}

/// Reads flag values off a subcommand's arguments, left to right.
trait FlagValues: Iterator<Item = String> {
    /// The value that follows `flag`, or the error `"{flag} needs {what}"`.
    fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The value that follows `flag`, parsed; a value that does not parse
    /// is the error `"{flag} needs {valid}"`.
    fn parsed<T: FromStr>(&mut self, flag: &str, what: &str, valid: &str) -> Result<T, String> {
        let v = self.value(flag, what)?;
        v.parse().map_err(|_| format!("{flag} needs {valid}"))
    }

    /// The value that follows `flag` as seconds: `None` for zero or less,
    /// else the duration (see [`deadline_duration`]). NaN, an infinite
    /// value or one past the clock's reach is the error `"{flag} needs
    /// {valid}"`, as is one that does not parse.
    fn secs(&mut self, flag: &str, what: &str, valid: &str) -> Result<Option<Duration>, String> {
        match self.parsed::<f64>(flag, what, valid)? {
            secs if secs <= 0.0 => Ok(None),
            secs => deadline_duration(secs)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs {valid}")),
        }
    }

    /// The value that follows `flag` as positive seconds (see [`Self::secs`]).
    fn positive_secs(&mut self, flag: &str, what: &str) -> Result<Duration, String> {
        self.secs(flag, what, "positive seconds")?
            .ok_or_else(|| format!("{flag} needs positive seconds"))
    }
}

impl<I: Iterator<Item = String>> FlagValues for I {}

/// Where a run's results go: the output flags `rfdump -r` and `serve` share.
#[derive(Default)]
struct Outputs {
    quiet: bool,
    stats_json: Option<String>,
    trace_out: Option<String>,
    metrics_addr: Option<String>,
}

impl Outputs {
    /// Writes the `--stats-json` document (with the `net` and `fleet`
    /// sections when `fleet` is given) and the `--trace-out` span trace.
    fn write(&self, out: &ArchOutput, fleet: Option<&FleetSnapshot>) -> Result<(), ExitCode> {
        if let Some(path) = &self.stats_json {
            if let Err(e) = rfdump::stats::write_stats_json(out, fleet, Path::new(path)) {
                say!("rfdump: cannot write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            say!("rfdump: stats written to {path}");
        }
        if let Some(path) = &self.trace_out {
            if let Err(e) = rfdump::stats::write_chrome_trace(out, Path::new(path)) {
                say!("rfdump: cannot write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            say!("rfdump: span trace written to {path}");
        }
        Ok(())
    }
}

/// The analysis flags `rfdump -r` and `serve` share, read into the pipeline
/// configuration they describe.
struct Analysis {
    /// The pipeline. Its band is a placeholder until the trace header (or,
    /// on `serve`, each session's stream meta) supplies it.
    arch: ArchConfig,
    out: Outputs,
    arch_name: String,
    detector_set: DetectorSet,
    latency_budget_ms: Option<f64>,
    journal: Option<String>,
    resume: bool,
}

impl Analysis {
    fn new() -> Self {
        Analysis {
            arch: ArchConfig::rfdump(Vec::new()),
            out: Outputs::default(),
            arch_name: String::from("rfdump"),
            detector_set: DetectorSet::TimingAndPhase,
            latency_budget_ms: None,
            journal: None,
            resume: false,
        }
    }

    /// Reads `flag`, and its value, if it is a shared analysis flag;
    /// `Ok(false)` leaves it to the subcommand.
    fn read(&mut self, flag: &str, args: &mut impl FlagValues) -> Result<bool, String> {
        let arch = &mut self.arch;
        match flag {
            "-a" => self.arch_name = args.value(flag, "an architecture")?,
            "-d" => self.detector_set = parse_detector_set(&args.value(flag, "a set")?)?,
            "-n" => arch.demodulate = false,
            "-p" => {
                let spec = args.value(flag, "LAP:UAP")?;
                let (lap, uap) = spec.split_once(':').ok_or("piconet must be LAP:UAP")?;
                arch.piconets.push(rfd_phy::bluetooth::demod::PiconetId {
                    lap: u32::from_str_radix(lap, 16).map_err(|e| e.to_string())?,
                    uap: u8::from_str_radix(uap, 16).map_err(|e| e.to_string())?,
                });
            }
            "-z" => arch.zigbee = true,
            "-q" => self.out.quiet = true,
            "--workers" => arch.workers = args.parsed(flag, "a count", "a non-negative integer")?,
            "--no-telemetry" => arch.telemetry = false,
            "--stats-json" => self.out.stats_json = Some(args.value(flag, "a file")?),
            "--trace-out" => self.out.trace_out = Some(args.value(flag, "a file")?),
            "--chaos" => arch.faults = parse_chaos(&args.value(flag, "a spec")?)?,
            "--governor" => arch.governor = Some(parse_governor(&args.value(flag, "a level")?)?),
            "--latency-budget" => {
                self.latency_budget_ms = Some(parse_budget_ms(&args.value(flag, "milliseconds")?)?)
            }
            "--journal" => self.journal = Some(args.value(flag, "a directory")?),
            "--resume" => self.resume = true,
            "--metrics-addr" => self.out.metrics_addr = Some(args.value(flag, "host:port")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the flags against each other once the whole command line is
    /// read, and completes `arch` from them.
    fn finish(mut self) -> Result<Self, String> {
        let kind = parse_arch(&self.arch_name, self.detector_set)?;
        // `--resume` needs a journal, and journaling and a latency budget
        // exist only in the RFDump session.
        let rfdump = matches!(kind, ArchKind::RfDump(_));
        if self.resume && self.journal.is_none() {
            return Err("--resume needs --journal DIR".to_string());
        }
        if self.journal.is_some() && !rfdump {
            return Err("--journal requires the rfdump architecture".to_string());
        }
        if self.latency_budget_ms.is_some() && !rfdump {
            return Err("--latency-budget requires the rfdump architecture".to_string());
        }
        let arch = &mut self.arch;
        arch.kind = kind;
        // A budget arms the latency ladder, which walks the shed levels
        // unless `--governor` pinned one. A violation of the budget is then
        // the only thing that sheds.
        if let Some(ms) = self.latency_budget_ms {
            arch.governor
                .get_or_insert_with(GovernorConfig::default)
                .latency_budget_us = Some(ms * 1e3);
        }
        arch.durability = self.journal.take().map(|dir| DurabilityConfig {
            dir: dir.into(),
            resume: self.resume,
        });
        if self.resume {
            // A seeded kill fault already crashed the previous incarnation;
            // firing it again on the redo pass would loop forever.
            if let Some(plan) = &arch.faults {
                plan.disarm_kills();
            }
        }
        let out = &self.out;
        arch.telemetry |=
            out.stats_json.is_some() || out.trace_out.is_some() || out.metrics_addr.is_some();
        Ok(self)
    }
}

/// `rfdump -r`: the trace, `-s`, `--protocols` and the analysis flags.
fn parse_read_args(argv: Vec<String>) -> Result<(Option<String>, bool, Analysis), String> {
    let mut analysis = Analysis::new();
    let (mut trace, mut stats) = (None, false);
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        if analysis.read(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "-r" => trace = Some(args.value(&a, "a file")?),
            "-s" => stats = true,
            "--protocols" => {
                let printed = emit(format_args!("{}", render_table2()));
                std::process::exit(printed.map_or_else(write_failed, |()| 0).into());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((trace, stats, analysis.finish()?))
}

// ---------------------------------------------------------------------------
// Network modes
// ---------------------------------------------------------------------------

/// Options for `rfdump serve`.
struct ServeOptions {
    listen: String,
    net: FleetConfig,
    arch: ArchConfig,
    out: Outputs,
}

fn parse_serve_args(argv: Vec<String>) -> Result<ServeOptions, String> {
    let mut analysis = Analysis::new();
    let mut listen = None;
    let mut net = FleetConfig::default();
    let mut once = false;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        if analysis.read(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--listen" => listen = Some(args.value(&a, "an address")?),
            "--once" => {
                once = true;
                net.expect = Some(1);
            }
            // Accepted for scripts written when tagged senders needed their
            // own server mode; every `serve` admits them now.
            "--fleet" => {}
            "--expect" => net.expect = Some(args.parsed(&a, "a count", "a positive integer")?),
            "--source-timeout" => net.idle_timeout = args.positive_secs(&a, "seconds")?,
            "--queue-cap" => net.queue_cap = args.parsed(&a, "a count", "a positive integer")?,
            "--sub-queue-cap" => {
                net.sub_queue_cap = args.parsed(&a, "a count", "a positive integer")?
            }
            "--overflow" => {
                let s = args.value(&a, "a policy")?;
                net.overflow = OverflowPolicy::parse(&s)
                    .ok_or_else(|| format!("unknown overflow policy '{s}'"))?;
            }
            "--resume-grace" => {
                net.resume_grace = args.secs(&a, "seconds", "seconds")?.unwrap_or_default();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let analysis = analysis.finish()?;
    if net.expect == Some(0) {
        return Err("--expect needs a positive integer".to_string());
    }
    if analysis.latency_budget_ms.is_some() && once {
        // `--once` is a bounded one-shot run; bounded-latency mode is a
        // steady-state control loop and has nothing to govern there.
        return Err("--latency-budget is incompatible with --once".to_string());
    }
    net.faults = analysis.arch.faults.clone();
    net.latency_budget = analysis
        .latency_budget_ms
        .and_then(|ms| deadline_duration(ms / 1e3));
    Ok(ServeOptions {
        listen: listen.ok_or("serve needs --listen ADDR")?,
        net,
        arch: analysis.arch,
        out: analysis.out,
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
            say!("rfdump: cannot bind metrics on {addr}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match srv.local_addr() {
        Ok(a) => say!("rfdump: metrics on {a}"),
        Err(_) => say!("rfdump: metrics on {addr}"),
    }
    Ok((srv.spawn(), reg))
}

fn cmd_serve(opts: ServeOptions) -> ExitCode {
    let ServeOptions {
        listen,
        net,
        arch,
        out: outputs,
    } = opts;
    // The shared registry exists whenever anything will consume it: a
    // scrape endpoint, or a stats/trace document — the document's events
    // section must capture net-layer and fleet overload events (resumes,
    // budget violations, sheds, admission refusals), which are emitted
    // into this registry, never into a pipeline's private one.
    let (metrics, registry) = match &outputs.metrics_addr {
        None if outputs.stats_json.is_some() || outputs.trace_out.is_some() => {
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
    let factory = rfdump::fleet::pipeline_factory(arch, registry.clone(), slot.clone());
    let server = match FleetServer::bind(&listen, net, factory, registry) {
        Ok(s) => s,
        Err(e) => {
            say!("rfdump: cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(a) => say!("rfdump: serving on {a}"),
        Err(_) => say!("rfdump: serving on {listen}"),
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
                say!("rfdump: interrupt - shutting down");
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
            say!("rfdump: stdin closed - shutting down");
            handle.shutdown();
        });
    }
    // Print records locally through an in-process subscription, the way an
    // unfiltered network `watch` prints them: an anonymous session's lines
    // bare, a tagged source's as `[source] line`. A failed write shuts the
    // server down the way a closed stdin does.
    let local = server.subscribe();
    let quiet = outputs.quiet;
    let (handle, stop) = (server.handle(), Arc::clone(&user_stop));
    let printer = std::thread::spawn(move || {
        let print = || -> io::Result<()> {
            while let Ok(msg) = local.rx.recv() {
                match msg {
                    HubMsg::Record(r) if !quiet => emit(format_args!("{}\n", r.line))?,
                    HubMsg::SourceRecord { source, record } if !quiet => {
                        emit(format_args!("[{source}] {}\n", record.line))?
                    }
                    HubMsg::Record(_) | HubMsg::SourceRecord { .. } | HubMsg::Stats(_) => {}
                    HubMsg::Meta(m) => say!(
                        "rfdump: session started at {:.1} Msps, band center {:.1} MHz",
                        m.sample_rate / 1e6,
                        m.center_hz / 1e6,
                    ),
                    HubMsg::SourceMeta { source, meta } => say!(
                        "rfdump: source '{source}' joined at {:.1} Msps, band center {:.1} MHz",
                        meta.sample_rate / 1e6,
                        meta.center_hz / 1e6,
                    ),
                    HubMsg::SourceBye { source } => say!("rfdump: source '{source}' done"),
                    HubMsg::Bye => break,
                }
            }
            Ok(())
        };
        print().inspect_err(|_| {
            stop.store(true, Ordering::SeqCst);
            handle.shutdown();
        })
    });
    let snap = match server.run() {
        Ok(s) => s,
        Err(e) => {
            say!("rfdump: server failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let printed = printer.join().unwrap_or(Ok(()));
    say!(
        "rfdump: served {} source(s) ({} done, {} refused), {} samples, {} records, ingest RT ratio {:.3}",
        snap.sources_joined,
        snap.sources_done,
        snap.rejects,
        snap.net.samples_in,
        snap.net.records_published,
        snap.net.ingest_rt_ratio(),
    );
    let out = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
    match &out {
        Some(out) => {
            if let Err(code) = outputs.write(out, Some(&snap)) {
                return code;
            }
        }
        None => {
            for path in [&outputs.stats_json, &outputs.trace_out]
                .into_iter()
                .flatten()
            {
                say!("rfdump: no source completed; not writing {path}");
                if !user_stop.load(Ordering::SeqCst) {
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(m) = metrics {
        m.join();
    }
    exit_after(printed)
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

fn parse_send_args(argv: Vec<String>) -> Result<SendOptions, String> {
    let mut connect = None;
    let mut trace = None;
    let mut rate = SendRate::Max;
    let mut chunk = rfd_net::frame::DEFAULT_CHUNK_SAMPLES;
    let mut retries = RetryPolicy::default().max_retries;
    let mut chaos = None;
    let mut source = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => connect = Some(args.value(&a, "an address")?),
            "--source" => source = Some(parse_source(args.value(&a, "an id")?)?),
            "--rate" => {
                let s = args.value(&a, "max|real-time")?;
                rate = SendRate::parse(&s).ok_or_else(|| format!("unknown rate '{s}'"))?;
            }
            "--chunk" => chunk = args.parsed(&a, "a sample count", "a positive integer")?,
            "--retries" => retries = args.parsed(&a, "a count", "a non-negative integer")?,
            "--chaos" => chaos = parse_chaos(&args.value(&a, "a spec")?)?,
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

/// Checks a `--source` id against the wire protocol's rules.
fn parse_source(id: String) -> Result<String, String> {
    rfd_net::validate_source_id(&id).map_err(|e| e.to_string())?;
    Ok(id)
}

fn cmd_send(opts: SendOptions) -> ExitCode {
    let retry = RetryPolicy {
        max_retries: opts.retries,
        ..RetryPolicy::default()
    };
    // Under `--source` every reconnect re-handshakes with the source id
    // (fleet session resume); a plain sender resumes by session number.
    let mut tx = match TraceSender::connect_retrying(&opts.connect, opts.source.as_deref(), retry) {
        Ok(tx) => tx,
        Err(e) => {
            say!("rfdump: cannot connect to {}: {e}", opts.connect);
            return ExitCode::FAILURE;
        }
    };
    if opts.chaos.is_some() {
        tx = tx.with_faults(opts.chaos.clone());
    }
    let report = match tx.send_trace_file(Path::new(&opts.trace), opts.rate, opts.chunk) {
        Ok(r) => r,
        Err(e) => {
            // A reconnect that cannot reach the server reads as "cannot
            // connect"; everything past the socket is a send error.
            use std::io::ErrorKind as K;
            match e.kind() {
                K::ConnectionRefused | K::TimedOut | K::AddrNotAvailable => {
                    say!("rfdump: cannot connect to {}: {e}", opts.connect)
                }
                _ => say!("rfdump: cannot send {}: {e}", opts.trace),
            }
            return ExitCode::FAILURE;
        }
    };
    say!(
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

/// Options for `rfdump watch`.
struct WatchOptions {
    connect: String,
    quiet: bool,
    chaos: Option<Arc<FaultPlan>>,
    journal: Option<String>,
    source: Option<String>,
    wait_source: Option<Duration>,
}

fn parse_watch_args(argv: Vec<String>) -> Result<WatchOptions, String> {
    let mut connect = None;
    let mut quiet = false;
    let mut chaos = None;
    let mut journal = None;
    let mut source = None;
    let mut wait_source = None;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => connect = Some(args.value(&a, "an address")?),
            "--source" => source = Some(parse_source(args.value(&a, "an id")?)?),
            "--wait-source" => wait_source = Some(args.positive_secs(&a, "positive seconds")?),
            "--chaos" => chaos = parse_chaos(&args.value(&a, "a spec")?)?,
            "--journal" => journal = Some(args.value(&a, "a directory")?),
            "-q" => quiet = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let connect = connect.ok_or("watch needs --connect ADDR")?;
    if source.is_some() && journal.is_some() {
        // The journal checkpoints the *unfiltered* stream position; a
        // filtered resume would silently skip other sources' records.
        return Err("--source is incompatible with --journal".to_string());
    }
    if wait_source.is_some() && source.is_none() {
        return Err("--wait-source needs --source ID".to_string());
    }
    Ok(WatchOptions {
        connect,
        quiet,
        chaos,
        journal,
        source,
        wait_source,
    })
}

fn cmd_watch(opts: WatchOptions) -> ExitCode {
    // With --wait-source the whole watch retries until the deadline when
    // the server isn't up yet or the source hasn't joined the stream.
    let deadline = opts.wait_source.map(|d| std::time::Instant::now() + d);
    loop {
        match watch_stream(&opts) {
            Ok((records, reconnects)) => {
                say!("rfdump: stream ended after {records} record(s), {reconnects} reconnect(s)");
                return ExitCode::SUCCESS;
            }
            Err(WatchErr::SourceMissing | WatchErr::Connect(_))
                if deadline.is_some_and(|dl| std::time::Instant::now() < dl) =>
            {
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(WatchErr::SourceMissing) => {
                let want = opts.source.as_deref().unwrap_or("");
                say!("rfdump: source '{want}' never appeared in the stream");
                return ExitCode::FAILURE;
            }
            Err(WatchErr::Connect(e)) => {
                say!("rfdump: cannot connect to {}: {e}", opts.connect);
                return ExitCode::FAILURE;
            }
            Err(WatchErr::Stream(e)) => {
                say!("rfdump: stream failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(WatchErr::Write(e)) => return ExitCode::from(write_failed(e)),
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
    /// Stdout refused a record.
    Write(io::Error),
}

/// One full watch pass: subscribe, print, run to stream end.
/// Returns `(records_printed, reconnects)` on a clean end.
fn watch_stream(opts: &WatchOptions) -> Result<(u64, u64), WatchErr> {
    let (connect, quiet, source) = (&opts.connect, opts.quiet, &opts.source);
    // Durable watch: the subscription position is checkpointed under the
    // journal directory, so a restarted `watch --journal DIR` resumes where
    // the previous process durably left off.
    let sub = match &opts.journal {
        Some(dir) => RecordSubscriber::connect_journaled(connect, Path::new(dir)),
        None => RecordSubscriber::connect(connect),
    };
    let mut sub = match sub {
        Ok(s) if opts.chaos.is_some() => s.with_faults(opts.chaos.clone()),
        Ok(s) => s,
        Err(e) => return Err(WatchErr::Connect(e)),
    };
    // The server has acked the subscription: every record published from
    // here on reaches this watcher, so a script may start its senders.
    say!("rfdump: watching {connect}");
    let mut records = 0u64;
    // Under `--source`, matching records print bare (byte-identical to an
    // offline `rfdump -r` on the same trace); unfiltered tagged records
    // print as `[source] line`.
    let mut source_seen = false;
    let print = |line: std::fmt::Arguments| {
        if quiet {
            return Ok(());
        }
        emit(format_args!("{line}\n")).map_err(WatchErr::Write)
    };
    loop {
        match sub.next_event() {
            Ok(SubEvent::Record(r)) => {
                if source.is_none() {
                    records += 1;
                    print(format_args!("{}", r.line))?;
                }
            }
            Ok(SubEvent::Meta(m)) => say!(
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
                    print(format_args!("{}", record.line))?;
                }
                Some(_) => {}
                None => {
                    records += 1;
                    print(format_args!("[{from}] {}", record.line))?;
                }
            },
            Ok(SubEvent::SourceMeta { source: from, meta }) => {
                let wanted = match &source {
                    Some(want) => *want == from,
                    None => true,
                };
                if wanted {
                    source_seen = true;
                    say!(
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
                None => say!("rfdump: source '{from}' done"),
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
    let names: Vec<&str> = rfd_dsp::kernels::available()
        .iter()
        .map(|b| b.name())
        .collect();
    exit_after(emit(format_args!(
        "backend: {}\nrequested: {}\navailable: {}\n",
        rfd_dsp::kernels::active().name(),
        rfd_dsp::kernels::requested(),
        names.join(" "),
    )))
}

/// `rfdump top`: the endpoint, the refresh interval and `--once`.
fn parse_top_args(argv: Vec<String>) -> Result<(String, Duration, bool), String> {
    let mut connect = None;
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--connect" => connect = Some(args.value(&a, "an address")?),
            "--interval" => interval = args.positive_secs(&a, "positive seconds")?,
            "--once" => once = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((connect.ok_or("top needs --connect ADDR")?, interval, once))
}

/// `rfdump top`: polls a metrics endpoint and renders a refreshing view.
fn cmd_top((addr, interval, once): (String, Duration, bool)) -> ExitCode {
    rfd_fault::signal::install_sigint();
    let mut prev: Option<(std::collections::BTreeMap<String, f64>, std::time::Instant)> = None;
    loop {
        let text = match rfd_obs::scrape(&addr, "/metrics") {
            Ok(t) => t,
            Err(e) => {
                say!("rfdump: cannot scrape {addr}: {e}");
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
            return exit_after(emit(format_args!("{screen}")));
        }
        // Clear screen + home, then the fresh frame.
        let frame = emit(format_args!("\x1b[2J\x1b[H{screen}")).and_then(|()| io::stdout().flush());
        if let Err(e) = frame {
            return ExitCode::from(write_failed(e));
        }
        prev = Some((cur, now));
        let deadline = std::time::Instant::now() + interval;
        while std::time::Instant::now() < deadline {
            if rfd_fault::signal::sigint_seen() {
                return exit_after(emit(format_args!("\n")));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Runs a subcommand on its parsed options, or prints why they did not
/// parse, and the usage.
fn run<T>(parsed: Result<T, String>, cmd: fn(T) -> ExitCode) -> ExitCode {
    match parsed {
        Ok(opts) => cmd(opts),
        Err(e) => {
            say!("rfdump: {e}");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().cloned().unwrap_or_default();
    let rest = || argv[1..].to_vec();
    match cmd.as_str() {
        "serve" => run(parse_serve_args(rest()), cmd_serve),
        "send" => run(parse_send_args(rest()), cmd_send),
        "watch" => run(parse_watch_args(rest()), cmd_watch),
        "top" => run(parse_top_args(rest()), cmd_top),
        "kernel" => cmd_kernel(),
        _ => run(parse_read_args(argv), cmd_read),
    }
}

/// `rfdump -r`: replays a trace file through the monitor.
fn cmd_read((trace, stats, analysis): (Option<String>, bool, Analysis)) -> ExitCode {
    let Some(path) = &trace else {
        return usage();
    };
    let mut reader = match rfd_ether::trace::ChunkedTraceReader::open(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            say!("rfdump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let header = *reader.header();
    say!(
        "rfdump: {} samples at {:.1} Msps ({:.1} ms), band center {:.1} MHz",
        header.n_samples,
        header.sample_rate / 1e6,
        header.n_samples as f64 / header.sample_rate * 1e3,
        header.center_hz / 1e6,
    );

    let Analysis {
        arch: mut cfg,
        out: outputs,
        ..
    } = analysis;
    cfg.band = rfd_ether::Band {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
    };
    if let Some(d) = cfg.durability.as_ref().filter(|d| d.resume) {
        let fp = rfdump::durability::config_fingerprint(&cfg, header.n_samples, header.sample_rate);
        if let Err(e) = rfdump::durability::preflight(d, &fp) {
            say!("rfdump: cannot resume: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (metrics, registry) = match &outputs.metrics_addr {
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
        say!(
            "rfdump: resumed from journal: {} entries replayed, {} record(s) recovered, resume latency {:.1} ms",
            r.entries_replayed,
            r.records_recovered,
            r.resume_latency_us as f64 / 1e3,
        );
    }
    let mut packets = 0usize;
    let mut print = |released: Released| -> io::Result<()> {
        packets += released.records.len();
        if !outputs.quiet {
            for rec in &released.records {
                emit(format_args!("{}\n", rec.format_line()))?;
            }
        }
        Ok(())
    };
    // A failed write ends the input: the session still finishes, so stats
    // and the journal are flushed.
    let mut samples = Vec::new();
    let mut printed = Ok(());
    while printed.is_ok() {
        match reader.read_into(&mut samples, PUSH_SAMPLES) {
            Ok(0) => break,
            Ok(_) => printed = print(session.push(&samples)),
            Err(e) => {
                say!("rfdump: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (last, out) = session.finish();
    printed = printed.and_then(|()| print(last));
    if let Some(m) = metrics {
        m.join();
    }
    say!(
        "rfdump: {packets} packets, CPU/RT {:.3}",
        out.cpu_over_realtime()
    );
    if out.panics > 0 || !out.quarantined.is_empty() {
        say!(
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
        say!(
            "rfdump: governor finished at level {} ({}), {} escalation(s), shed {} demod / {} detector(s) / {} vote(s)",
            g.level,
            rfdump::governor::LEVEL_NAMES[g.level as usize],
            g.escalations,
            g.shed_demod,
            g.shed_detectors,
            g.shed_votes,
        );
    }
    if stats {
        let _ = io::stderr().write_all(out.stats.table().as_bytes());
        if let Some(ds) = &out.dispatch_stats {
            say!(
                "peaks: {} total, {} unclassified",
                ds.total_peaks,
                ds.unclassified_peaks
            );
        }
        if let Some(ps) = &out.pool_stats {
            say!(
                "pool: {} tasks over {} workers, busy {:.1} ms, stall {:.1} ms",
                ps.executed(),
                ps.workers.len(),
                ps.busy().as_secs_f64() * 1e3,
                ps.stall().as_secs_f64() * 1e3,
            );
        }
    }
    match outputs.write(&out, None) {
        Ok(()) => exit_after(printed),
        Err(code) => code,
    }
}
