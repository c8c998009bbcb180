//! `perf_baseline` — the end-to-end half of the repo benchmark.
//!
//! Drives the release `rfdump` binary exactly as an operator does
//! (`rfdump -r`, `serve`, `send`, `watch`) over traces synthesized from
//! `--seed`, measures it from outside (wall clock, `wait4` rusage, record
//! arrival times) and checks the record stream against simulator ground
//! truth. The program under test receives only the generated `.rfdt` files.
//!
//! Metric and workload definitions: `bench/README.md`. Run through
//! `bench/run.sh`, which builds both sides first.

use rfd_perfbench::json::Json;
use rfd_perfbench::proc::{Exit, Proc, StampedLine};
use rfd_perfbench::report::{self, Args, Fingerprint, Metric, WorkloadResult};
use rfd_perfbench::stats::{median, percentile};
use rfd_perfbench::truth::{self, Score, TruthPacket};
use rfd_perfbench::workloads::{self, Mode, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_ROUNDS: usize = 3;
/// Fewest measured iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// A child running longer than this many times the median iteration is
/// killed and the iteration counted as failed.
const TIMEOUT_FACTOR: f64 = 10.0;
/// Deadline for the reference run, before any median exists.
const FIRST_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a freshly spawned `watch` is given to subscribe before the
/// senders start. Outside every timed interval.
const WATCH_SETTLE: Duration = Duration::from_millis(200);

/// What one workload needs to run its iterations.
struct Bench<'a> {
    rfdump: &'a Path,
    work: &'a Path,
    trace: PathBuf,
    /// Samples in the trace.
    samples: u64,
    /// Seconds of ether in the trace.
    ether_s: f64,
    /// `rfdump -r` stdout on the trace: what every stream must equal.
    reference: Vec<String>,
}

/// One measured iteration.
struct Iteration {
    /// Every child exited 0 in time and every stream equals the reference.
    ok: bool,
    /// Why not, for the log.
    why: String,
    /// First child spawn to last record (or end of stream) seen, seconds.
    wall_s: f64,
    /// Samples put through the monitor.
    samples: u64,
    /// Seconds of ether those samples cover.
    ether_s: f64,
    /// CPU seconds of the process under test (analyzer or server).
    cpu_s: f64,
    /// Its peak RSS, MB.
    rss_mb: f64,
    /// Per record: arrival minus the moment its samples were available to
    /// the monitor, ms.
    staleness_ms: Vec<f64>,
}

/// A live server, the watcher subscribed to it, and where senders connect.
struct Session {
    server: Proc,
    watch: Proc,
    addr: String,
}

fn text(lines: &[StampedLine]) -> Vec<String> {
    lines.iter().map(|(_, l)| l.clone()).collect()
}

impl Bench<'_> {
    fn spawn(&self, tag: &str, args: &[&str], capture: bool) -> Result<Proc, String> {
        Proc::spawn(
            self.rfdump,
            args,
            &self.work.join(format!("{tag}.stderr")),
            capture,
        )
        .map_err(|e| format!("cannot spawn rfdump {tag}: {e}"))
    }

    fn trace_arg(&self) -> &str {
        self.trace.to_str().expect("work paths are UTF-8")
    }

    /// `rfdump -r FILE`: spawn to exit.
    fn offline(&self, deadline: Instant) -> Result<(Iteration, Vec<String>), String> {
        let args = [
            "-r",
            self.trace_arg(),
            "--workers",
            "0",
            "-p",
            workloads::PICONET_ARG,
        ];
        let t0 = Instant::now();
        let (exit, lines) = self.spawn("offline", &args, true)?.wait(deadline);
        let out = text(&lines);
        let it = Iteration {
            ok: exit.ok,
            why: if exit.ok {
                String::new()
            } else {
                "rfdump -r failed or timed out".into()
            },
            wall_s: (exit.at - t0).as_secs_f64(),
            samples: self.samples,
            ether_s: self.ether_s,
            cpu_s: exit.cpu_s,
            rss_mb: exit.max_rss_mb,
            // The whole file is there at spawn.
            staleness_ms: lines
                .iter()
                .map(|(at, _)| (*at - t0).as_secs_f64() * 1e3)
                .collect(),
        };
        Ok((it, out))
    }

    /// Starts a server and one unfiltered `watch` on it.
    fn serve_and_watch(&self, serve_args: &[&str], deadline: Instant) -> Result<Session, String> {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0"];
        args.extend_from_slice(serve_args);
        args.extend_from_slice(&["--workers", "0", "-p", workloads::PICONET_ARG]);
        let mut server = self.spawn("serve", &args, false)?;
        let Some(addr) = server.await_stderr("serving on", deadline) else {
            server.wait(Instant::now());
            return Err("server never came up".into());
        };
        let watch = self.spawn("watch", &["watch", "--connect", &addr], true)?;
        std::thread::sleep(WATCH_SETTLE);
        Ok(Session {
            server,
            watch,
            addr,
        })
    }

    /// Collects senders, then the server (the process under test), then the
    /// watcher, and assembles the iteration. `available_at` gives, for a
    /// record's own timestamp, when its samples had been handed to the
    /// monitor; `streams` splits the watcher's lines into the per-source
    /// streams that must each equal the reference.
    fn collect(
        &self,
        session: Session,
        t0: Instant,
        senders: Vec<Proc>,
        deadline: Instant,
        available_at: impl Fn(f64) -> Duration,
        streams: impl Fn(&[String]) -> Vec<Vec<String>>,
    ) -> Iteration {
        let n = senders.len() as u64;
        let sends: Vec<Exit> = senders.into_iter().map(|p| p.wait(deadline).0).collect();
        let (srv, _) = session.server.wait(deadline);
        let (wat, lines) = session.watch.wait(deadline);
        let end = lines.last().map_or(wat.at, |(at, _)| *at);
        let out = text(&lines);
        let why = if !sends.iter().all(|e| e.ok) {
            "a sender failed or timed out"
        } else if !srv.ok {
            "the server failed or timed out"
        } else if !wat.ok {
            "the watcher failed or timed out"
        } else if streams(&out).iter().any(|s| *s != self.reference) {
            "a live stream differs from rfdump -r on the same trace"
        } else {
            ""
        };
        let staleness_ms = lines
            .iter()
            .filter_map(|(at, l)| {
                let line = l.split_once("] ").map_or(l.as_str(), |(_, rest)| rest);
                let (rec_us, _) = truth::parse_record(line)?;
                let due = t0 + available_at(rec_us);
                Some((at.saturating_duration_since(due)).as_secs_f64() * 1e3)
            })
            .collect();
        Iteration {
            ok: why.is_empty(),
            why: why.to_string(),
            wall_s: (end - t0).as_secs_f64(),
            samples: n * self.samples,
            ether_s: n as f64 * self.ether_s,
            cpu_s: srv.cpu_s,
            rss_mb: srv.max_rss_mb,
            staleness_ms,
        }
    }

    /// `serve --once` + `watch` + `send --rate real-time`.
    fn live(&self, deadline: Instant) -> Result<Iteration, String> {
        let session = self.serve_and_watch(&["--once"], deadline)?;
        let t0 = Instant::now();
        let send = self.spawn(
            "send",
            &[
                "send",
                "--connect",
                &session.addr,
                "--rate",
                "real-time",
                self.trace_arg(),
            ],
            false,
        )?;
        Ok(self.collect(
            session,
            t0,
            vec![send],
            deadline,
            // Paced: a packet's samples leave the sender when it was on air.
            |rec_us| Duration::from_secs_f64(rec_us / 1e6),
            |out| vec![out.to_vec()],
        ))
    }

    /// `serve --fleet --expect N --journal DIR` + `watch` + N × `send
    /// --source sK --rate max`.
    fn fleet(&self, sources: usize, deadline: Instant) -> Result<Iteration, String> {
        let journal = self.work.join("journal");
        let _ = std::fs::remove_dir_all(&journal);
        let expect = sources.to_string();
        let session = self.serve_and_watch(
            &[
                "--fleet",
                "--expect",
                &expect,
                "--journal",
                journal.to_str().expect("UTF-8"),
            ],
            deadline,
        )?;
        let ids: Vec<String> = (0..sources).map(|k| format!("s{k}")).collect();
        let t0 = Instant::now();
        let mut senders = Vec::new();
        for id in &ids {
            let args = [
                "send",
                "--connect",
                &session.addr,
                "--source",
                id,
                "--rate",
                "max",
                self.trace_arg(),
            ];
            senders.push(self.spawn(&format!("send-{id}"), &args, false)?);
        }
        let it = self.collect(
            session,
            t0,
            senders,
            deadline,
            // Unpaced: every file is there at spawn.
            |_| Duration::ZERO,
            |out| {
                ids.iter()
                    .map(|id| {
                        let tag = format!("[{id}] ");
                        out.iter()
                            .filter_map(|l| l.strip_prefix(&tag).map(str::to_string))
                            .collect()
                    })
                    .collect()
            },
        );
        let _ = std::fs::remove_dir_all(&journal);
        Ok(it)
    }
}

/// The internal `--set-up WORKLOAD SEED DIR` mode: writes the `.rfdt` /
/// `.truth` pair into `DIR` and prints the trace's length in samples and in
/// seconds.
///
/// Set-up runs in a process of its own because a child's `ru_maxrss` is
/// never below the peak RSS its parent had when it spawned it (the kernel
/// carries the old address space's high-water mark across `exec`): a harness
/// that had held a 100 MB trace itself would put that floor under every
/// `peak_rss_mb` it reports.
fn set_up_main(argv: &[String]) -> Result<(), String> {
    let [name, seed, dir] = argv else {
        return Err("--set-up needs WORKLOAD SEED DIR".into());
    };
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = seed.parse().map_err(|_| "bad seed")?;
    let trace = workloads::synthesize(w.trace, seed);
    let stem = Path::new(dir).join(w.trace.stem());
    rfd_ether::write_trace(
        &stem.with_extension("rfdt"),
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .and_then(|_| truth::write_sidecar(&stem.with_extension("truth"), &truth::from_trace(&trace)))
    .map_err(|e| format!("cannot write the trace: {e}"))?;
    println!("{} {}", trace.samples.len(), trace.duration());
    Ok(())
}

/// Runs set-up once in a child process; returns its wall time and the
/// trace's length in samples and in seconds.
fn set_up(w: Workload, seed: u64, work: &Path) -> Result<(f64, u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--set-up", w.name, &seed.to_string()])
        .arg(work)
        .output()
        .map_err(|e| format!("cannot spawn set-up: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text
        .split_once(' ')
        .and_then(|(n, s)| Some((n.parse().ok()?, s.trim().parse().ok()?)));
    match parsed {
        Some((samples, ether_s)) if out.status.success() => Ok((took, samples, ether_s)),
        _ => Err(format!(
            "set-up failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Runs one workload: set-up, reference run, timed iterations, checks.
fn run_workload(w: Workload, args: &Args, work: &Path) -> Result<WorkloadResult, String> {
    let mut setup_s = Vec::new();
    let (mut samples, mut ether_s) = (0, 0.0);
    for _ in 0..SETUP_ROUNDS {
        let took;
        (took, samples, ether_s) = set_up(w, args.seed, work)?;
        setup_s.push(took);
    }
    let stem = work.join(w.trace.stem());
    // The matcher reads what the sidecar says, not what synthesis had in
    // memory.
    let truth: Vec<TruthPacket> = truth::read_sidecar(&stem.with_extension("truth"))
        .map_err(|e| format!("cannot read the truth sidecar: {e}"))?;

    let mut bench = Bench {
        rfdump: &args.rfdump,
        work,
        trace: stem.with_extension("rfdt"),
        samples,
        ether_s,
        reference: Vec::new(),
    };
    // The reference run doubles as the discarded warm-up: it pages in the
    // binary and the trace file.
    let t = Instant::now();
    let (warm, reference) = bench.offline(Instant::now() + FIRST_TIMEOUT)?;
    let warmup_s = t.elapsed().as_secs_f64();
    if !warm.ok {
        return Err(format!(
            "{}: the reference run failed: {}",
            w.name, warm.why
        ));
    }
    let ref_score = truth::score(&truth, reference.iter().map(String::as_str));
    bench.reference = reference;

    let mut its: Vec<Iteration> = Vec::new();
    let mut spent: Vec<f64> = Vec::new();
    let mut timeout = FIRST_TIMEOUT;
    let started = Instant::now();
    while its.len() < MIN_ITERATIONS
        || started.elapsed().as_secs_f64() + median(&spent) <= args.seconds
    {
        let t = Instant::now();
        let deadline = t + timeout;
        let it = match w.mode {
            Mode::Offline => {
                let (mut it, out) = bench.offline(deadline)?;
                if it.ok && out != bench.reference {
                    it.ok = false;
                    it.why = "stdout differs from the first run".into();
                }
                it
            }
            Mode::LiveRealTime => bench.live(deadline)?,
            Mode::FleetMax { sources } => bench.fleet(sources, deadline)?,
        };
        spent.push(t.elapsed().as_secs_f64());
        timeout = FIRST_TIMEOUT.min(Duration::from_secs_f64(TIMEOUT_FACTOR * median(&spent)));
        if !it.ok {
            eprintln!(
                "perf_baseline: {} iteration {} failed: {}",
                w.name,
                its.len(),
                it.why
            );
        }
        its.push(it);
    }

    // An iteration that failed any check counts all its packets missed.
    let mut score = Score::default();
    for it in &its {
        score.add(if it.ok {
            ref_score
        } else {
            Score::all_missed(&truth)
        });
    }
    let good: Vec<&Iteration> = its.iter().filter(|it| it.ok).collect();
    let per = |f: &dyn Fn(&Iteration) -> f64| good.iter().map(|it| f(it)).collect::<Vec<f64>>();
    let metrics = vec![
        Metric::new("setup_s", "s", &setup_s),
        Metric::new(
            "msps",
            "Msample/s",
            &per(&|it| it.samples as f64 / it.wall_s / 1e6),
        ),
        Metric::new("cpu_over_rt", "ratio", &per(&|it| it.cpu_s / it.ether_s)),
        Metric::new("peak_rss_mb", "MB", &per(&|it| it.rss_mb)),
        Metric::new(
            "staleness_p50_ms",
            "ms",
            &per(&|it| percentile(&it.staleness_ms, 50.0)),
        ),
        Metric::new(
            "staleness_p95_ms",
            "ms",
            &per(&|it| percentile(&it.staleness_ms, 95.0)),
        ),
    ];
    Ok(WorkloadResult {
        name: w.name,
        correct: good.len() == its.len(),
        attempted: score.expected,
        failed: score.missed,
        notes: vec![
            ("iterations".into(), Json::Num(its.len() as f64)),
            ("miss_share".into(), Json::Num(score.miss_share())),
            ("false_share".into(), Json::Num(score.false_share())),
            (
                "records_per_iteration".into(),
                Json::Num(ref_score.records as f64),
            ),
            ("truth_packets".into(), Json::Num(truth.len() as f64)),
            ("trace_samples".into(), Json::Num(samples as f64)),
            ("warmup_s".into(), Json::Num(warmup_s)),
            // Every iteration made, in order, so a reader can see the
            // machine's speed wander inside the run.
            (
                "iteration_wall_s".into(),
                Json::Arr(its.iter().map(|it| Json::Num(it.wall_s)).collect()),
            ),
        ],
        metrics,
    })
}

/// Prints the tail of every child's stderr, for a failed run.
fn dump_stderr(work: &Path) {
    let Ok(dir) = std::fs::read_dir(work) else {
        return;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "stderr") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let tail: Vec<&str> = text.lines().rev().take(5).collect();
            for l in tail.iter().rev() {
                eprintln!(
                    "  [{}] {l}",
                    path.file_name().unwrap_or_default().to_string_lossy()
                );
            }
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    if !args.rfdump.is_file() {
        return Err(format!(
            "{} is not a file; build it with `cargo build --release`",
            args.rfdump.display()
        ));
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        let r = run_workload(w, args, work)?;
        if !r.correct {
            dump_stderr(work);
        }
        print!("{}", r.table());
        for (k, v) in &r.notes {
            println!("  {k:<38} {v}");
        }
        println!("{}", r.driver_line());
        results.push(r);
    }
    if let Some(out) = &args.out {
        let fp = Fingerprint::collect(&args.rfdump);
        std::fs::write(
            out,
            report::result_file(&fp, "e2e", args.seed, args.seconds, &results),
        )
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        eprintln!(
            "perf_baseline: wrote {} (machine {})",
            out.display(),
            fp.id()
        );
    }
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--set-up") {
        return match set_up_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perf_baseline: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match report::parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            eprintln!("usage: perf_baseline [--workload NAME|all] [--seed N] [--seconds S] [--rfdump PATH] [--out FILE]");
            return ExitCode::from(2);
        }
    };
    let work = match report::work_dir() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perf_baseline: cannot create a work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run(&args, &work);
    if outcome.is_err() {
        dump_stderr(&work);
    }
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf_baseline: a hard check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}
