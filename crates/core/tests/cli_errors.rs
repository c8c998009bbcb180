//! CLI error-path contract: on unreadable or malformed inputs `rfdump`
//! must exit nonzero with a one-line, human-readable error — never a
//! panic, never a backtrace.

use std::process::{Command, Output};

fn rfdump(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfdump"))
        .args(args)
        .output()
        .expect("spawn rfdump")
}

fn assert_clean_failure(out: &Output, what: &str, needle: &str) {
    assert!(
        !out.status.success(),
        "{what}: must exit nonzero (status {:?})",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{what}: stderr should mention '{needle}', got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{what}: must fail cleanly, not panic: {stderr}"
    );
    assert!(
        stderr.starts_with("rfdump:") || stderr.contains("\nrfdump:"),
        "{what}: errors should carry the program prefix: {stderr}"
    );
}

#[test]
fn nonexistent_trace_fails_cleanly() {
    let out = rfdump(&["-r", "/nonexistent/definitely/not/here.rfdt"]);
    assert_clean_failure(&out, "missing file", "cannot read");
}

#[test]
fn malformed_trace_fails_cleanly() {
    let dir = std::env::temp_dir().join("rfd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.rfdt");
    std::fs::write(&path, b"this is not a trace file at all").unwrap();
    let out = rfdump(&["-r", path.to_str().unwrap()]);
    assert_clean_failure(&out, "garbage trace", "cannot read");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_trace_fails_cleanly() {
    let dir = std::env::temp_dir().join("rfd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.rfdt");
    let samples: Vec<rfd_dsp::Complex32> = vec![rfd_dsp::Complex32::new(0.5, -0.5); 64];
    rfd_ether::trace::write_trace(&path, 8e6, 0.0, &samples).unwrap();
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 17]).unwrap();
    let out = rfdump(&["-r", path.to_str().unwrap()]);
    assert_clean_failure(&out, "truncated trace", "cannot read");
    std::fs::remove_file(&path).ok();
}

#[test]
fn directory_as_trace_fails_cleanly() {
    let dir = std::env::temp_dir().join("rfd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let out = rfdump(&["-r", dir.to_str().unwrap()]);
    assert_clean_failure(&out, "directory", "cannot read");
}

#[test]
fn unknown_arguments_show_usage() {
    let out = rfdump(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn removed_threaded_flag_is_rejected_not_ignored() {
    // `-t` selected the one-thread-per-block scheduler, which is gone. A
    // script still passing it must hear so rather than silently get the
    // only scheduler left.
    let out = rfdump(&["-r", "/nonexistent/never/read.rfdt", "-t"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert_clean_failure(&out, "removed -t flag", "unknown argument '-t'");
}

#[test]
fn send_to_dead_server_fails_cleanly() {
    // Bind-then-drop guarantees a port with no listener.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = rfdump(&["send", "--connect", &addr, "/tmp/whatever.rfdt"]);
    assert_clean_failure(&out, "dead server", "cannot connect");
}

#[test]
fn send_with_missing_trace_fails_cleanly() {
    // A live listener so the connection succeeds and the trace open is the
    // failing step.
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    let accept = std::thread::spawn(move || {
        let _conn = l.accept();
        // Hold the socket open long enough for the client to fail on the
        // trace file and exit.
        std::thread::sleep(std::time::Duration::from_millis(500));
    });
    let out = rfdump(&[
        "send",
        "--connect",
        &addr,
        "/nonexistent/definitely/not/here.rfdt",
    ]);
    assert_clean_failure(&out, "missing trace over net", "cannot send");
    accept.join().unwrap();
}

#[test]
fn serve_on_invalid_address_fails_cleanly() {
    let out = rfdump(&["serve", "--listen", "999.999.999.999:0"]);
    assert_clean_failure(&out, "bad listen address", "cannot listen");
}

#[test]
fn serve_expect_zero_is_rejected_with_or_without_fleet() {
    // `--fleet` is accepted and changes nothing, this check included.
    for fleet in [&[][..], &["--fleet"][..]] {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--expect", "0"];
        args.extend_from_slice(fleet);
        let out = rfdump(&args);
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
        assert_clean_failure(&out, "--expect 0", "--expect needs a positive integer");
    }
}

#[test]
fn serve_fleet_with_invalid_source_timeout_is_rejected() {
    for bad in ["0", "-3", "soon", ""] {
        let out = rfdump(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--fleet",
            "--source-timeout",
            bad,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2 (--source-timeout {bad:?})"
        );
        assert_clean_failure(
            &out,
            "bad --source-timeout",
            "--source-timeout needs positive seconds",
        );
    }
}

#[test]
fn invalid_latency_budget_is_rejected() {
    for bad in ["0", "-5", "inf", "soon", ""] {
        let out = rfdump(&["-r", "/tmp/whatever.rfdt", "--latency-budget", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2 (--latency-budget {bad:?})"
        );
        assert_clean_failure(
            &out,
            "bad --latency-budget",
            "--latency-budget needs positive milliseconds",
        );
    }
}

#[test]
fn removed_governor_auto_names_the_latency_budget() {
    // `--governor auto` shed on a CPU-ratio estimate that nothing measured
    // against a target; the latency budget is the one adaptive signal now.
    let offline: &[&str] = &["-r", "/tmp/whatever.rfdt", "--governor", "auto"];
    let serve: &[&str] = &["serve", "--listen", "127.0.0.1:0", "--governor", "auto"];
    for args in [offline, serve] {
        let out = rfdump(args);
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2 ({args:?})");
        assert_clean_failure(&out, "--governor auto", "--latency-budget");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("rfdump:"))
            .collect();
        assert_eq!(errors.len(), 1, "one error line ({args:?}): {stderr}");
        assert!(
            errors[0].contains("--governor auto") && errors[0].contains("--latency-budget"),
            "the error line names both flags ({args:?}): {stderr}"
        );
    }
}

#[test]
fn removed_chunk_bound_flags_are_rejected_not_ignored() {
    // `--chunk-min`/`--chunk-max` bounded a latency rung that resized the
    // ingest step, which since the streaming session released nothing
    // sooner. The rung is gone; a script still passing them must hear so.
    for flag in ["--chunk-min", "--chunk-max"] {
        let out = rfdump(&[
            "-r",
            "/tmp/whatever.rfdt",
            "--latency-budget",
            "50",
            flag,
            "128",
        ]);
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2 ({flag})");
        assert_clean_failure(
            &out,
            "removed chunk bound flag",
            &format!("unknown argument '{flag}'"),
        );
    }
}

#[test]
fn latency_budget_with_naive_architecture_is_rejected() {
    let out = rfdump(&[
        "-r",
        "/tmp/whatever.rfdt",
        "-a",
        "naive",
        "--latency-budget",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert_clean_failure(
        &out,
        "budget with naive arch",
        "--latency-budget requires the rfdump architecture",
    );
}

#[test]
fn serve_latency_budget_with_once_is_rejected() {
    let out = rfdump(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--once",
        "--latency-budget",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert_clean_failure(
        &out,
        "budget with --once",
        "--latency-budget is incompatible with --once",
    );
}

#[test]
fn watch_wait_source_without_source_is_rejected() {
    let out = rfdump(&["watch", "--connect", "127.0.0.1:1", "--wait-source", "5"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert_clean_failure(
        &out,
        "--wait-source without --source",
        "--wait-source needs --source",
    );
}

#[test]
fn watch_with_invalid_wait_source_is_rejected() {
    for bad in ["0", "-1", "nan", "later"] {
        let out = rfdump(&[
            "watch",
            "--connect",
            "127.0.0.1:1",
            "--source",
            "roof",
            "--wait-source",
            bad,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2 (--wait-source {bad:?})"
        );
        assert_clean_failure(
            &out,
            "bad --wait-source",
            "--wait-source needs positive seconds",
        );
    }
}

#[test]
fn send_with_malformed_source_id_is_rejected() {
    let out = rfdump(&[
        "send",
        "--connect",
        "127.0.0.1:1",
        "--source",
        "not a valid id!",
        "/tmp/whatever.rfdt",
    ]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "must fail cleanly, not panic: {stderr}"
    );
}

#[test]
fn watch_source_with_journal_is_rejected() {
    let out = rfdump(&[
        "watch",
        "--connect",
        "127.0.0.1:1",
        "--source",
        "roof",
        "--journal",
        "/tmp/rfd-cli-errors-watch",
    ]);
    assert_clean_failure(&out, "source with journal", "incompatible with --journal");
}

#[test]
fn watch_for_absent_source_exits_nonzero_cleanly() {
    // A real fleet session where the watched id never appears: the watcher
    // must drain the stream, print nothing, and fail with a clean one-line
    // error once the fleet-wide Bye proves the source is absent.
    let factory: rfd_net::PipelineFactory = Box::new(|_source: &str| {
        Box::new(
            |_meta: &rfd_net::StreamMeta, samples: Vec<rfd_dsp::Complex32>| {
                vec![rfd_net::RecordMsg {
                    start_us: 0.0,
                    end_us: 1.0,
                    line: format!("session of {} samples", samples.len()),
                }]
            },
        )
    });
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            expect: Some(1),
            ..Default::default()
        },
        factory,
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let run = std::thread::spawn(move || server.run().unwrap());
    // Start the filtered watcher before the only source runs, and wait for
    // it to announce that its subscription is live, so the records and the
    // Bye reach it.
    let mut watch = Command::new(env!("CARGO_BIN_EXE_rfdump"))
        .args(["watch", "--connect", &addr, "--source", "missing"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn rfdump watch");
    let stderr = {
        use std::io::{BufRead, Read};
        let mut log = std::io::BufReader::new(watch.stderr.take().unwrap());
        let mut seen = String::new();
        while !seen.contains("rfdump: watching ") {
            assert!(
                log.read_line(&mut seen).unwrap() > 0,
                "watch exited before subscribing: {seen}"
            );
        }
        // Keep only what follows the announcement, so the error line itself
        // must carry the program prefix.
        std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = log.read_to_string(&mut rest);
            rest.into_bytes()
        })
    };
    let meta = rfd_net::StreamMeta {
        sample_rate: 8e6,
        center_hz: 0.0,
        scale: 1.0,
    };
    let mut tx = rfd_net::TraceSender::connect_source(&addr, "present").unwrap();
    tx.send_samples(
        meta,
        &vec![rfd_dsp::Complex32::new(0.1, 0.0); 512],
        rfd_net::SendRate::Max,
        128,
    )
    .unwrap();
    tx.finish().unwrap();
    run.join().unwrap();
    let mut out = watch.wait_with_output().unwrap();
    out.stderr = stderr.join().unwrap();
    assert_clean_failure(&out, "absent source", "never appeared");
    assert!(
        out.stdout.is_empty(),
        "a filtered watch of an absent source must print no records: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn send_retries_zero_fails_on_an_injected_disconnect_and_one_retry_recovers() {
    // `--retries 0` is the single attempt even under `--chaos`: the
    // connection dropped at the second chunk is terminal. One retry
    // reconnects, resumes from the server's ack and completes the send.
    let dir = std::env::temp_dir().join("rfd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("retries-{}.rfdt", std::process::id()));
    let samples = vec![rfd_dsp::Complex32::new(0.25, -0.25); 4096];
    rfd_ether::trace::write_trace(&path, 8e6, 0.0, &samples).unwrap();
    for (retries, recovers) in [("0", false), ("1", true)] {
        let factory: rfd_net::PipelineFactory = Box::new(|_source: &str| {
            Box::new(|_meta: &rfd_net::StreamMeta, _: Vec<rfd_dsp::Complex32>| {
                Vec::<rfd_net::RecordMsg>::new()
            })
        });
        let server = rfd_net::FleetServer::bind(
            "127.0.0.1:0",
            rfd_net::FleetConfig {
                expect: Some(1),
                resume_grace: std::time::Duration::from_secs(10),
                ..Default::default()
            },
            factory,
            None,
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run().unwrap());
        let out = rfdump(&[
            "send",
            "--connect",
            &addr,
            "--retries",
            retries,
            "--chunk",
            "1024",
            "--chaos",
            "seed=1;disconnect=net.send.chunk#2",
            path.to_str().unwrap(),
        ]);
        if recovers {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "--retries 1 must recover: {stderr}");
            assert!(stderr.contains("1 reconnect(s)"), "stderr: {stderr}");
        } else {
            assert_clean_failure(&out, "--retries 0 under chaos", "cannot send");
            handle.shutdown();
        }
        run.join().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// The flag surface, pinned: what each subcommand accepts, refuses, and says
// when a flag's value is missing.
// ---------------------------------------------------------------------------

/// The usage text alone: what `rfdump` with no arguments prints.
fn usage_text() -> String {
    let out = rfdump(&[]);
    assert_eq!(out.status.code(), Some(2), "bare rfdump is a usage error");
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(usage.starts_with("usage: rfdump -r FILE"), "usage: {usage}");
    usage
}

/// Asserts a usage error: exit 2, exactly the line `rfdump: {msg}`, then the
/// usage text and nothing else.
fn assert_usage_error(args: &[&str], msg: &str, usage: &str) {
    let out = rfdump(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("rfdump: {msg}\n{usage}"),
        "{args:?}"
    );
}

/// The analysis flags `rfdump -r` and `serve` share that take a value, with
/// what each says it needs when the value is missing.
const SHARED_VALUE_FLAGS: &[(&str, &str)] = &[
    ("-a", "an architecture"),
    ("-d", "a set"),
    ("-p", "LAP:UAP"),
    ("--workers", "a count"),
    ("--stats-json", "a file"),
    ("--trace-out", "a file"),
    ("--chaos", "a spec"),
    ("--governor", "a level"),
    ("--latency-budget", "milliseconds"),
    ("--journal", "a directory"),
    ("--metrics-addr", "host:port"),
];

#[test]
fn every_value_flag_given_last_names_the_value_it_needs() {
    let usage = usage_text();
    for (flag, what) in SHARED_VALUE_FLAGS {
        let msg = format!("{flag} needs {what}");
        assert_usage_error(&[flag], &msg, &usage);
        assert_usage_error(&["serve", flag], &msg, &usage);
    }
    let own: &[(&[&str], &str)] = &[
        (&["-r"], "-r needs a file"),
        (&["serve", "--listen"], "--listen needs an address"),
        (&["serve", "--expect"], "--expect needs a count"),
        (
            &["serve", "--source-timeout"],
            "--source-timeout needs seconds",
        ),
        (&["serve", "--queue-cap"], "--queue-cap needs a count"),
        (
            &["serve", "--sub-queue-cap"],
            "--sub-queue-cap needs a count",
        ),
        (&["serve", "--overflow"], "--overflow needs a policy"),
        (&["serve", "--resume-grace"], "--resume-grace needs seconds"),
        (&["send", "--connect"], "--connect needs an address"),
        (&["send", "--source"], "--source needs an id"),
        (&["send", "--rate"], "--rate needs max|real-time"),
        (&["send", "--chunk"], "--chunk needs a sample count"),
        (&["send", "--retries"], "--retries needs a count"),
        (&["send", "--chaos"], "--chaos needs a spec"),
        (&["watch", "--connect"], "--connect needs an address"),
        (&["watch", "--source"], "--source needs an id"),
        (
            &["watch", "--wait-source"],
            "--wait-source needs positive seconds",
        ),
        (&["watch", "--chaos"], "--chaos needs a spec"),
        (&["watch", "--journal"], "--journal needs a directory"),
        (&["top", "--connect"], "--connect needs an address"),
        (&["top", "--interval"], "--interval needs positive seconds"),
    ];
    for (args, msg) in own {
        assert_usage_error(args, msg, &usage);
    }
}

#[test]
fn replay_and_serve_accept_every_shared_analysis_flag() {
    let golden = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let trace = golden.join("wifi.rfdt");
    let dir = std::env::temp_dir().join(format!("rfd-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (stats, spans, journal) = (file("stats.json"), file("spans.json"), file("journal"));
    let shared: Vec<Vec<&str>> = vec![
        vec!["-a", "rfdump"],
        vec!["-d", "all"],
        vec!["-n"],
        vec!["-p", "9E8B33:47"],
        vec!["-z"],
        vec!["-q"],
        vec!["--workers", "2"],
        vec!["--no-telemetry"],
        vec!["--stats-json", &stats],
        vec!["--trace-out", &spans],
        vec!["--chaos", "seed=7;slow=analyze@0.02/100us"],
        vec!["--governor", "1"],
        vec!["--latency-budget", "1000"],
        vec!["--journal", &journal],
        vec!["--journal", &journal, "--resume"],
        vec!["--metrics-addr", "127.0.0.1:0"],
    ];
    // A port that is already taken: `serve` parses its whole command line
    // before it binds, so failing to listen proves the flags parsed.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = taken.local_addr().unwrap().to_string();
    for flags in &shared {
        let mut args = vec!["-r", trace.to_str().unwrap()];
        args.extend_from_slice(flags);
        args.push("-q");
        let out = rfdump(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "rfdump -r accepts {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut args = vec!["serve", "--listen", &taken];
        args.extend_from_slice(flags);
        let out = rfdump(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "serve accepts {flags:?}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("rfdump: cannot listen on {taken}")),
            "serve accepts {flags:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_mode_refuses_the_other_modes_flags() {
    let usage = usage_text();
    for flag in ["-r", "-s", "--protocols"] {
        assert_usage_error(
            &["serve", "--listen", "127.0.0.1:0", flag],
            &format!("unknown argument '{flag}'"),
            &usage,
        );
    }
    for flag in [
        "--listen",
        "--once",
        "--fleet",
        "--expect",
        "--source-timeout",
        "--queue-cap",
        "--sub-queue-cap",
        "--overflow",
        "--resume-grace",
        "--connect",
    ] {
        assert_usage_error(
            &["-r", "/tmp/whatever.rfdt", flag, "1"],
            &format!("unknown argument '{flag}'"),
            &usage,
        );
    }
    for (cmd, flag) in [("watch", "-a"), ("top", "-q"), ("send", "-n")] {
        assert_usage_error(&[cmd, flag], &format!("unknown argument '{flag}'"), &usage);
    }
}

#[test]
fn flags_are_read_left_to_right_with_their_parser_errors_verbatim() {
    let usage = usage_text();
    // `--protocols` prints Table 2 and exits as soon as it is reached: what
    // follows it is never read, what precedes it already was. The
    // architecture name is checked only after the whole line is read.
    for args in [
        &["--protocols", "--bogus"][..],
        &["-a", "bogus", "--protocols"],
    ] {
        let out = rfdump(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let table = String::from_utf8_lossy(&out.stdout);
        assert!(table.starts_with("protocol "), "{args:?}: {table}");
    }
    assert_usage_error(
        &["--bogus", "--protocols"],
        "unknown argument '--bogus'",
        &usage,
    );
    assert_usage_error(
        &["-d", "bogus", "--protocols"],
        "unknown detector set 'bogus'",
        &usage,
    );
    assert_usage_error(
        &["-r", "/tmp/whatever.rfdt", "-a", "bogus"],
        "unknown architecture 'bogus'",
        &usage,
    );
    // A bad `-p` hex value prints the integer parser's own text.
    for prefix in [&["-r", "/tmp/whatever.rfdt"][..], &["serve"]] {
        for (spec, msg) in [
            ("zz:47", "invalid digit found in string"),
            ("9E8B33:470", "number too large to fit in target type"),
            ("9E8B33", "piconet must be LAP:UAP"),
        ] {
            let mut args = prefix.to_vec();
            args.extend_from_slice(&["-p", spec]);
            assert_usage_error(&args, msg, &usage);
        }
    }
    // With no trace and no error, the usage alone.
    let out = rfdump(&["-q"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&out.stderr), usage);
}

#[test]
fn bad_values_and_missing_required_flags_print_their_one_line() {
    let usage = usage_text();
    let shared: &[(&[&str], &str)] = &[
        (
            &["--workers", "z"],
            "--workers needs a non-negative integer",
        ),
        (
            &["--chaos", "bogus"],
            "bad --chaos spec: fault term 'bogus' is not KEY=VALUE",
        ),
        (
            &["--governor", "3"],
            "--governor level 3 out of range (max 2)",
        ),
        (
            &["--governor", "z"],
            "--governor needs a level 0..=2, got 'z'",
        ),
        (&["--resume"], "--resume needs --journal DIR"),
        (
            &["-a", "naive", "--journal", "/tmp/never-written"],
            "--journal requires the rfdump architecture",
        ),
    ];
    for (flags, msg) in shared {
        let mut args = vec!["-r", "/tmp/whatever.rfdt"];
        args.extend_from_slice(flags);
        assert_usage_error(&args, msg, &usage);
        let mut args = vec!["serve", "--listen", "127.0.0.1:0"];
        args.extend_from_slice(flags);
        assert_usage_error(&args, msg, &usage);
    }
    let own: &[(&[&str], &str)] = &[
        (&["serve"], "serve needs --listen ADDR"),
        (
            &["serve", "--listen", "x", "--overflow", "nope"],
            "unknown overflow policy 'nope'",
        ),
        (
            &["serve", "--listen", "x", "--queue-cap", "-1"],
            "--queue-cap needs a positive integer",
        ),
        (
            &["serve", "--listen", "x", "--resume-grace", "z"],
            "--resume-grace needs seconds",
        ),
        (
            &["serve", "--listen", "x", "--expect", "z"],
            "--expect needs a positive integer",
        ),
        (&["send"], "send needs --connect ADDR"),
        (&["send", "--connect", "x"], "send needs a trace file"),
        (
            &["send", "--connect", "x", "t1", "t2"],
            "unknown argument 't2'",
        ),
        (
            &["send", "--connect", "x", "--rate", "slow", "t"],
            "unknown rate 'slow'",
        ),
        (
            &["send", "--connect", "x", "--chunk", "z", "t"],
            "--chunk needs a positive integer",
        ),
        (
            &["send", "--connect", "x", "--retries", "z", "t"],
            "--retries needs a non-negative integer",
        ),
        (&["watch"], "watch needs --connect ADDR"),
        (
            &["watch", "--connect", "x", "--source", "a", "--journal", "d"],
            "--source is incompatible with --journal",
        ),
        (
            &["watch", "--connect", "x", "--wait-source", "3"],
            "--wait-source needs --source ID",
        ),
        (
            &["watch", "--connect", "x", "--source", "a b"],
            "malformed payload: source id has invalid characters",
        ),
        (
            &["watch", "--connect", "x", "--chaos", "bogus"],
            "bad --chaos spec: fault term 'bogus' is not KEY=VALUE",
        ),
        (&["top"], "top needs --connect ADDR"),
        (
            &["top", "--connect", "x", "--interval", "0"],
            "--interval needs positive seconds",
        ),
        (
            &["top", "--connect", "x", "--interval", "nan"],
            "--interval needs positive seconds",
        ),
    ];
    for (args, msg) in own {
        assert_usage_error(args, msg, &usage);
    }
}
