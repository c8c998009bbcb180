//! Fleet identity of the release binary: one `serve` ingests three
//! concurrent `send --source` senders of the same trace, shards each onto a
//! private pipeline, and every source's `watch --source` stream is byte for
//! byte what `rfdump -r` prints for that trace — sequentially and on the
//! analysis pool.

mod common;

use common::{command, mixed_trace, rfdump};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Output, Stdio};
use std::thread::JoinHandle;

const SOURCES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Reads `child`'s stderr until a line starts with `prefix` and returns the
/// rest of that line, plus a thread that drains the remaining stderr (so a
/// chatty child never blocks on the pipe) and returns all of it.
fn announced(child: &mut Child, prefix: &str) -> (String, JoinHandle<String>) {
    let mut log = BufReader::new(child.stderr.take().unwrap());
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if log.read_line(&mut line).unwrap() == 0 {
            let _ = child.kill();
            panic!("child exited before printing '{prefix}':\n{seen}");
        }
        seen.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix(prefix) {
            let rest = rest.to_string();
            let drain = std::thread::spawn(move || {
                let _ = log.read_to_string(&mut seen);
                seen
            });
            return (rest, drain);
        }
    }
}

/// Waits for `child` on its own thread, collecting its stdout as it goes.
fn collect(child: Child) -> JoinHandle<Output> {
    std::thread::spawn(move || child.wait_with_output().expect("wait for rfdump"))
}

/// A `serve --expect 3` at `--workers workers` with three sources sending
/// the trace at once; returns each source's `watch --source` stdout.
fn fleet(workers: &str) -> Vec<(&'static str, Vec<u8>)> {
    let trace = mixed_trace().to_str().unwrap();
    let mut serve = command(None)
        .args(["serve", "--listen", "127.0.0.1:0", "--fleet"])
        .args(["--expect", "3", "--workers", workers, "-q"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rfdump serve");
    let (addr, serve_log) = announced(&mut serve, "rfdump: serving on ");

    // Every filtered watcher is subscribed before any source streams.
    let watchers: Vec<_> = SOURCES
        .iter()
        .map(|s| {
            let mut watch = command(None)
                .args(["watch", "--connect", &addr, "--source", s])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn rfdump watch");
            let (_, log) = announced(&mut watch, "rfdump: watching ");
            (*s, collect(watch), log)
        })
        .collect();

    let senders: Vec<_> = SOURCES
        .iter()
        .map(|s| {
            let send = command(None)
                .args(["send", "--connect", &addr, "--rate", "max"])
                .args(["--source", s, trace])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn rfdump send");
            (*s, collect(send))
        })
        .collect();
    for (s, send) in senders {
        let out = send.join().unwrap();
        assert!(
            out.status.success(),
            "sender {s} failed (workers {workers}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // --expect 3: the server exits on its own once every source is done.
    let status = serve.wait().expect("wait for rfdump serve");
    let log = serve_log.join().unwrap();
    assert!(status.success(), "serve failed (workers {workers}):\n{log}");
    watchers
        .into_iter()
        .map(|(s, watch, log)| {
            let out = watch.join().unwrap();
            let log = log.join().unwrap();
            assert!(
                out.status.success(),
                "watch --source {s} failed (workers {workers}):\n{log}"
            );
            (s, out.stdout)
        })
        .collect()
}

#[test]
fn every_source_of_a_fleet_prints_the_offline_record_stream() {
    let trace = mixed_trace().to_str().unwrap();
    let offline = rfdump(None, &["-r", trace, "--workers", "0"]).stdout;
    let text = String::from_utf8_lossy(&offline);
    assert!(
        text.contains(" 802.11 ") && text.contains(" bluetooth "),
        "the trace must yield Wi-Fi and Bluetooth records:\n{text}"
    );
    for workers in ["0", "4"] {
        for (s, got) in fleet(workers) {
            assert!(
                got == offline,
                "source {s} stream differs from the offline run (--workers {workers}):\n\
                 --- offline\n{text}\n--- {s}\n{}",
                String::from_utf8_lossy(&got)
            );
        }
    }
}
