//! The `stats_inspect` example is the repo's reference `--stats-json`
//! consumer. It reads exactly one schema version, the current one, and
//! refuses every other. This harness feeds it documents of the current
//! version and of its neighbours and checks exactly that.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs the example binary over a document, returning (success, stdout).
fn inspect(doc: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join("rfd-stats-versions");
    std::fs::create_dir_all(&dir).unwrap();
    // Tests run in parallel: every document gets a file of its own.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = dir.join(format!(
        "doc-{}-{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, doc).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_stats_inspect"))
        .arg(&path)
        .output()
        .expect("spawn stats_inspect");
    let _ = std::fs::remove_file(&path);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The only sections the reader hard-requires.
fn minimal_doc(version: u64) -> String {
    format!(
        concat!(
            r#"{{"schema":"rfd-stats","version":{},"#,
            r#""trace":{{"seconds":0.01,"sample_rate":8000000,"samples":80000}},"#,
            r#""total":{{"cpu_ms":1.5,"wall_ms":2.0,"cpu_over_realtime":0.15}}}}"#
        ),
        version
    )
}

#[test]
fn reader_reads_only_the_current_version() {
    assert_eq!(
        rfdump::stats::STATS_VERSION,
        13,
        "a version bump must move this harness to the new version"
    );
    let (ok, stdout) = inspect(&minimal_doc(13));
    assert!(ok, "reader rejected a version-13 document");
    assert!(
        stdout.contains("trace:"),
        "no trace line in output:\n{stdout}"
    );
    let (ok, _) = inspect(&minimal_doc(12));
    assert!(!ok, "a reader must not half-read an older version");
}

#[test]
fn reader_refuses_documents_newer_than_itself() {
    let (ok, _) = inspect(&minimal_doc(rfdump::stats::STATS_VERSION + 1));
    assert!(
        !ok,
        "a reader must not pretend to understand future versions"
    );
}

/// The latency-mode and fleet-shed sections version 11 introduced, in a
/// current-version document.
#[test]
fn v11_latency_mode_sections_are_rendered() {
    let doc = concat!(
        r#"{"schema":"rfd-stats","version":13,"#,
        r#""trace":{"seconds":0.01,"sample_rate":8000000,"samples":80000},"#,
        r#""total":{"cpu_ms":1.5,"wall_ms":2.0,"cpu_over_realtime":0.15},"#,
        r#""latency_mode":{"budget_us":5000,"violations":3,"last_p99_us":6200,"#,
        r#""fleet":{"budget_us":5000,"violations":4,"shed_throttle":2,"#,
        r#""shed_drop":1,"admission_refused":1,"admission_paused":true}},"#,
        r#""fleet":{"sources_joined":1,"sources_done":1,"rejects":0,"per_source":{"#,
        r#""laggy":{"samples_in":1000,"records":4,"fanout_p50_us":10,"#,
        r#""fanout_p99_us":20,"done":true,"health":"healthy","shed":"throttle"}}}}"#
    );
    let (ok, stdout) = inspect(doc);
    assert!(ok, "v13 document rejected:\n{stdout}");
    assert!(
        stdout.contains("latency mode: budget 5.0 ms, 3 violation(s), last windowed p99 6.2 ms"),
        "missing latency-mode line:\n{stdout}"
    );
    assert!(
        stdout.contains("admission PAUSED"),
        "missing fleet admission state:\n{stdout}"
    );
    assert!(
        stdout.contains("[shed: throttle]"),
        "missing per-source shed rung:\n{stdout}"
    );
}

#[test]
fn current_pipeline_document_renders_end_to_end() {
    // No argument: the example generates a live document by running the
    // pipeline itself, so this covers whatever STATS_VERSION now emits.
    let out = Command::new(env!("CARGO_BIN_EXE_stats_inspect"))
        .output()
        .expect("spawn stats_inspect");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-generated run failed:\n{stdout}");
    assert!(stdout.contains("trace:"), "no trace line:\n{stdout}");
    assert!(
        stdout.contains("per-stage CPU"),
        "no stage table:\n{stdout}"
    );
}

#[test]
fn a_budgeted_run_document_renders_its_latency_mode() {
    // A real run under the config `--latency-budget 60000` builds, over
    // the committed Wi-Fi golden, written out as `--stats-json` writes it.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden/wifi.rfdt");
    let (header, samples) = rfd_ether::trace::read_trace(&golden).expect("read the Wi-Fi golden");
    let cfg = rfdump::arch::ArchConfig {
        governor: Some(rfdump::governor::GovernorConfig {
            latency_budget_us: Some(60_000_000.0),
            ..Default::default()
        }),
        ..rfdump::arch::ArchConfig::rfdump(Vec::new())
    };
    let out = rfdump::arch::run_architecture(&cfg, &samples, header.sample_rate);
    let doc = rfdump::stats::stats_json(&out).to_json();
    let (ok, stdout) = inspect(&doc);
    assert!(ok, "budgeted run document rejected:\n{stdout}");
    assert!(
        stdout.contains("latency mode: budget 60000.0 ms, 0 violation(s)"),
        "missing latency-mode line:\n{stdout}"
    );
}
