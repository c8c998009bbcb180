//! The governor's pinned shed levels, end to end through the release
//! binary: `--governor 0` sheds nothing, `--governor 1` sheds exactly the
//! demodulation `-n` turns off, and `--governor 2` prints the same record
//! stream inline and on four pool threads. A latency budget the pipeline
//! never violates sheds nothing either. Checked on the two committed
//! goldens and on the generated Wi-Fi + Bluetooth trace.

mod common;

use common::{mixed_trace, rfdump, workdir};
use rfd_telemetry::json::parse;
use std::path::{Path, PathBuf};

/// The committed golden traces and the generated mixed trace.
fn traces() -> Vec<PathBuf> {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    vec![
        golden.join("wifi.rfdt"),
        golden.join("bluetooth.rfdt"),
        mixed_trace().clone(),
    ]
}

/// Stdout of `rfdump -r TRACE -p 9E8B33:47 --workers W` plus `extra`.
fn records(trace: &Path, workers: &str, extra: &[&str]) -> Vec<u8> {
    let trace = trace.to_str().unwrap();
    let mut args = vec!["-r", trace, "-p", "9E8B33:47", "--workers", workers];
    args.extend_from_slice(extra);
    rfdump(None, &args).stdout
}

fn assert_same(label: &str, want: &[u8], got: &[u8]) {
    assert!(
        got == want,
        "{label}:\n--- want\n{}\n--- got\n{}",
        String::from_utf8_lossy(want),
        String::from_utf8_lossy(got)
    );
}

#[test]
fn level_zero_prints_the_ungoverned_stream() {
    for trace in traces() {
        for w in ["0", "4"] {
            let plain = records(&trace, w, &[]);
            assert!(!plain.is_empty(), "{trace:?} printed no records");
            let got = records(&trace, w, &["--governor", "0"]);
            assert_same(
                &format!("--governor 0 on {trace:?} at --workers {w}"),
                &plain,
                &got,
            );
        }
    }
}

#[test]
fn level_one_prints_the_detection_only_stream() {
    for trace in traces() {
        for w in ["0", "4"] {
            let detect_only = records(&trace, w, &["-n"]);
            assert!(!detect_only.is_empty(), "{trace:?} printed no records");
            let got = records(&trace, w, &["--governor", "1"]);
            assert_same(
                &format!("--governor 1 vs -n on {trace:?} at --workers {w}"),
                &detect_only,
                &got,
            );
        }
    }
}

#[test]
fn level_two_is_worker_count_independent() {
    for trace in traces() {
        let inline = records(&trace, "0", &["--governor", "2"]);
        let pooled = records(&trace, "4", &["--governor", "2"]);
        assert_same(
            &format!("--governor 2 on {trace:?}, --workers 4 vs 0"),
            &inline,
            &pooled,
        );
    }
}

#[test]
fn a_generous_latency_budget_is_record_invisible() {
    for (i, trace) in traces().iter().enumerate() {
        let plain = records(trace, "0", &[]);
        for w in ["0", "4"] {
            let stats = workdir().join(format!("latency-stats-{i}-w{w}.json"));
            let got = records(
                trace,
                w,
                &[
                    "--latency-budget",
                    "60000",
                    "--stats-json",
                    stats.to_str().unwrap(),
                ],
            );
            let label = format!("--latency-budget 60000 on {trace:?} at --workers {w}");
            assert_same(&label, &plain, &got);
            // The armed-but-idle latency_mode of the current document:
            // zero violations, and no chunk rung.
            let text = std::fs::read_to_string(&stats).unwrap();
            assert!(text.contains("\"version\":13"), "{label}: {text}");
            assert!(text.contains("\"violations\":0"), "{label}: {text}");
            let doc = parse(&text).unwrap();
            let mode = doc.get("latency_mode").unwrap();
            assert_eq!(
                mode.get("budget_us").and_then(|b| b.as_f64()),
                Some(60_000_000.0),
                "{label}"
            );
            assert!(mode.get("chunk").is_none(), "{label}: {text}");
        }
    }
}
