//! Worker-count identity of the release binary: the record stream `rfdump
//! -r` prints is byte-identical whether analysis runs inline (`--workers
//! 0`) or on four pool threads, and attaching a live `--metrics-addr`
//! endpoint (with the ingest stamping it turns on) changes nothing at
//! either count.

mod common;

use common::{mixed_trace, rfdump};

/// Stdout of `rfdump -r <mixed trace> --workers <workers>` plus `extra`.
fn records(workers: &str, extra: &[&str]) -> Vec<u8> {
    let trace = mixed_trace().to_str().unwrap();
    let mut args = vec!["-r", trace, "-p", "9E8B33:47", "--workers", workers];
    args.extend_from_slice(extra);
    rfdump(None, &args).stdout
}

fn assert_same(label: &str, want: &[u8], got: &[u8]) {
    assert!(
        got == want,
        "record stream changed {label}:\n--- workers 0\n{}\n--- {label}\n{}",
        String::from_utf8_lossy(want),
        String::from_utf8_lossy(got)
    );
}

#[test]
fn four_workers_print_the_inline_record_stream() {
    let w0 = records("0", &[]);
    let text = String::from_utf8_lossy(&w0);
    assert!(
        text.contains(" 802.11 ") && text.contains(" bluetooth "),
        "the trace must yield Wi-Fi and Bluetooth records:\n{text}"
    );
    assert_same("at --workers 4", &w0, &records("4", &[]));
}

#[test]
fn a_live_metrics_endpoint_leaves_the_record_stream_alone() {
    let w0 = records("0", &[]);
    for w in ["0", "4"] {
        let got = records(w, &["--metrics-addr", "127.0.0.1:0"]);
        assert_same(&format!("under --metrics-addr at --workers {w}"), &w0, &got);
    }
}
