//! The naïve baselines through the release binary. `rfdump -r` pushes a
//! trace into its session `PUSH_SAMPLES` at a time, a split the library's
//! golden test (`tests/golden_traces.rs`, one `run_architecture` call) does
//! not take, and must still print each committed naïve snapshot exactly;
//! and a naïve run's `--stats-json` document passes the rfd-stats schema
//! and version check `stats_inspect` makes.

mod common;

use common::{mixed_trace, rfdump, workdir};
use rfd_telemetry::json::parse;
use rfdump::stats::{STATS_SCHEMA, STATS_VERSION};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

#[test]
fn each_naive_baseline_prints_its_golden_snapshot() {
    for t in ["wifi", "bluetooth"] {
        for a in ["naive", "naive-energy"] {
            let trace = format!("{GOLDEN}/{t}.rfdt");
            let args = ["-r", &trace, "-a", a, "-p", "9E8B33:47", "--workers", "0"];
            let got = rfdump(None, &args).stdout;
            let want = std::fs::read(format!("{GOLDEN}/{t}.{a}.expected")).unwrap();
            assert!(
                got == want,
                "-a {a} diverged from its golden snapshot on {t}.rfdt:\n{}",
                String::from_utf8_lossy(&got)
            );
        }
    }
}

#[test]
fn a_naive_run_writes_a_stats_document_the_reader_accepts() {
    let path = workdir().join("stats-naive.json");
    let trace = mixed_trace().to_str().unwrap();
    let args = ["-r", trace, "-a", "naive", "-q", "-s"];
    rfdump(
        None,
        &[&args[..], &["--stats-json", path.to_str().unwrap()]].concat(),
    );
    let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(STATS_SCHEMA),
        "not an rfd-stats document"
    );
    assert_eq!(
        doc.get("version").and_then(|v| v.as_f64()),
        Some(STATS_VERSION as f64)
    );
    for section in ["trace", "total"] {
        assert!(doc.get(section).is_some(), "no {section} section");
    }
    let blocks = doc.get("blocks").and_then(|b| b.as_arr()).expect("blocks");
    let names: Vec<_> = blocks
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(names[0], "demod:wifi-continuous", "{names:?}");
    assert_eq!(names.len(), 8, "one row per receiver: {names:?}");
}
