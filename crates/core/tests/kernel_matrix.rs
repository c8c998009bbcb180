//! Kernel-matrix contract of the release binary: `RFD_KERNEL=auto` resolves
//! to the best backend the CPU has, every available backend prints a record
//! stream byte-identical to the auto run, and `--stats-json` names the
//! backend that ran.
//!
//! Each child has `RFD_KERNEL` removed or set explicitly, so the result does
//! not depend on the environment the suite itself runs under (the scalar
//! tier-1 leg sets `RFD_KERNEL=scalar`).

mod common;

use common::{mixed_trace, rfdump, workdir};

/// `rfdump kernel` under auto: (resolved backend, available backends).
fn kernel_report() -> (String, Vec<String>) {
    let out = rfdump(None, &["kernel"]);
    let text = String::from_utf8(out.stdout).unwrap();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no '{key}' line in:\n{text}"))
            .split_whitespace()
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    (field("backend:").concat(), field("available:"))
}

#[test]
fn auto_resolves_to_the_best_available_backend() {
    // A silent fallback to scalar on a SIMD-capable host is a build or
    // dispatch regression, not a preference.
    let (backend, available) = kernel_report();
    let best = if available.iter().any(|b| b == "avx2") {
        "avx2"
    } else {
        "scalar"
    };
    assert_eq!(
        backend, best,
        "auto resolved to {backend}; available {available:?}"
    );
}

#[test]
fn every_backend_prints_the_auto_record_stream() {
    let trace = mixed_trace().to_str().unwrap();
    let args = ["-r", trace, "--workers", "0", "-p", "9E8B33:47"];
    let auto = rfdump(None, &args).stdout;
    let text = String::from_utf8_lossy(&auto);
    assert!(
        text.contains(" 802.11 ") && text.contains(" bluetooth "),
        "the trace must yield Wi-Fi and Bluetooth records:\n{text}"
    );
    let (_, available) = kernel_report();
    for b in &available {
        let got = rfdump(Some(b), &args).stdout;
        assert!(
            got == auto,
            "record stream diverged under RFD_KERNEL={b}:\n--- auto\n{text}\n--- {b}\n{}",
            String::from_utf8_lossy(&got)
        );
    }
}

#[test]
fn an_unrecognized_kernel_warns_once_and_runs_auto() {
    // `sse2` is no backend name, so it takes the unrecognized path.
    let trace = mixed_trace().to_str().unwrap();
    let args = ["-r", trace, "--workers", "0", "-p", "9E8B33:47"];
    let auto = rfdump(None, &args).stdout;
    let out = rfdump(Some("sse2"), &args);
    assert!(
        out.stdout == auto,
        "record stream diverged under RFD_KERNEL=sse2:\n--- auto\n{}\n--- sse2\n{}",
        String::from_utf8_lossy(&auto),
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings = stderr
        .lines()
        .filter(|l| l.starts_with("rfd-dsp: unrecognized RFD_KERNEL=sse2"))
        .count();
    assert_eq!(warnings, 1, "stderr:\n{stderr}");
}

#[test]
fn stats_json_reports_the_backend_that_ran() {
    let trace = mixed_trace().to_str().unwrap();
    let stats = workdir().join("stats-scalar.json");
    rfdump(
        Some("scalar"),
        &["-r", trace, "-q", "--stats-json", stats.to_str().unwrap()],
    );
    let doc = std::fs::read_to_string(&stats).unwrap();
    assert!(
        doc.contains(r#""backend":"scalar""#),
        "stats json did not report the scalar kernel backend:\n{doc}"
    );
}
