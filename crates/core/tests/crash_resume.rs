//! Crash/resume durability contract: a run killed mid-flight and resumed
//! with `--resume` must print a record stream byte-identical to the same
//! run left uninterrupted — at every kill site and offset, at workers 0 and
//! 4, and even when the crash and the resume use different worker counts.
//!
//! Crashes are injected with the rfd-fault `kill` kind (a hard
//! `std::process::abort`, no destructors), which is as close to `kill -9`
//! as a self-inflicted fault gets.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// Where the run dies, and at which offsets (k-th evaluation of the fault
/// site): between peaks in the detection stage, inside an analyzer task (on
/// a pool worker, or inline at workers 0), and halfway through appending a
/// COMMIT entry, which leaves a torn journal tail. Offsets spread from
/// "barely started" to "most of the trace analyzed" so recovery is exercised
/// with empty, partial, and near-complete journals; the trace has 30 peaks
/// and, at workers 0, 18 commits.
const KILLS: [(&str, [u32; 5]); 3] = [
    ("detect", [4, 8, 12, 16, 20]),
    ("analyze:wifi-demod", [4, 8, 12, 16, 20]),
    ("journal.commit", [1, 2, 4, 8, 16]),
];

/// This suite's scratch directory under cargo's target tmp dir, emptied on
/// first use: one per suite, reclaimed by `cargo clean`.
fn workdir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("rfd-crash-resume");
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    })
}

/// A scaled-down campus trace (paper §5.3 shape): multiple 802.11 rates,
/// unicast ACKs, realistic idle gaps — enough records that a mid-run kill
/// leaves real journaled state behind.
fn trace_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let (trace, _) = rfd_ether::campus::campus_trace(&rfd_ether::campus::CampusConfig {
            duration_us: 120_000.0,
            n_r1: 2,
            r1_payload: 400,
            n_r2: 6,
            n_r55: 6,
            n_r11: 6,
            ..Default::default()
        });
        let path = workdir().join("campus.rfdt");
        rfd_ether::trace::write_trace(&path, trace.band.sample_rate, 0.0, &trace.samples).unwrap();
        path
    })
}

fn rfdump(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfdump"))
        .args(args)
        .output()
        .expect("spawn rfdump")
}

fn baseline(workers: &str) -> Vec<u8> {
    let trace = trace_path().to_str().unwrap().to_string();
    let out = rfdump(&["-r", &trace, "--workers", workers]);
    assert!(
        out.status.success(),
        "baseline run failed: {:?}",
        out.status
    );
    assert!(
        !out.stdout.is_empty(),
        "baseline produced no records; the trace is too small to test recovery"
    );
    out.stdout
}

/// Runs the full kill matrix at one worker count: for each site and offset,
/// crash a journaled run, then resume it and demand byte-identity with the
/// uninterrupted baseline.
fn crash_resume_matrix(workers: &str) {
    let trace = trace_path().to_str().unwrap().to_string();
    let base = baseline(workers);
    let matrix = KILLS
        .iter()
        .flat_map(|(site, offsets)| offsets.map(|k| (*site, k)));
    for (site, k) in matrix {
        let journal = workdir().join(format!("journal-w{workers}-{site}-k{k}"));
        let journal = journal.to_str().unwrap();
        let chaos = format!("kill={site}#{k}");
        let crashed = rfdump(&[
            "-r",
            &trace,
            "--workers",
            workers,
            "--journal",
            journal,
            "--chaos",
            &chaos,
        ]);
        // How many COMMIT entries worker threads write depends on how their
        // results batch into drains, so a late `journal.commit#k` may never
        // fire there; the run then ends cleanly and the resume below is a
        // pure replay. Every other count is fixed and the kill must land.
        let timing_dependent = site == "journal.commit" && workers != "0";
        assert!(
            timing_dependent || !crashed.status.success(),
            "kill at {site}#{k} should abort the run, but it exited cleanly"
        );
        let resumed = rfdump(&[
            "-r",
            &trace,
            "--workers",
            workers,
            "--journal",
            journal,
            "--resume",
        ]);
        assert!(
            resumed.status.success(),
            "resume after {site}#{k} failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert!(
            resumed.stdout == base,
            "resumed output diverges from uninterrupted run (workers {workers}, kill {site}#{k}):\n\
             --- baseline ---\n{}\n--- resumed ---\n{}",
            String::from_utf8_lossy(&base),
            String::from_utf8_lossy(&resumed.stdout)
        );
    }
}

#[test]
fn crash_resume_is_byte_identical_at_workers_0() {
    crash_resume_matrix("0");
}

#[test]
fn crash_resume_is_byte_identical_at_workers_4() {
    crash_resume_matrix("4");
}

#[test]
fn journaling_alone_does_not_change_output() {
    let trace = trace_path().to_str().unwrap().to_string();
    let base = baseline("0");
    let journal = workdir().join("journal-clean");
    let out = rfdump(&[
        "-r",
        &trace,
        "--workers",
        "0",
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(out.stdout, base, "journaled run must match unjournaled run");
}

#[test]
fn resume_under_different_worker_count_matches() {
    // A journal written at workers 0 resumes under workers 4 (and vice
    // versa): the fingerprint deliberately excludes scheduling knobs, and
    // the dense dispatch sequence makes the handoff exact.
    let trace = trace_path().to_str().unwrap().to_string();
    let base = baseline("0");
    for (crash_w, resume_w) in [("0", "4"), ("4", "0")] {
        let journal = workdir().join(format!("journal-x{crash_w}{resume_w}"));
        let journal = journal.to_str().unwrap();
        let crashed = rfdump(&[
            "-r",
            &trace,
            "--workers",
            crash_w,
            "--journal",
            journal,
            "--chaos",
            "kill=detect#12",
        ]);
        assert!(!crashed.status.success(), "kill should abort");
        let resumed = rfdump(&[
            "-r",
            &trace,
            "--workers",
            resume_w,
            "--journal",
            journal,
            "--resume",
        ]);
        assert!(
            resumed.status.success(),
            "cross-worker resume failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            resumed.stdout, base,
            "crash at workers {crash_w} / resume at workers {resume_w} diverged"
        );
    }
}

#[test]
fn resume_without_a_crash_replays_the_complete_journal() {
    // Resuming a journal from a run that finished cleanly is pure replay:
    // no re-analysis is needed, and the output is still identical.
    let trace = trace_path().to_str().unwrap().to_string();
    let base = baseline("0");
    let journal = workdir().join("journal-complete");
    let journal = journal.to_str().unwrap();
    let first = rfdump(&["-r", &trace, "--workers", "0", "--journal", journal]);
    assert!(first.status.success());
    let resumed = rfdump(&[
        "-r",
        &trace,
        "--workers",
        "0",
        "--journal",
        journal,
        "--resume",
    ]);
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, base);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed from journal"),
        "resume should report recovery on stderr: {stderr}"
    );
}

#[test]
fn resume_against_a_different_trace_is_refused() {
    // The META fingerprint must catch a journal being replayed against the
    // wrong input: silent cross-trace replay would fabricate records.
    let trace = trace_path().to_str().unwrap().to_string();
    let journal = workdir().join("journal-mismatch");
    let journal_s = journal.to_str().unwrap();
    let crashed = rfdump(&[
        "-r",
        &trace,
        "--workers",
        "0",
        "--journal",
        journal_s,
        "--chaos",
        "kill=detect#8",
    ]);
    assert!(!crashed.status.success());
    // A different trace: same band, different content length.
    let other = workdir().join("other.rfdt");
    let samples = vec![rfd_dsp::Complex32::new(1e-3, 0.0); 40_000];
    rfd_ether::trace::write_trace(&other, 8e6, 0.0, &samples).unwrap();
    let out = rfdump(&[
        "-r",
        other.to_str().unwrap(),
        "--workers",
        "0",
        "--journal",
        journal_s,
        "--resume",
    ]);
    assert!(!out.status.success(), "mismatched resume must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot resume") && stderr.contains("fingerprint"),
        "stderr should explain the mismatch: {stderr}"
    );
}
