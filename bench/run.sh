#!/usr/bin/env bash
# The one command of /BENCHMARK.json: builds the release `rfdump` binary and
# the benchmark, then runs one workload (or, without --workload, all five).
#
#   bash bench/run.sh --workload wifi_u60 --seed 2009 --seconds 20 --trace 0
#
# --trace 0 (default) runs perf_baseline: end-to-end metrics, tracing off.
# --trace 1 runs perf_trace: the per-layer traced run on the same workload.
# Everything else is passed through (see bench/README.md: --out FILE keeps a
# result file). The last line of standard output is the result as one JSON
# object; the exit status is non-zero if a build or a correctness check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bin=perf_baseline
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then bin=perf_trace; fi
    prev=$arg
done

# With CARGO_TARGET_DIR set both builds share it; otherwise each workspace
# keeps its own default, so a developer's root build is reused as it is.
root_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-bench/target}

# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin rfdump >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --bin "$bin" >&2

exec "$bench_target/release/$bin" --rfdump "$root_target/release/rfdump" "$@"
