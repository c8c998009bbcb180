#!/usr/bin/env bash
# CI gate for the rfdump workspace. Runs entirely offline:
#   1. formatting and lints (rustfmt, clippy -D warnings, rustdoc -D warnings)
#   2. tier-1: release build + full test suite, on the inline pool
#      (RFD_WORKERS=0: analysis tasks run on the scheduler thread) and
#      again on four pool worker threads (RFD_WORKERS=4) — the pipeline
#      must be deterministic across both —
#      and a third pass pinned to the scalar reference kernels
#      (RFD_KERNEL=scalar); the default legs run whatever SIMD backend
#      the host resolves, so together they cover the kernel matrix
#   3. a smoke run of the rfdump CLI over a tiny generated .rfdt trace,
#      checking that --stats-json emits a document the in-repo parser and
#      schema checks accept (for -a naive too), that -a naive and -a
#      naive-energy print their committed golden snapshots, and that no
#      fused multiply-add appears in the kernel layer or the resampler
#      (the kernel-matrix identity, the plain serve/send loopback and the
#      --workers 0 vs --workers 4 record identity are tier-1,
#      crates/core/tests/{kernel_matrix,loopback,worker_identity}.rs).
#   4. chaos smokes: the suite again under an ambient output-preserving
#      RFD_FAULTS plan, a serve/send loopback with injected producer
#      disconnects diffed against offline output, and a SIGINT shutdown
#      that must flush --stats-json and exit 0.
#   5. observability smoke: a live serve endpoint must answer /metrics
#      with parseable Prometheus 0.0.4 text carrying the expected metric
#      families (that a --metrics-addr endpoint leaves the record stream
#      byte-identical is tier-1, crates/core/tests/worker_identity.rs).
#   6. fleet smoke: a `watch --source` for a source that never joins must
#      drain the stream and exit nonzero with a clean message (that three
#      concurrent --source senders each get a `watch --source` stream
#      byte-identical to the offline run, at --workers 0 and 4, is tier-1,
#      crates/core/tests/fleet_identity.rs).
#   7. fleet survivability smokes: a churn leg that aborts one of three
#      fleet senders mid-stream and restarts it with `send --source
#      --retries` — the restarted process re-handshakes with its source id,
#      the server resumes the parked session, and every per-source stream
#      must stay byte-identical to the offline run — and a quarantine leg
#      where a garbage-flooding sender is quarantined by the health machine
#      while the clean sources drain unharmed.
#   8. fleet overload smoke: a --fleet server under a --latency-budget and
#      an injected per-source cpu fault must book budget violations and
#      shed only the starved source — budget_violated/source_shed events
#      in stats-json — while the clean source's stream still diffs
#      byte-identical to the offline run (that a generous offline budget is
#      record-invisible at --workers 0 and 4, with zero violations in the
#      current stats document, is tier-1,
#      crates/core/tests/governor_levels.rs; that stats_inspect renders a
#      budgeted run's latency mode is examples/tests/stats_versions.rs).
#   9. the repo benchmark's hard checks (BENCHMARK.json, bench/): its unit
#      tests, a compile gate on perf_trace (the library API surface the
#      benchmark links against), and one short bench/run.sh per workload,
#      which fails on a truth mismatch, on iterations that disagree, or on
#      a live/fleet stream that differs from `rfdump -r`. No timing is
#      compared; the three offline runs must peak under 64 MB resident
#      (memory constant in trace length). bench/ builds --locked and the
#      step ends by requiring bench/ and BENCHMARK.json to be unchanged in
#      git.
set -euo pipefail
cd "$(dirname "$0")"

# start_serve STDOUT LOG WHAT [serve args...]: spawns `rfdump serve` in the
# background (stdout to STDOUT, stderr to LOG, pid in $serve_pid) and
# returns once it has announced its address; fails the run as "WHAT never
# came up ..." if it exits or stays silent for 10 s.
start_serve() {
    local out=$1 log=$2 what=$3
    shift 3
    ./target/release/rfdump serve "$@" > "$out" 2> "$log" < /dev/null &
    serve_pid=$!
    for _ in $(seq 1 100); do
        if grep -q "serving on" "$log" 2>/dev/null; then return 0; fi
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.1
    done
    cat "$log" >&2 || true
    echo "$what"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}

# wait_gone LOG WHAT: waits for $serve_pid to exit on its own (a bounded run
# that ended, or a SIGINT just sent) and fails the run as WHAT unless it
# does so within 30 s with status 0.
wait_gone() {
    local log=$1 what=$2 rc=0
    for _ in $(seq 1 300); do
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        rc=timeout
    else
        wait "$serve_pid" || rc=$?
    fi
    if [ "$rc" != 0 ]; then
        cat "$log" >&2 || true
        echo "$what (exit: $rc)"
        exit 1
    fi
}

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
# Broken intra-doc links, bare URLs and redundant link targets fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: build + test (RFD_WORKERS=0) =="
cargo build --release
RFD_WORKERS=0 cargo test -q

echo "== tier-1: test again on the analysis pool (RFD_WORKERS=4) =="
RFD_WORKERS=4 cargo test -q

echo "== tier-1: test again on the scalar reference kernels (RFD_KERNEL=scalar) =="
# The two legs above ran under RFD_KERNEL=auto (the host's best SIMD
# backend); this one pins the scalar reference so a vectorized-kernel bug
# can never hide behind the backend both legs happened to pick.
RFD_KERNEL=scalar RFD_WORKERS=0 cargo test -q

echo "== smoke: rfdump --stats-json on a generated trace =="
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# trace_record_replay writes rfdump-example.rfdt into $TMPDIR; RFD_KEEP_TRACE
# stops it from cleaning the file up so the CLI can replay it.
TMPDIR="$work" RFD_KEEP_TRACE=1 \
    cargo run --release -q -p rfd-examples --bin trace_record_replay >/dev/null
trace="$work/rfdump-example.rfdt"
[ -f "$trace" ] || { echo "trace file not generated"; exit 1; }

./target/release/rfdump -r "$trace" -q -s \
    --stats-json "$work/stats.json" --trace-out "$work/spans.json"
[ -s "$work/stats.json" ] || { echo "stats json empty"; exit 1; }
[ -s "$work/spans.json" ] || { echo "span trace empty"; exit 1; }

# stats_inspect parses the document with the in-repo codec and asserts the
# rfd-stats schema/version before printing; a malformed document fails here.
cargo run --release -q -p rfd-examples --bin stats_inspect "$work/stats.json" >/dev/null

# The naïve baselines: each prints its golden snapshot, and a naïve run's
# stats document passes the same inspector.
for t in wifi bluetooth; do
    for a in naive naive-energy; do
        ./target/release/rfdump -r "tests/golden/$t.rfdt" -a "$a" -p 9E8B33:47 \
            --workers 0 2>/dev/null | diff -u "tests/golden/$t.$a.expected" - \
            || { echo "-a $a diverged from its golden snapshot on $t.rfdt"; exit 1; }
    done
done
./target/release/rfdump -r "$trace" -a naive -q -s --stats-json "$work/stats-naive.json" \
    2>/dev/null
cargo run --release -q -p rfd-examples --bin stats_inspect "$work/stats-naive.json" >/dev/null

echo "== reference record stream (--workers 0) =="
# The later smokes diff against this run. That --workers 4 prints it too is
# tier-1 (crates/core/tests/worker_identity.rs).
./target/release/rfdump -r "$trace" --workers 0 > "$work/records-w0.txt"

echo "== kernel layer: no fused multiply-add =="
# A fused multiply-add rounds once where the scalar reference rounds twice,
# so one in a vector backend, the resampler, the running power or the peak
# detector's exact-tie fallback changes bits silently. (That every backend
# prints the same record stream is tier-1: crates/core/tests/kernel_matrix.rs.)
if grep -rnE 'fmadd|fmsub|\.mul_add\(|enable = "[^"]*fma' \
    crates/dsp/src/kernels/ crates/dsp/src/resample.rs \
    crates/dsp/src/energy.rs crates/core/src/peak.rs; then
    echo "FMA in the kernel layer breaks the bit-exactness contract"
    exit 1
fi

echo "== smoke: crash + --resume recovers a byte-identical stream =="
# A journaled run is killed mid-flight by an injected abort; the --resume
# run must replay the journal and print exactly the uninterrupted stream.
for w in 0 4; do
    jdir="$work/journal-w$w"
    if ./target/release/rfdump -r "$trace" --workers "$w" --journal "$jdir" \
        --chaos "kill=detect#12" > /dev/null 2>&1; then
        echo "kill fault did not abort the journaled run (workers $w)"
        exit 1
    fi
    ./target/release/rfdump -r "$trace" --workers "$w" --journal "$jdir" \
        --resume --stats-json "$work/resume-stats.json" \
        > "$work/records-resumed.txt" 2> "$work/resume-log.txt"
    if ! diff -u "$work/records-w0.txt" "$work/records-resumed.txt"; then
        cat "$work/resume-log.txt" >&2 || true
        echo "resumed record stream differs from the uninterrupted run (workers $w)"
        exit 1
    fi
done
grep -q "resumed from journal" "$work/resume-log.txt" \
    || { echo "resume did not report recovery"; exit 1; }
# The v5 stats document carries a recovery section; the inspector must
# accept and render it. (Render to a file: `| grep -q` would close the
# pipe at the first match and break the inspector's remaining output.)
cargo run --release -q -p rfd-examples --bin stats_inspect "$work/resume-stats.json" \
    > "$work/resume-inspect.txt"
grep -q "recovery:" "$work/resume-inspect.txt" \
    || { echo "stats_inspect did not render recovery"; exit 1; }

echo "== fleet smoke: a watch for an absent source fails cleanly =="
# (Three concurrent senders whose per-source streams must equal the offline
# run are tier-1: crates/core/tests/fleet_identity.rs.)
fleet_port=17103
# A watch for a source that never joins must drain the stream and fail
# with a clean nonzero exit.
start_serve /dev/null "$work/serve-fleet-absent-log.txt" \
    "absent-source server never came up on port $fleet_port" \
    --listen "127.0.0.1:$fleet_port" --fleet --expect 1 --workers 0 -q
./target/release/rfdump watch --connect "127.0.0.1:$fleet_port" --source ghost \
    > /dev/null 2> "$work/fleet-ghost-log.txt" &
watch_pid=$!
# The watcher announces its subscription once the server has acked it.
subscribed=0
for _ in $(seq 1 100); do
    if grep -q "rfdump: watching" "$work/fleet-ghost-log.txt" 2>/dev/null; then
        subscribed=1
        break
    fi
    kill -0 "$watch_pid" 2>/dev/null || break
    sleep 0.1
done
if [ "$subscribed" = 0 ]; then
    cat "$work/fleet-ghost-log.txt" >&2 || true
    echo "watch never announced its subscription"
    kill "$watch_pid" "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/rfdump send --connect "127.0.0.1:$fleet_port" --rate max \
    --source real "$trace" 2>/dev/null
wait_gone "$work/serve-fleet-absent-log.txt" "absent-source server exited nonzero"
rc=0
wait "$watch_pid" || rc=$?
if [ "$rc" = 0 ]; then
    echo "watch --source ghost should have exited nonzero"
    exit 1
fi
grep -q "never appeared" "$work/fleet-ghost-log.txt" \
    || { echo "absent-source watch did not explain itself"; exit 1; }

echo "== fleet churn smoke: kill one sender mid-stream, restart with --retries =="
# One of three fleet sources is aborted by an injected kill fault, then
# restarted as a fresh process with `send --source --retries`: the restart
# re-handshakes with the same source id, the server resumes the parked
# session from its committed sample, and every per-source stream must
# still be byte-identical to the offline run — sequential and pooled.
churn_port=17110
for w in 0 4; do
    port=$churn_port
    churn_port=$((churn_port + 1))
    start_serve /dev/null "$work/serve-churn-log-w$w.txt" \
        "churn server never came up on port $port (workers $w)" \
        --listen "127.0.0.1:$port" --fleet --expect 3 \
        --resume-grace 10 --workers "$w" -q \
        --stats-json "$work/churn-stats-w$w.json"
    watch_pids=""
    for s in alpha beta gamma; do
        ./target/release/rfdump watch --connect "127.0.0.1:$port" --source "$s" \
            --wait-source 30 \
            > "$work/churn-$s-w$w.txt" 2> "$work/churn-$s-log-w$w.txt" &
        watch_pids="$watch_pids $!"
    done
    sleep 0.5
    send_pids=""
    for s in alpha beta; do
        ./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
            --source "$s" "$trace" 2>/dev/null &
        send_pids="$send_pids $!"
    done
    # The gamma sender is aborted outright on its 4th chunk — a process
    # death, not a recoverable socket error, so --retries cannot save it...
    if ./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
        --source gamma --retries 5 --chunk 1024 \
        --chaos "seed=3;kill=net.send.chunk#4" "$trace" 2>/dev/null; then
        echo "kill fault did not abort the gamma sender (workers $w)"
        exit 1
    fi
    # ...and restarted within the grace window: the fresh process carries no
    # session state, only the source id, and must resume where gamma died.
    ./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
        --source gamma --retries 5 --chunk 1024 "$trace" 2>/dev/null \
        || { echo "restarted gamma sender failed (workers $w)"; exit 1; }
    for pid in $send_pids; do
        wait "$pid" || { echo "steady fleet sender failed (workers $w)"; exit 1; }
    done
    # --expect 3: the server exits on its own once all sources finalize.
    wait_gone "$work/serve-churn-log-w$w.txt" "churn server exited nonzero (workers $w)"
    for pid in $watch_pids; do
        wait "$pid" || { echo "churn watch exited nonzero (workers $w)"; exit 1; }
    done
    for s in alpha beta gamma; do
        if ! diff -u "$work/records-w0.txt" "$work/churn-$s-w$w.txt"; then
            echo "churn source $s stream differs from the offline run (workers $w)"
            exit 1
        fi
    done
    # The stats document must account for the resume.
    grep -q '"resumes":1' "$work/churn-stats-w$w.json" \
        || { echo "stats json did not report the gamma resume (workers $w)"; exit 1; }
done

echo "== fleet quarantine smoke: garbage-flooding sender is quarantined =="
# A sender whose every chunk is corrupted on the wire racks up per-source
# decode errors until the health machine quarantines its source id; its
# re-handshakes are then refused and the sender must give up with a clean
# nonzero exit, while the clean sources drain byte-identically.
port=17112
start_serve /dev/null "$work/serve-quarantine-log.txt" \
    "quarantine server never came up on port $port" \
    --listen "127.0.0.1:$port" --fleet --expect 3 \
    --workers 0 -q --stats-json "$work/quarantine-stats.json"
watch_pids=""
for s in alpha beta; do
    ./target/release/rfdump watch --connect "127.0.0.1:$port" --source "$s" \
        --wait-source 30 \
        > "$work/quarantine-$s.txt" 2> /dev/null &
    watch_pids="$watch_pids $!"
done
sleep 0.5
rc=0
./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
    --source noisy --retries 6 --chunk 1024 \
    --chaos "seed=2;corrupt=net.send.chunk@1" "$trace" 2>/dev/null || rc=$?
if [ "$rc" = 0 ]; then
    echo "garbage-flooding sender should have exited nonzero"
    exit 1
fi
for s in alpha beta; do
    ./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
        --source "$s" "$trace" 2>/dev/null \
        || { echo "clean fleet sender $s failed beside the quarantine"; exit 1; }
done
# --expect 3: quarantine finalizes the noisy source with whatever landed
# before the cutoff, so it still counts as done and the bounded run
# terminates once the two clean sources drain.
wait_gone "$work/serve-quarantine-log.txt" "quarantine server exited nonzero"
for pid in $watch_pids; do
    wait "$pid" || { echo "quarantine watch exited nonzero"; exit 1; }
done
for s in alpha beta; do
    if ! diff -u "$work/records-w0.txt" "$work/quarantine-$s.txt"; then
        echo "clean source $s stream differs beside a quarantined sender"
        exit 1
    fi
done
grep -q '"health":"quarantined"' "$work/quarantine-stats.json" \
    || { echo "stats json did not report the quarantined source"; exit 1; }

echo "== fleet overload smoke: cpu chaos on one source, the clean one diffs clean =="
# One source's private analysis consumer spins 10 ms on every chunk it
# pops (an injected cpu fault at its fleet analysis site), blowing the
# 100 ms deadline budget sweep after sweep. The overload ladder must book
# budget violations and shed only the starved source — budget_violated and
# source_shed events land in the stats document — while the unfaulted
# source stays under budget and its watch stream diffs byte-identical to
# the offline run.
port=17113
start_serve /dev/null "$work/serve-overload-log.txt" \
    "overload server never came up on port $port" \
    --listen "127.0.0.1:$port" --fleet --expect 2 \
    --latency-budget 100 --queue-cap 32 --workers 0 -q \
    --chaos "seed=11;cpu=net.fleet.analysis.laggy/10ms" \
    --stats-json "$work/overload-stats.json"
# Watch the clean source only — the starved one's stream is legitimately
# degraded by drop-oldest shedding, and that visibility is the point.
./target/release/rfdump watch --connect "127.0.0.1:$port" --source quick \
    --wait-source 30 \
    > "$work/overload-quick.txt" 2> "$work/overload-quick-log.txt" &
watch_pid=$!
sleep 0.5
send_pids=""
for s in laggy quick; do
    ./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
        --source "$s" --chunk 1024 "$trace" 2>/dev/null &
    send_pids="$send_pids $!"
done
for pid in $send_pids; do
    wait "$pid" || { echo "overload fleet sender failed"; exit 1; }
done
# --expect 2: the server exits on its own once both sources finalize.
wait_gone "$work/serve-overload-log.txt" "overload server exited nonzero"
wait "$watch_pid" || { echo "overload watch exited nonzero"; exit 1; }
if ! diff -u "$work/records-w0.txt" "$work/overload-quick.txt"; then
    echo "clean source stream differs beside a cpu-starved source"
    exit 1
fi
grep -q '"kind":"budget_violated"' "$work/overload-stats.json" \
    || { echo "stats json carries no budget_violated event"; exit 1; }
grep -q '"kind":"source_shed"' "$work/overload-stats.json" \
    || { echo "stats json carries no source_shed event"; exit 1; }

echo "== chaos smoke: full test suite under an output-preserving fault plan =="
# Latency-only faults (slow analyzers, CPU pressure at the detection stage)
# may change timing but never the record stream, so the whole suite —
# including the golden and differential tests — must still pass unchanged.
RFD_FAULTS="seed=7;slow=analyze@0.02/100us;cpu=detect@0.01/100us" \
    RFD_WORKERS=2 cargo test -q

echo "== chaos smoke: loopback with injected producer disconnects =="
port=17100
start_serve "$work/records-chaos.txt" "$work/serve-chaos-log.txt" \
    "chaos server never came up on port $port" \
    --listen "127.0.0.1:$port" --once --workers 0 --resume-grace 10
# The sender's connection is dropped on every 7th chunk, three times; it
# must reconnect, resume from the acknowledged sample, and the delivered
# record stream must still be byte-identical to the offline run.
./target/release/rfdump send --connect "127.0.0.1:$port" --rate max \
    --chaos "seed=3;disconnect=net.send.chunk%7x3" "$trace"
wait_gone "$work/serve-chaos-log.txt" "chaos server exited nonzero"
if ! diff -u "$work/records-w0.txt" "$work/records-chaos.txt"; then
    echo "chaos loopback record stream differs from the offline run"
    exit 1
fi

echo "== clean shutdown: SIGINT flushes --stats-json and exits 0 =="
port=17101
start_serve /dev/null "$work/serve-int-log.txt" \
    "shutdown-test server never came up on port $port" \
    --listen "127.0.0.1:$port" --workers 0 -q --stats-json "$work/serve-stats.json"
./target/release/rfdump send --connect "127.0.0.1:$port" --rate max "$trace"
# Give the session a moment to finalize, then interrupt the server.
sleep 1
kill -INT "$serve_pid"
wait_gone "$work/serve-int-log.txt" "serve did not exit 0 after SIGINT"
[ -s "$work/serve-stats.json" ] || { echo "stats json not flushed on SIGINT"; exit 1; }
cargo run --release -q -p rfd-examples --bin stats_inspect "$work/serve-stats.json" >/dev/null

echo "== observability smoke: live /metrics scrape off a serving endpoint =="
# A server with --metrics-addr ingests one session; the endpoint must then
# answer /metrics with strictly parseable 0.0.4 text (scrape_check runs the
# in-repo validator) carrying the volume counters, the event-log counters
# and the per-stage latency waterfall. rfdump top must render it too.
port=17102
# (The metrics endpoint is bound, and announced, before the ingest port.)
start_serve /dev/null "$work/serve-obs-log.txt" \
    "metrics-smoke server never came up on port $port" \
    --listen "127.0.0.1:$port" --workers 0 -q --metrics-addr 127.0.0.1:0
mport="$(sed -n 's/^rfdump: metrics on //p' "$work/serve-obs-log.txt" | head -n1)"
[ -n "$mport" ] || { echo "could not discover metrics address"; kill "$serve_pid"; exit 1; }
./target/release/rfdump send --connect "127.0.0.1:$port" --rate max "$trace"
sleep 1
cargo run --release -q -p rfd-examples --bin scrape_check -- "$mport" > "$work/scrape.txt" \
    || { echo "scrape failed or payload not parseable"; kill "$serve_pid"; exit 1; }
for family in rfd_net_samples_in rfd_net_records_published rfd_events_emitted \
    rfd_peaks_detected rfd_latency_detect_us rfd_latency_analyze_us \
    rfd_latency_e2e_us rfd_latency_net_fanout_us; do
    grep -q "^# TYPE $family " "$work/scrape.txt" \
        || { echo "metric family $family missing from scrape"; kill "$serve_pid"; exit 1; }
done
./target/release/rfdump top --connect "$mport" --once > "$work/top.txt" \
    || { echo "rfdump top --once failed"; kill "$serve_pid"; exit 1; }
grep -q "stage latency" "$work/top.txt" \
    || { echo "rfdump top did not render the latency table"; kill "$serve_pid"; exit 1; }
kill -INT "$serve_pid"
wait_gone "$work/serve-obs-log.txt" "metrics-smoke serve did not exit 0 after SIGINT"

echo "== benchmark hard checks: bench/ tests, perf_trace builds, five workloads correct =="
# The benchmark is its own workspace that the tier-1 legs never compile, and
# it is what judges a PR after submission: a PR that breaks its build or a
# byte-identity check should hear it here first. Sharing the root target
# directory lets run.sh reuse the rfdump binary built above. --locked: the
# benchmark's lockfile is part of the tree a PR may not edit, so a build
# that would rewrite it must fail here, not pass and leave a dirty file.
bench_target="$PWD/target"
CARGO_TARGET_DIR="$bench_target" cargo test -q --offline --locked \
    --manifest-path bench/Cargo.toml
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline --locked \
    --manifest-path bench/Cargo.toml --bin perf_trace
for workload in wifi_u60 quiet_u05 mix_wifi_bt live_rt_u60 fleet_max_quiet_x2; do
    result="$(CARGO_TARGET_DIR="$bench_target" bash bench/run.sh \
        --workload "$workload" --seed 2009 --seconds 1 --trace 0 | tail -n1)" \
        || { echo "benchmark workload $workload failed a hard check"; exit 1; }
    # Memory is constant in capture length: `rfdump -r` peaks near 8 MB on
    # 8, 12 and 16 Msample files alike (it repeats to 0.1 MB), where holding
    # the trace costs 16.5 B per sample — 135 MB for the shortest of them.
    case "$workload" in wifi_u60|quiet_u05|mix_wifi_bt)
        rss="$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9]*\).*/\1/p' <<<"$result")"
        [ -n "$rss" ] && [ "$rss" -lt 64 ] || {
            echo "$workload: peak_rss_mb '$rss' is not under 64: something holds the whole trace"
            exit 1
        } ;;
    esac
done
test -z "$(git status --porcelain -- bench BENCHMARK.json)" || {
    echo "bench/ or BENCHMARK.json changed during the run; the likely cause is a new"
    echo "crate -> crate dependency edge in the workspace, which makes cargo rewrite"
    echo "bench/Cargo.lock:"
    git status --porcelain -- bench BENCHMARK.json
    exit 1
}

echo "ci: all checks passed"
