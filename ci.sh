#!/bin/sh
# CI gate: formatting, lints (warnings are errors), rustdoc (warnings
# are errors), the release build, the whole workspace's tests in a
# debug build (so the search invariant checks are on, and the
# documentation contract in tests/docs.rs and tests/*_doc.rs runs:
# every anchor, counter, flag, schema token and schema version the
# docs state must still exist in the code), the serve suite again in a release build (its
# timing-sensitive tests must hold at release speeds too), the
# elastic-reconfiguration example (its rerun must return the
# bit-identical result, which it asserts), the benchmark harness's
# self-tests
# (perfbench/, its own cargo workspace),
# the full-corpus differential perf-equivalence sweep (incremental vs
# from-scratch evaluation must stay bit-identical), the full
# whole-system static verifier (plan-safety proofs and protocol
# state-machine checking — zero findings, report archived under
# results/) plus its mutation gates (each seeded bug
# injection must be caught), an observability smoke run
# whose artifacts must validate against the documented schema, a serve
# daemon round-trip, a crash-recovery smoke (SIGKILL the daemon
# mid-search, restart it, resubmit — the resumed event stream must be
# byte-identical to an uninterrupted reference — then shut the restarted
# daemon down with a request in flight, which must still be answered
# before the drain completes), a store smoke (SIGKILL
# a --store-dir daemon mid-run — `aceso store verify` must find no torn
# entry, and a restarted daemon must serve off the surviving store), a
# store-backed restart gate (each restarted daemon serves off exactly
# one store hit with no write-back and the cold answer), a chaos smoke
# (a seeded window of whole-system fault schedules must violate no
# standing oracle, and the
# store-direct-write mutation must be caught, shrunk to a replayable
# trace, and reproduce on replay — docs/RELIABILITY.md), and a work
# regression gate against the committed BENCH_search.json (the fixed
# search, run once, must explore as many configurations to the same
# best time with no more perf-model evaluations; the committed fleet
# section must hold >= 512 clients and no error, and the restart
# section one store hit, no write and the restart key's simulated
# profiling seconds). The file holds only deterministic work, so a
# passing run leaves every tracked file unchanged.
set -eu

cd "$(dirname "$0")"

# start_daemon LOG ARGS...: starts the release `aceso serve ARGS...` in
# the background with stdout in LOG, waits for its "listening on" line,
# and sets DAEMON_PID and ADDR. Exits the script if no address appears.
start_daemon() {
    daemon_log=$1
    shift
    target/release/aceso serve "$@" >"$daemon_log" &
    DAEMON_PID=$!
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/^listening on //p' "$daemon_log")
        [ -n "$ADDR" ] && return 0
        sleep 0.1
    done
    echo "daemon logging to $daemon_log never reported its address"
    kill "$DAEMON_PID" 2>/dev/null || :
    exit 1
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, no deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q --workspace (debug build: invariant checks on)"
cargo test -q --workspace

echo "==> serve suite in release mode (timing-sensitive tests see release speeds)"
cargo test -q --release --test serve

echo "==> example: elastic reconfiguration (asserts a rerun is bit-identical)"
cargo run --release --quiet --example elastic_reconfigure

echo "==> perfbench self-tests (the benchmark harness, its own workspace)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> differential perf-equivalence sweep (full corpus)"
cargo test -q --release --test perf_equivalence -- --include-ignored

echo "==> audit: full whole-system verifier (report archived in results/)"
cargo run --release --quiet --bin aceso -- audit --full \
    --json results/audit-report.json --metrics-out results/audit-metrics.json

echo "==> audit mutation gates: every seeded bug injection must be caught"
for MUT in mem-bound reorder-frame; do
    MUT_TMP=$(mktemp)
    if cargo run --release --quiet --bin aceso -- audit --smoke \
        --mutate "$MUT" --json "$MUT_TMP" >/dev/null 2>&1; then
        echo "mutation $MUT was NOT caught"; rm -f "$MUT_TMP"; exit 1
    fi
    grep -q '"clean": false' "$MUT_TMP" || {
        echo "mutation $MUT exited non-zero but reported no JSON finding"
        rm -f "$MUT_TMP"; exit 1; }
    rm -f "$MUT_TMP"
    echo "    $MUT: caught"
done

echo "==> optional ThreadSanitizer stage (enable with ACESO_TSAN=1)"
if [ "${ACESO_TSAN:-0}" = "1" ]; then
    if rustup toolchain list 2>/dev/null | grep -q nightly &&
        rustup component list --toolchain nightly 2>/dev/null |
            grep -q 'rust-src (installed)'; then
        TSAN_TARGET=$(rustc -vV | sed -n 's/^host: //p')
        RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q \
            -Zbuild-std --target "$TSAN_TARGET" -p aceso-serve --lib
    else
        echo "    skipped: nightly toolchain with rust-src not installed"
    fi
else
    echo "    skipped (set ACESO_TSAN=1 to run the serve suite under TSan)"
fi

echo "==> observability smoke run (schema-validated metrics + events)"
OBS_TMP=$(mktemp -d)
cargo run --release --quiet --bin aceso -- search \
    --model gpt3-0.35b --gpus 4 --budget-secs 2 \
    --metrics-out "$OBS_TMP/metrics.json" \
    --events-out "$OBS_TMP/events.jsonl" >/dev/null
cargo run --release --quiet -p aceso-bench --bin obs_check -- \
    "$OBS_TMP/metrics.json" "$OBS_TMP/events.jsonl"
rm -rf "$OBS_TMP"

echo "==> serve smoke: daemon round-trip with schema-validated artifacts"
SERVE_TMP=$(mktemp -d)
SERVE_PID=""
# Kill the daemon and drop the temp dir even when a later step trips
# set -e mid-stage.
trap 'kill "$SERVE_PID" 2>/dev/null || :; rm -rf "$SERVE_TMP"' EXIT
start_daemon "$SERVE_TMP/serve.log" --addr 127.0.0.1:0 --workers 2
SERVE_PID=$DAEMON_PID
cargo run --release --quiet --bin aceso -- submit \
    --addr "$ADDR" --model gpt3-0.35b --gpus 4 --iterations 24 \
    --metrics-out "$SERVE_TMP/metrics.json" \
    --events-out "$SERVE_TMP/events.jsonl" >/dev/null
cargo run --release --quiet -p aceso-bench --bin obs_check -- \
    "$SERVE_TMP/metrics.json" "$SERVE_TMP/events.jsonl"
cargo run --release --quiet --bin aceso -- submit --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
grep -q "daemon drained" "$SERVE_TMP/serve.log" || {
    echo "daemon did not drain cleanly"; exit 1; }
trap - EXIT
rm -rf "$SERVE_TMP"

echo "==> crash-recovery smoke: drain under load, SIGKILL mid-search, restart, resume"
CRASH_TMP=$(mktemp -d)
CRASH_PID=""
trap 'kill -9 "$CRASH_PID" 2>/dev/null || :; rm -rf "$CRASH_TMP"' EXIT
# Run the release binary directly (not via cargo) so the SIGKILL below
# lands on the daemon itself, exactly like a crash or OOM kill would.
start_daemon "$CRASH_TMP/serve.log" --addr 127.0.0.1:0 --workers 2 \
    --spool-dir "$CRASH_TMP/spool" --checkpoint-every 2
CRASH_PID=$DAEMON_PID
# Reference: the same request, uninterrupted, no spooling involved.
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 24 \
    --events-out "$CRASH_TMP/ref-events.jsonl" >/dev/null
# Crash run: submit with a request id in the background, SIGKILL the
# daemon the moment a checkpoint spool appears on disk.
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 24 --request-id ci-crash \
    >/dev/null 2>&1 &
SUBMIT_PID=$!
SPOOL=""
for _ in $(seq 1 100); do
    SPOOL=$(find "$CRASH_TMP/spool" -name 'ci-crash-*.ckpt' 2>/dev/null | head -n 1)
    [ -n "$SPOOL" ] && break
    sleep 0.05
done
[ -n "$SPOOL" ] || { echo "no checkpoint spool appeared before the search finished"; exit 1; }
kill -9 "$CRASH_PID"
wait "$SUBMIT_PID" 2>/dev/null || :  # the client lost its daemon — expected
# Restart the daemon on the same spool dir and resubmit the same id:
# the search must resume from the spooled checkpoint and the collected
# event stream must be byte-identical to the uninterrupted reference.
start_daemon "$CRASH_TMP/serve2.log" --addr 127.0.0.1:0 --workers 2 \
    --spool-dir "$CRASH_TMP/spool" --checkpoint-every 2
CRASH_PID=$DAEMON_PID
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 24 --request-id ci-crash --retries 3 \
    --events-out "$CRASH_TMP/crash-events.jsonl" >/dev/null
cmp "$CRASH_TMP/ref-events.jsonl" "$CRASH_TMP/crash-events.jsonl" || {
    echo "resumed event stream diverged from the uninterrupted reference"; exit 1; }
target/release/aceso submit --addr "$ADDR" --stats >"$CRASH_TMP/stats.json"
grep -q '"search_resumed": *1' "$CRASH_TMP/stats.json" || {
    echo "restarted daemon did not count the resume"; exit 1; }
grep -q '"client_retries": *[1-9]' "$CRASH_TMP/stats.json" || {
    echo "restarted daemon did not count the client retry"; exit 1; }
# Drain under load: shut the daemon down while a request is in flight —
# it must finish the search, deliver its result, and only then report a
# clean drain (docs/SERVER.md).
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 24 \
    --events-out "$CRASH_TMP/drain-events.jsonl" >/dev/null &
SUBMIT_PID=$!
sleep 0.3
target/release/aceso submit --addr "$ADDR" --shutdown >/dev/null
wait "$SUBMIT_PID" || { echo "in-flight request lost during drain"; exit 1; }
[ -s "$CRASH_TMP/drain-events.jsonl" ] || {
    echo "drained request returned no events"; exit 1; }
wait "$CRASH_PID"
grep -q "daemon drained" "$CRASH_TMP/serve2.log" || {
    echo "restarted daemon did not drain cleanly"; exit 1; }
trap - EXIT
rm -rf "$CRASH_TMP"

echo "==> fleet smoke: 64 mixed clients against an in-process daemon"
FLEET_TMP=$(mktemp -d)
cargo run --release --quiet -p aceso-bench --bin serve_bench -- \
    fleet 64 "$FLEET_TMP/fleet.json" >/dev/null
grep -q '"errors": 0' "$FLEET_TMP/fleet.json" || {
    echo "fleet smoke recorded client errors"; exit 1; }
rm -rf "$FLEET_TMP"

echo "==> store smoke: SIGKILL mid-run, the store never shows a torn entry"
STORE_TMP=$(mktemp -d)
STORE_PID=""
trap 'kill -9 "$STORE_PID" 2>/dev/null || :; rm -rf "$STORE_TMP"' EXIT
start_daemon "$STORE_TMP/serve.log" --addr 127.0.0.1:0 --workers 2 \
    --store-dir "$STORE_TMP/store"
STORE_PID=$DAEMON_PID
# The first submit populates the store; the second is still in flight
# when the daemon is SIGKILLed, so the kill can land mid-write.
# INV-STORE-ATOMIC: whatever the timing, verify must find only clean
# entries (leftover temp files are not findings).
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 8 >/dev/null
target/release/aceso submit --addr "$ADDR" \
    --model t5-0.77b --gpus 4 --iterations 8 >/dev/null 2>&1 &
SUBMIT_PID=$!
sleep 0.2
kill -9 "$STORE_PID"
wait "$SUBMIT_PID" 2>/dev/null || :  # the client lost its daemon — expected
target/release/aceso store verify --dir "$STORE_TMP/store" || {
    echo "store verify found a torn entry after SIGKILL"; exit 1; }
# A fresh daemon on the surviving store serves the first request off a
# store hit, not a re-profile.
start_daemon "$STORE_TMP/serve2.log" --addr 127.0.0.1:0 --workers 2 \
    --store-dir "$STORE_TMP/store"
STORE_PID=$DAEMON_PID
target/release/aceso submit --addr "$ADDR" \
    --model gpt3-0.35b --gpus 4 --iterations 8 >/dev/null
target/release/aceso submit --addr "$ADDR" --stats >"$STORE_TMP/stats.json"
grep -q '"store_hits": *1' "$STORE_TMP/stats.json" || {
    echo "restarted daemon did not serve off the store"; exit 1; }
target/release/aceso submit --addr "$ADDR" --shutdown >/dev/null
wait "$STORE_PID"
trap - EXIT
rm -rf "$STORE_TMP"

echo "==> chaos smoke: seeded fault schedules clean, mutation gate trips"
CHAOS_TMP=$(mktemp -d)
# A fixed seed window of whole-system scenarios (filesystem faults,
# network cuts, worker panics, concurrent generations) must violate no
# standing oracle (docs/RELIABILITY.md, INV-CHAOS-ORACLE).
target/release/aceso chaos run --seed-range 0..60 \
    --trace-out "$CHAOS_TMP/trace.json"
# Mutation gate: with the store's temp+rename discipline disabled
# (INV-STORE-ATOMIC deliberately broken) the same window must catch a
# torn entry and shrink it to a replayable trace (INV-CHAOS-SHRINK).
if target/release/aceso chaos run --seed-range 0..60 \
    --mutate store-direct-write \
    --trace-out "$CHAOS_TMP/mutant.json" >/dev/null; then
    echo "store-direct-write mutation was NOT caught"; rm -rf "$CHAOS_TMP"; exit 1
fi
[ -s "$CHAOS_TMP/mutant.json" ] || {
    echo "mutant chaos run wrote no trace"; exit 1; }
grep -q '"direct_writes": true' "$CHAOS_TMP/mutant.json" || {
    echo "mutant trace lost the mutation switch"; exit 1; }
# The shrunk trace must reproduce deterministically on replay
# (INV-CHAOS-DETERMINISM: replay exits non-zero iff it reproduces).
if target/release/aceso chaos replay "$CHAOS_TMP/mutant.json" >/dev/null; then
    echo "shrunk mutant trace did not reproduce on replay"; rm -rf "$CHAOS_TMP"; exit 1
fi
rm -rf "$CHAOS_TMP"

echo "==> restart gate: restarted daemons serve off the store, bit-identically"
RESTART_TMP=$(mktemp -d)
# serve_bench asserts one store hit, no write and the cold best time and
# fingerprint for every restarted daemon; it exits non-zero otherwise.
cargo run --release --quiet -p aceso-bench --bin serve_bench -- \
    restart "$RESTART_TMP/restart.json" >/dev/null
grep -q '"sim_profiling_s_saved"' "$RESTART_TMP/restart.json" || {
    echo "restart gate wrote no figures"; exit 1; }
rm -rf "$RESTART_TMP"

echo "==> work regression gate (vs committed BENCH_search.json)"
cargo run --release --quiet -p aceso-bench --bin obs_check

echo "CI OK"
