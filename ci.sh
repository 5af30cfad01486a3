#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, full test suite.
# Everything here must pass before a change merges.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# A doc link to a removed or private item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> page-table oracle under extra proptest seeds"
# The proptest shim seeds each test from its name; extra seeds draw fresh
# cases for the run-table vs per-page differential.
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-memory runs_match_the_dense_oracle
done

echo "==> functional data path oracle under extra proptest seeds"
# Fresh op sequences for the in-place accessors vs the temporary-based
# oracle (aliased overlaps, phantom buffers, out-of-range requests).
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-memory \
        functional_ops_match_the_temporary_oracle
done

echo "==> backing recycler bound under extra proptest seeds"
# Fresh allocate/free sequences for the recycler's invariants: pooled +
# live bytes under the live high-water mark, zeroed hand-outs, exact
# counters.
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-memory \
        recycler_never_exceeds_the_live_high_water
done

echo "==> flight-recorder change points under extra proptest seeds"
# Fresh rebuild tapes for the change-point vs dense-row differential.
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-fabric --lib \
        change_points_match_the_dense_oracle
done

echo "==> engine differential under extra proptest seeds"
# Fresh op tapes for the production engine vs the test-only ReferenceNet
# and the naive fair-share solve (batch adds, drains, cancels, degradations,
# link failures), and fresh add/drain cycles.
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-fabric --lib -- \
        engine_matches_reference_and_oracle_under_churn add_drain_cycles_match_reference
done

echo "==> bounded-wait replay under extra proptest seeds"
# Fresh fault schedules and timeout steps for the bounded-vs-unbounded
# synchronize differential (the event loop's deadline branch under faults).
for seed in 1 2 3; do
    PROPTEST_SEED="$seed" cargo test -q --release -p ifsim-hip --test stream_semantics \
        bounded_waits_replay_the_unbounded_schedule
done

echo "==> telemetry smoke: repro ext-fault-link-down --trace-out/--metrics-out/--critpath-out + lint, byte-equal to the pinned capture, plus the pinned trace"
cargo build --release -p ifsim-bench
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_TMP"' EXIT
./target/release/repro --quick --reps 1 ext-fault-link-down \
    --trace-out "$TELEMETRY_TMP/trace.json" \
    --metrics-out "$TELEMETRY_TMP/metrics.json" \
    --attr-json "$TELEMETRY_TMP/attr.json" \
    --critpath-out "$TELEMETRY_TMP/fault-critpath.json" > /dev/null
./target/release/telemetry-lint \
    --trace "$TELEMETRY_TMP/trace.json" \
    --metrics "$TELEMETRY_TMP/metrics.json" \
    --attr "$TELEMETRY_TMP/attr.json" \
    --critpath "$TELEMETRY_TMP/fault-critpath.json"
# The CLI's artifact writer must emit exactly the bytes tests/golden_outputs.rs
# pins for the same capture.
cmp "$TELEMETRY_TMP/trace.json" golden/capture/ext-fault-link-down.trace.json
cmp "$TELEMETRY_TMP/metrics.json" golden/capture/ext-fault-link-down.metrics.json
cmp "$TELEMETRY_TMP/fault-critpath.json" golden/capture/ext-fault-link-down.critpath.json
./target/release/telemetry-lint --trace golden/traces/ext-fault-p2p-lanes.json
./target/release/telemetry-lint --trace golden/capture/ext-fault-link-down.trace.json

echo "==> analyze smoke: critical path + what-if sweep, schema-linted"
# The causal profiler must produce a report whose total equals the run
# makespan (ifsim-analyze exits 1 on an invariant violation) with a full
# 2-field x 3-factor what-if grid; the factors stay below the efficiency
# ceiling so no rows clamp away.
./target/release/ifsim-analyze ext-coll-sweep --quick --reps 1 \
    --factors 0.5,0.8,1.1 \
    --out "$TELEMETRY_TMP/critpath.json" \
    --report "$TELEMETRY_TMP/critpath.md" > /dev/null
./target/release/telemetry-lint --critpath "$TELEMETRY_TMP/critpath.json"
WHATIF_ROWS="$(grep -c '"field":' "$TELEMETRY_TMP/critpath.json" || true)"
if [ "${WHATIF_ROWS:-0}" -lt 6 ]; then
    echo "what-if sweep too small: expected 2 fields x 3 factors, got $WHATIF_ROWS rows" >&2
    exit 1
fi

echo "==> drift watchdog: golden figures within tolerance, and trips on perturbation"
./target/release/ifsim-drift
# The watchdog must actually catch a miscalibration: a 10 % shift in the
# SDMA/xGMI efficiency has to fail at least one figure with exit code 1.
# Any other code is a usage error (2) or a crash (101), not a detection.
DRIFT_CODE=0
./target/release/ifsim-drift --perturb eff_sdma_xgmi=1.1 > /dev/null 2>&1 || DRIFT_CODE=$?
if [ "$DRIFT_CODE" -ne 1 ]; then
    echo "ifsim-drift --perturb eff_sdma_xgmi=1.1 exited $DRIFT_CODE, expected 1 (drift detected)" >&2
    exit 1
fi

echo "==> scenario smoke: golden files lint + repro --scenario replay"
# Every golden scenario must validate (the lint errors name the offending
# field path), and the MoE acceptance scenario must replay end-to-end
# through the repro driver, producing its CSV artifact.
for f in golden/scenarios/*.json; do
    ./target/release/telemetry-lint --scenario "$f"
done
./target/release/repro --quick --reps 1 --csv "$TELEMETRY_TMP/scenario-repro" \
    --scenario golden/scenarios/moe-alltoall.json > /dev/null
if [ ! -s "$TELEMETRY_TMP/scenario-repro/scenario_moe-alltoall.csv" ]; then
    echo "repro --scenario produced no CSV artifact" >&2
    exit 1
fi

echo "==> serve smoke: cache replay byte-identical to repro, stats lint, http plane, clean drain, request trace"
cargo build --release -p ifsim-serve
SERVE_SOCK="$TELEMETRY_TMP/serve.sock"
./target/release/ifsim-serve --socket "$SERVE_SOCK" --workers 4 --queue-depth 16 \
    --http 127.0.0.1:0 --trace-out "$TELEMETRY_TMP/serve-trace.json" \
    > "$TELEMETRY_TMP/serve-stdout.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SERVE_SOCK" ] && break
    sleep 0.1
done
# The observability plane resolves port 0 and prints the bound address.
HTTP_ADDR=""
for _ in $(seq 1 100); do
    HTTP_ADDR="$(sed -n 's/^http listening on //p' "$TELEMETRY_TMP/serve-stdout.log")"
    [ -n "$HTTP_ADDR" ] && break
    sleep 0.1
done
if [ -z "$HTTP_ADDR" ]; then
    echo "ifsim-serve never reported its http address" >&2
    exit 1
fi
./target/release/ifsim-client --socket "$SERVE_SOCK" ping > /dev/null
# The same config twice: the replay must come from the cache and the served
# CSV must match the repro CLI byte for byte.
./target/release/ifsim-client --socket "$SERVE_SOCK" \
    exp fig6a --quick --reps 1 --no-report --csv "$TELEMETRY_TMP/serve-first" > /dev/null
SECOND="$(./target/release/ifsim-client --socket "$SERVE_SOCK" \
    exp fig6a --quick --reps 1 --no-report --csv "$TELEMETRY_TMP/serve-second")"
case "$SECOND" in
    *"cache hit"*) ;;
    *) echo "second serve run was not a cache hit: $SECOND" >&2; exit 1 ;;
esac
./target/release/repro --quick --reps 1 --csv "$TELEMETRY_TMP/serve-repro" fig6a > /dev/null
cmp "$TELEMETRY_TMP/serve-first/fig6a.csv" "$TELEMETRY_TMP/serve-repro/fig6a.csv"
cmp "$TELEMETRY_TMP/serve-second/fig6a.csv" "$TELEMETRY_TMP/serve-repro/fig6a.csv"
# Inline scenario upload: the request carries the scenario JSON itself, the
# second identical request must hit the cache (keyed on the scenario's
# content digest), and the served CSV must byte-match the repro CLI's.
./target/release/ifsim-client --socket "$SERVE_SOCK" \
    exp --scenario golden/scenarios/moe-alltoall.json --quick --reps 1 \
    --no-report --csv "$TELEMETRY_TMP/scenario-first" > /dev/null
SCEN_SECOND="$(./target/release/ifsim-client --socket "$SERVE_SOCK" \
    exp --scenario golden/scenarios/moe-alltoall.json --quick --reps 1 \
    --no-report --csv "$TELEMETRY_TMP/scenario-second")"
case "$SCEN_SECOND" in
    *"cache hit"*) ;;
    *) echo "second scenario serve run was not a cache hit: $SCEN_SECOND" >&2; exit 1 ;;
esac
cmp "$TELEMETRY_TMP/scenario-first/scenario_moe-alltoall.csv" \
    "$TELEMETRY_TMP/scenario-repro/scenario_moe-alltoall.csv"
cmp "$TELEMETRY_TMP/scenario-second/scenario_moe-alltoall.csv" \
    "$TELEMETRY_TMP/scenario-repro/scenario_moe-alltoall.csv"
# Seeded 100-request mix at concurrency 8; while it runs, the http plane
# must answer health and serve a lint-clean Prometheus exposition (curl -f
# fails the gate on any 4xx/5xx answer), and the SSE stream must tick.
./target/release/ifsim-loadgen --socket "$SERVE_SOCK" --concurrency 8 --requests 100 \
    --stats-interval 1 --out "$TELEMETRY_TMP/loadgen.json" > /dev/null &
LOADGEN_PID=$!
curl -fsS "http://$HTTP_ADDR/healthz" > /dev/null
curl -fsS "http://$HTTP_ADDR/readyz" > /dev/null
curl -fsS "http://$HTTP_ADDR/metrics" | ./target/release/telemetry-lint --prom -
(curl -sN --max-time 3 "http://$HTTP_ADDR/events" || true) | grep -q "^data:"
wait "$LOADGEN_PID"
grep -q '"schema": "ifsim-loadgen-v1"' "$TELEMETRY_TMP/loadgen.json"
# A second exposition after the load: still lint-clean, and the stats
# snapshot must show cache hits and pass the serve lint.
curl -fsS "http://$HTTP_ADDR/metrics" | ./target/release/telemetry-lint --prom -
./target/release/ifsim-client --socket "$SERVE_SOCK" stats --raw > "$TELEMETRY_TMP/serve-stats.json"
./target/release/telemetry-lint --serve "$TELEMETRY_TMP/serve-stats.json"
HITS="$(./target/release/ifsim-client --socket "$SERVE_SOCK" stats | sed -n 's/.* \([0-9]*\) hits.*/\1/p')"
if [ "${HITS:-0}" -lt 1 ]; then
    echo "serve cache reported no hits" >&2
    exit 1
fi
./target/release/ifsim-client --socket "$SERVE_SOCK" shutdown > /dev/null
wait "$SERVE_PID"
# Request spans are kept only for --trace-out; the export written after
# the drain must lint and carry them.
./target/release/telemetry-lint --trace "$TELEMETRY_TMP/serve-trace.json"
if ! grep -q '"cat":"serve_request"' "$TELEMETRY_TMP/serve-trace.json"; then
    echo "serve --trace-out export has no serve_request span" >&2
    exit 1
fi

echo "==> chaos soak: SIGKILL mid-write, cache corruption, coalescing, deadlines, signals"
# Seeded fault scripts against a scratch daemon: after a kill + restart
# every previously cached digest must be served byte-identical to the
# one-shot CLI or quarantined — never corrupt — 8 concurrent identical
# requests must coalesce onto exactly one computation, deadline storms
# answer 504 (never 500), and a double SIGINT force-exits with 130.
./target/release/ifsim-chaos --script all --seed 0xC4A05 \
    --serve-bin ./target/release/ifsim-serve \
    --workdir "$TELEMETRY_TMP/chaos"

echo "==> stack bench smoke: every workload traced, then the summary lint"
# A short traced run of the benchmark BENCHMARK.json declares: every
# workload must check out (the bench exits nonzero on a failed output
# check) and its BENCH_stack.json must pass the schema lint. Timings are
# not gated here: CI machines are shared and noisy.
cargo run --release --offline -p ifsim-bench --example stack -- \
    --workload all --seconds 2 --trace 1 --out "$TELEMETRY_TMP/stack" > /dev/null
./target/release/telemetry-lint --bench "$TELEMETRY_TMP/stack/BENCH_stack.json"

echo "CI green."
