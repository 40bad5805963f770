#!/usr/bin/env sh
# Full offline verification: build, tests, formatting, lints, docs.
# Run from the repository root. Fails fast on the first broken step.
#
# Test invocations run under a hard wall-clock timeout (the same
# execution-deadline discipline the library applies to itself, DESIGN.md
# §9): a hanging test kills the verification run with a clear signal
# instead of stalling CI until the job-level timeout reaps it.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Hard wall-clock caps (seconds): generous for the full suite, tight for
# the smoke suite. `timeout -k` follows the TERM with a KILL in case a
# test ignores the first signal.
TEST_TIMEOUT=1200
SMOKE_TIMEOUT=300

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo check --locked --offline --manifest-path perfbench/Cargo.toml"
# The benchmark package is outside the workspace but implements
# `ModelFamily` (a forwarding wrapper) and pins its own lock file: a
# library change that breaks it, or that would rewrite
# perfbench/Cargo.lock, fails here rather than in a benchmark run.
cargo check --locked --offline --manifest-path perfbench/Cargo.toml

echo "==> repro all | cmp - repro_output.txt (hard cap ${SMOKE_TIMEOUT}s)"
# The recorded paper tables and figures are a byte gate: a change that
# moves any printed digit fails here instead of waiting for someone to
# regenerate the file by hand (`repro all > repro_output.txt`, with the
# drift reported).
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin repro all \
    | cmp - repro_output.txt || {
    echo "repro gate: repro all output drifted from repro_output.txt" >&2
    exit 1
}

echo "==> cargo test -q --workspace (hard cap ${TEST_TIMEOUT}s)"
timeout -k 30 "$TEST_TIMEOUT" cargo test -q --workspace

echo "==> cargo test -q --test runtime_resilience (smoke, hard cap ${SMOKE_TIMEOUT}s)"
timeout -k 30 "$SMOKE_TIMEOUT" cargo test -q --test runtime_resilience

echo "==> telemetry smoke: traced example -> JSONL log -> obsctl report (hard cap ${SMOKE_TIMEOUT}s)"
FITLOG_SMOKE="$(mktemp -t fitlog_smoke.XXXXXX.jsonl)"
OBS_SMOKE_DIR="$(mktemp -d -t obs_smoke.XXXXXX)"
trap 'rm -f "$FITLOG_SMOKE"; rm -rf "$OBS_SMOKE_DIR"' EXIT
FITLOG_PATH="$FITLOG_SMOKE" timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release --example traced_ranking > /dev/null
test -s "$FITLOG_SMOKE" || {
    echo "telemetry smoke: example wrote no event log" >&2
    exit 1
}
# The log must parse and replay into a report (obsctl exits non-zero on a
# malformed line), and the report must cover the example's family pool.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- report "$FITLOG_SMOKE" \
    | grep -q "Quadratic" || {
    echo "telemetry smoke: obsctl report missing expected family row" >&2
    exit 1
}

echo "==> bench smoke: serial vs Fixed(2) identical + evals-per-fit ceiling (hard cap ${SMOKE_TIMEOUT}s)"
# One fast rank_models pass (DESIGN.md §11): fails when the parallel
# output is not bit-identical to the serial one, or when the median
# evals-per-fit regresses above the ceiling recorded in the bench binary.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- --smoke

echo "==> scenario smoke: canonical scenario set deterministic + serial/parallel identical (hard cap ${SMOKE_TIMEOUT}s)"
# Generates the canonical scenario catalog twice (bit-identical series),
# then ranks each series serially and with Fixed(2) workers (identical
# rankings) — the scenario-engine determinism contract end to end.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- --scenario-smoke

echo "==> fleet + obs smoke: 64-cell grid, repeatability + observability gates, obsctl end-to-end (hard cap ${SMOKE_TIMEOUT}s)"
# Runs the CI fleet once as three passes (serial ×2, Fixed(2) ×1) and
# evaluates both gate sets on them. Repeatability (DESIGN.md §13): the
# columnar results stores and obs roll-ups must be byte-identical across
# all passes. Observability (DESIGN.md §15): the JSONL logs, span-tree
# renders, and metrics expositions must be byte-identical too, every
# evaluation must be attributed to a cell, and each family must stay
# under its committed evaluation ceiling. Regenerates BENCH_fleet.json
# and BENCH_obs.json — pure functions of the grid, so `git diff` must
# stay clean after this step — and drops the run's logs into
# OBS_SMOKE_DIR for the obsctl checks below. The verdict lines print the
# detected core count: the Fixed(2) identity gate only exercises real
# concurrency when it is above 1.
OBS_SMOKE_DIR="$OBS_SMOKE_DIR" timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- fleet --fleet-smoke

# obsctl diff of the serial vs rerun logs must be empty (exit 0); a
# non-empty diff means the telemetry plane itself is nondeterministic.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- diff \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" "$OBS_SMOKE_DIR/fleet_rerun.jsonl" || {
    echo "obs smoke: obsctl diff found drift between identical-config runs" >&2
    exit 1
}

# The exported metrics exposition must match the committed golden file
# byte for byte — the committed contract for dashboard scrapers.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- export \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" > "$OBS_SMOKE_DIR/export.prom"
cmp "$OBS_SMOKE_DIR/export.prom" tests/golden/obs_smoke_metrics.prom || {
    echo "obs smoke: metrics exposition drifted from tests/golden/obs_smoke_metrics.prom" >&2
    echo "(regenerate with: obsctl export <smoke log> > tests/golden/obs_smoke_metrics.prom)" >&2
    exit 1
}

# Span-tree and top-K queries run end-to-end on the real log.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- tree \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" --depth 1 \
    | grep -q "^fleet: 64 cells" || {
    echo "obs smoke: obsctl tree did not reconstruct the 64-cell fleet" >&2
    exit 1
}
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin obsctl -- top \
    "$OBS_SMOKE_DIR/fleet_serial.jsonl" --limit 3 \
    | grep -q "hottest cells by evals:" || {
    echo "obs smoke: obsctl top produced no ranking" >&2
    exit 1
}

echo "==> chaos smoke: 64-cell grid under the fixed chaos plan, supervisor gates (hard cap ${SMOKE_TIMEOUT}s)"
# Runs the CI fleet three times (serial ×2, Fixed(2) ×1) under the fixed
# fault-injection plan with the circuit breaker armed (DESIGN.md §14).
# Fails unless: no cell aborts the fleet, every non-quarantined cell has
# a finite winning fit, the stores AND the raw event JSONL are
# byte-identical across all three runs, injections are exactly accounted
# in counters, and retries stay under the policy ceiling. Regenerates
# BENCH_chaos.json — a pure function of the grid and the plan.
timeout -k 30 "$SMOKE_TIMEOUT" \
    cargo run -q --release -p resilience-bench --bin bench -- fleet --chaos-smoke

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
# Broken or ambiguous intra-doc links fail the run.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "verify: all checks passed"
