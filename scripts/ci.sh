#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, format, perf gates. Run from anywhere;
# operates on the repo root. The workspace vendors all external deps under
# vendor/, so this works fully offline (--offline keeps cargo from touching
# the network at all).
#
# Usage: scripts/ci.sh [mode]
#   all        (default) every check below, in order
#   build-test release build + test suite
#   clippy     clippy with -D warnings
#   fmt        rustfmt --check
#   doc        rustdoc over the workspace with -D warnings (broken links)
#   fault      the fault-injection suites under one CCA_FAULT_SEED
#   fleet      the multi-process kill-matrix under one CCA_FAULT_SEED
#   bench-gate every experiment's gates in fast mode (scripts/bench.sh)
#   ccabench   the end-to-end benchmark's smoke run (benchmark/, all six
#              workloads with their oracles on, a few seconds)
#   loc        non-test line counts per crate (reports only; not in `all`)
#
# The CI workflow fans these out as separate jobs; `all` keeps the
# one-command local story.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"

# The fleet scenarios re-exec the test binary as rank children, so the EXIT
# trap reaps any orphaned rank (identified by CCA_FLEET_RANK in its
# environment) that a killed-mid-run supervisor failed to collect.
reap_fleet_orphans() {
    local pid
    for pid in $(ls /proc 2>/dev/null | grep -E '^[0-9]+$'); do
        [ "$pid" = "$$" ] && continue
        if tr '\0' '\n' 2>/dev/null < "/proc/$pid/environ" |
            grep -q '^CCA_FLEET_RANK='; then
            echo "reaping orphaned fleet rank pid $pid" >&2
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
}
trap reap_fleet_orphans EXIT

build_test() {
    echo "==> cargo build --release"
    cargo build --offline --release --workspace

    echo "==> cargo test"
    cargo test --offline --workspace -q
}

clippy() {
    echo "==> cargo clippy -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

doc() {
    echo "==> cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
}

# One run of the failure-injection + resilience + remote-transport +
# wire-tracing suites under a fixed fault schedule. CI calls this once per
# seed in {1, 7, 42, 1999}; the suites are mock-clock driven (the remote
# ones use real sockets but a seeded server-side drop plan), so a seed
# fully determines every outcome. The flight recorder is armed at
# target/flight so a failing run leaves incident JSONL behind for the
# workflow to upload.
fault() {
    local seed="${CCA_FAULT_SEED:-1}"
    echo "==> fault matrix (CCA_FAULT_SEED=$seed)"
    mkdir -p target/flight
    CCA_FAULT_SEED="$seed" CCA_FLIGHT_DIR="$(pwd)/target/flight" cargo test --offline \
        --test failure_injection --test resilience --test remote_transport \
        --test wire_tracing --test bulk_redist --test repository_scale
}

# The supervised-fleet kill-matrix: 4 ranks as real child processes, a
# seed-chosen victim kill -9'd mid-run, convergence to the unkilled answer
# required (tests/fleet.rs). The hard timeout is the zombie backstop — a
# hung supervisor or an undetected rank death must fail the lane rather
# than park it forever; the EXIT trap then reaps whatever re-exec'd ranks
# the killed test left behind. Forensics (incident JSONL plus the
# supervisor event log) land in target/flight for the workflow to upload.
# Recovery is a value (fleet::run_worker), never an unwind, so any
# `panicked at` in the lane's output — a rank's included — fails it.
fleet() {
    local seed="${CCA_FAULT_SEED:-1}"
    local log="target/flight/fleet_lane_$seed.log"
    echo "==> fleet kill-matrix (CCA_FAULT_SEED=$seed)"
    mkdir -p target/flight
    CCA_FAULT_SEED="$seed" CCA_FLIGHT_DIR="$(pwd)/target/flight" \
        timeout -k 30 420 cargo test --offline --test fleet 2>&1 | tee "$log"
    if grep -q 'panicked at' "$log"; then
        echo "fleet lane: a process panicked (see $log)" >&2
        return 1
    fi
}

# Every experiment in fast mode, artifacts into target/bench-ci/ (never over
# the committed full-run ones in crates/bench/results/). Each bench enforces
# its own gates; bench.sh runs them all even when one fails.
bench_gate() {
    echo "==> bench gates (fast mode, artifacts in target/bench-ci/)"
    CCA_BENCH_FAST=1 CCA_BENCH_OUT_DIR="$(pwd)/target/bench-ci" scripts/bench.sh
}

# ccabench (benchmark/README.md) is a package of its own with its own lock
# file and target directory; --smoke runs every workload for half a second
# with every oracle on and exits nonzero if any operation failed. Rows land
# in benchmark/out/*.json for the workflow to upload.
ccabench() {
    echo "==> ccabench smoke run"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
}

# The one line-count rule line-budget claims are measured with: every line
# of every .rs file under crates/*/src except the top-level items marked
# `#[cfg(test)]`, summed per crate and in total. A marked item is excluded
# from its attribute through its end: the first line ending in `;`, or,
# when a line ends in `{` first, the matching `}` in column 0 (rustfmt
# puts a top-level item's closing brace there). Code after a test module
# still counts.
loc() {
    echo "==> non-test lines in crates/*/src"
    find crates/*/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { split(FILENAME, part, "/"); crate = part[2]; skip = 0 }
        /^#\[cfg\(test\)\]/ {
            skip = 1
            sub(/^#\[cfg\(test\)\][[:space:]]*/, "")
            if ($0 == "") next
        }
        skip == 1 {
            if (/\{[[:space:]]*$/) skip = 2
            else if (/;[[:space:]]*$/) skip = 0
            next
        }
        skip == 2 { if (/^\}/) skip = 0; next }
        { lines[crate]++; total++ }
        END {
            for (c in lines) printf "%-12s %7d\n", c, lines[c] | "sort"
            close("sort")
            printf "%-12s %7d\n", "total", total
        }'
}

case "$MODE" in
all)
    build_test
    clippy
    fmt
    doc
    fault
    fleet
    bench_gate
    ccabench
    ;;
build-test) build_test ;;
clippy) clippy ;;
fmt) fmt ;;
doc) doc ;;
fault) fault ;;
fleet) fleet ;;
bench-gate) bench_gate ;;
ccabench) ccabench ;;
loc) loc ;;
*)
    echo "unknown mode '$MODE' (want all|build-test|clippy|fmt|doc|fault|fleet|bench-gate|ccabench|loc)" >&2
    exit 2
    ;;
esac

echo "CI OK ($MODE)"
