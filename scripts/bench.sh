#!/usr/bin/env bash
# Runs every experiment under crates/bench/benches. Each publishes its own
# BENCH_<experiment>.json (atomically) into crates/bench/results/, or into
# $CCA_BENCH_OUT_DIR when set; none reads another's output, so any one of
# them can also be run alone with `cargo bench -p cca-bench --bench <name>`.
# --no-fail-fast: a bench that fails a gate (it lists every failing gate,
# then exits nonzero) does not stop the ones after it.
#
# CCA_BENCH_FAST=1 shrinks sample counts and workload sizes for CI. Every
# gate is a count or a ratio taken in its own run, so each binds on any
# host, in either mode.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo bench --offline -p cca-bench --no-fail-fast
