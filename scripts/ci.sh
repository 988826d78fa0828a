#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, format, perf gates. Run from anywhere;
# operates on the repo root. The workspace vendors all external deps under
# vendor/, so this works fully offline (--offline keeps cargo from touching
# the network at all).
#
# Usage: scripts/ci.sh [mode] [ref]
#   all        (default) every check below, in order
#   build-test release build + test suite
#   clippy     clippy with -D warnings
#   fmt        rustfmt --check
#   doc        rustdoc over the workspace with -D warnings (broken links)
#   examples   run every example in examples/; each asserts its own results
#   fault      the fault-injection suites under one CCA_FAULT_SEED
#   fleet      the multi-process kill-matrix under one CCA_FAULT_SEED
#   bench-gate every experiment's gates in fast mode (scripts/bench.sh)
#   ccabench   the end-to-end benchmark's own unit tests (its oracles
#              against known right and wrong answers), then its smoke run
#              (benchmark/, all six workloads with their oracles on, a few
#              seconds)
#   loc        non-test line counts per crate, vendor shims apart
#              (reports only; not in `all`);
#              given a git ref, also counts that commit and prints the
#              difference (ref, HEAD, delta per crate)
#   surface    every `pub` fn or type item in crates/*/src that no other
#              file names, less the names in scripts/surface_keep.txt;
#              fails if any is left
#   panics     every non-test `.unwrap()`, `.expect(`, `panic!` and
#              `unreachable!` in crates/*/src outside crates/bench, less
#              the sites scripts/panic_keep.txt keeps; fails if any is left
#   pairs      pairs <base-ref> <workload>[,<workload>...] [n=10] [seconds=4]
#              [seed=1999]: the end-to-end benchmark at <base-ref> and at
#              HEAD, n alternating pairs per workload (reports only; not
#              in `all`)
#   mutants    each scripts/mutants/*.patch applied to HEAD in turn, its
#              named fast-mode bench or test run: caught, missed or stale
#              (reports only; not in `all`)
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

# Every file in examples/ as a release binary, one after another. Several
# examples assert what they print (mxn_coupling checks every delivered
# element), so a non-zero exit from any of them fails the mode.
examples() {
    local f name
    for f in examples/*.rs; do
        name="$(basename "$f" .rs)"
        echo "==> cargo run --example $name"
        cargo run --offline --release --example "$name" > /dev/null
    done
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
# file and target directory, so the workspace's `cargo test` never runs its
# unit tests: they run here first, the oracles among them (a small catalog
# passes the repository's, a wrong answer does not). Then --smoke runs
# every workload for half a second with every oracle on and exits nonzero
# if any operation failed. Rows land in benchmark/out/*.json for the
# workflow to upload.
ccabench() {
    echo "==> ccabench unit tests"
    cargo test --offline --manifest-path benchmark/Cargo.toml
    echo "==> ccabench smoke run"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
}

# The one line-count rule line-budget claims are measured with: every line
# of every .rs file under crates/*/src and of every crate's build.rs,
# except the top-level items marked `#[cfg(test)]`, summed per crate and in
# total. A marked item is excluded from its attribute through its end: the
# first line ending in `;`, or, when a line ends in `{` first, the matching
# `}` in column 0 (rustfmt puts a top-level item's closing brace there).
# Code after a test module still counts. The vendored shims under
# vendor/*/src are counted by the same rule on a line of their own, outside
# the total. Counts the tree in the current directory.
#
# non_test_lines prints every line the rule counts in the files named on
# stdin, as `file:line:text`.
non_test_lines() {
    xargs awk '
        FNR == 1 { skip = 0 }
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
        { print FILENAME ":" FNR ":" $0 }'
}

loc_counts() {
    { find crates/*/src vendor/*/src -name '*.rs'; find crates/* -maxdepth 1 -name build.rs; } |
        sort | non_test_lines | awk -F: '
        { split($1, part, "/") }
        part[1] == "vendor" { vendor++; next }
        { lines[part[2]]++; total++ }
        END {
            for (c in lines) printf "%-12s %7d\n", c, lines[c] | "sort"
            close("sort")
            printf "%-12s %7d\n", "total", total
            printf "%-12s %7d\n", "vendor", vendor
        }'
}

# With a ref, the ref's tree is exported with `git archive` into a
# temporary directory, so the worktree is never touched.
loc() {
    echo "==> non-test lines in crates/*/src and crates/*/build.rs (vendor/*/src apart)"
    local ref="${1:-}"
    if [ -z "$ref" ]; then
        loc_counts
        return
    fi
    local base
    base="$(mktemp -d)"
    git archive "$ref" crates vendor | tar -x -C "$base"
    (cd "$base" && loc_counts) > "$base/counts"
    loc_counts | awk -v ref="$(git rev-parse --short "$ref")" '
        NR == FNR { old[$1] = $2; seen[$1] = 1; next }
        { new[$1] = $2; seen[$1] = 1 }
        END {
            printf "%-12s %7s %7s %7s\n", "crate", ref, "HEAD", "delta"
            for (c in seen) if (c != "total" && c != "vendor")
                printf "%-12s %7d %7d %+7d\n", c, old[c], new[c], new[c] - old[c] | "sort"
            close("sort")
            for (i = 1; i <= 2; i++) {
                c = i == 1 ? "total" : "vendor"
                printf "%-12s %7d %7d %+7d\n", c, old[c], new[c], new[c] - old[c]
            }
        }' "$base/counts" -
    rm -rf "$base"
}

# Panic sites outside test code, as `file: code`: every `.unwrap()`,
# `.expect(`, `panic!` and `unreachable!` on a line the loc rule counts in
# crates/*/src, crates/bench aside (a bench that fails should fail loudly).
# Comment lines and trailing `//` comments are dropped first, and a method
# of its own named `expect` (sidl's parser has one) is told apart by its
# `self.` receiver or its `fn`.
panic_sites() {
    find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort | non_test_lines | awk '
        {
            file = $0; sub(/:.*/, "", file)
            code = $0; sub(/^[^:]*:[^:]*:/, "", code)
        }
        code ~ /^[[:space:]]*\/\// { next }
        {
            sub(/[[:space:]]\/\/.*$/, "", code)
            probe = code
            gsub(/self\.expect\(|fn expect\(/, "", probe)
            if (probe ~ /\.unwrap\(\)|\.expect\(|panic!|unreachable!/) {
                gsub(/^[[:space:]]+|[[:space:]]+$/, "", code)
                print file ": " code
            }
        }'
}

# Every panic site must be on scripts/panic_keep.txt as `file: code  #
# invariant` (one keep line covers identical lines of one file; `#` at the
# start of a line is a comment), the invariant saying why the site cannot
# fire. A site reachable from decoded bytes or from a servant's call is
# never kept: it becomes a typed error. Fails on a site not kept, on a keep
# line with no invariant, and on a keep line no site matches any more, so
# the list cannot rot; prints the site count either way.
panics() {
    echo "==> panic sites outside test code (keep list: scripts/panic_keep.txt)"
    panic_sites | awk '
        NR == FNR {
            if ($0 ~ /^#/ || $0 ~ /^[[:space:]]*$/) next
            at = index($0, "  # ")
            if (at == 0 || substr($0, at + 4) ~ /^[[:space:]]*$/) {
                print "keep line states no invariant: " $0; bad++; next
            }
            kept[substr($0, 1, at - 1)] = 1
            next
        }
        {
            sites++
            if ($0 in kept) used[$0] = 1
            else { print "not kept: " $0; bad++ }
        }
        END {
            for (k in kept) if (!(k in used)) { print "stale keep line: " k; bad++ }
            printf "%d panic site(s), %d problem(s)\n", sites, bad
            exit bad > 0
        }' scripts/panic_keep.txt -
}

# Public items nothing else names: every `pub fn` (or `pub const fn`) and
# every `pub struct|enum|trait|type|const|static` declared in crates/*/src
# whose name appears, as a whole word, in no other .rs file under crates/,
# src/, tests/, examples/ or benchmark/src. A name used only inside its own
# file is listed too: its users, if any, could reach it without the `pub`.
# Names in scripts/surface_keep.txt (one a line, `#` starts a comment) are
# specification the tree reproduces whether or not a caller exists, and are
# left out. Prints `file:line name` per item and the count; fails when the
# count is not zero, so the surface cannot grow back unnoticed.
surface() {
    echo "==> pub items named in no other file (keep list: scripts/surface_keep.txt)"
    local keep file line name found=0
    keep="$(sed -e 's/#.*//' -e 's/[[:space:]]//g' scripts/surface_keep.txt | grep -v '^$' || true)"
    while IFS=: read -r file line name; do
        if grep -qxF "$name" <<< "$keep"; then
            continue
        fi
        if ! grep -rlw --include='*.rs' -- "$name" crates src tests examples benchmark/src 2>/dev/null |
            grep -qvxF "$file"; then
            echo "$file:$line $name"
            found=$((found + 1))
        fi
    done < <(find crates/*/src -name '*.rs' | sort |
        xargs grep -nE '^[[:space:]]*pub ((const )?fn|struct|enum|trait|type|const|static) [A-Za-z_]' |
        sed -E 's/^([^:]*):([0-9]*):.*pub ((const )?fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\5/')
    echo "$found unreferenced pub item(s)"
    [ "$found" -eq 0 ]
}

# Alternating pairs of the end-to-end benchmark (benchmark/, ccabench):
# <base-ref> and HEAD are exported with `git archive` into temporary
# directories, so the worktree and benchmark/Cargo.lock are never touched,
# and ccabench is built in each. Then, per workload, n pairs of untraced
# `ccabench run --workload W --seconds S --seed N` runs, the side that goes
# first alternating from pair to pair. For every end-to-end metric
# BENCHMARK.json declares, prints each side's median and quartiles, the
# pairs HEAD won (ties count for neither), the bound, and a verdict:
# `worse` when HEAD's median is worse than the base's by more than the
# bound, `unresolved` when either side's interquartile range exceeds the
# bound, `better` when HEAD won at least 9 in 10 of the pairs and its median
# is better than the base's by more than the base's q3 - q1, else `ok`.
# Last, each side's share of failed operations per workload.
pairs() {
    local usage="usage: scripts/ci.sh pairs <base-ref> <workload>[,<workload>...] [n=10] [seconds=4] [seed=1999]"
    local ref="${1:?$usage}" workloads="${2:?$usage}" n="${3:-10}" seconds="${4:-4}" seed="${5:-1999}"
    local root side w i first second
    PAIRS_ROOT="$(mktemp -d)"
    root="$PAIRS_ROOT"
    trap 'rm -rf "$PAIRS_ROOT"; reap_fleet_orphans' EXIT
    for side in base head; do
        mkdir -p "$root/$side"
        if [ "$side" = base ]; then
            git archive "$ref" | tar -x -C "$root/$side"
        else
            git archive HEAD | tar -x -C "$root/$side"
        fi
        echo "==> build ccabench at $side ($(git rev-parse --short "$([ "$side" = base ] && echo "$ref" || echo HEAD)"))"
        (cd "$root/$side" && cargo build --release --offline --manifest-path benchmark/Cargo.toml -q)
    done
    : > "$root/results"
    for w in ${workloads//,/ }; do
        for i in $(seq 1 "$n"); do
            if [ $((i % 2)) -eq 1 ]; then first=base second=head; else first=head second=base; fi
            for side in $first $second; do
                echo "==> $w pair $i/$n: $side"
                (cd "$root/$side" &&
                    benchmark/target/release/ccabench run --workload "$w" --seconds "$seconds" \
                        --seed "$seed" --trace 0 --out "$root/out-$side") > "$root/run.log" || true
                awk -v side="$side" -v pair="$i" -v w="$w" '
                    $1 == w && NF >= 4 && $2 != "FAILED" { print side, pair, w, $2, $3 }
                    /^\{"correct"/ {
                        a = $0; sub(/.*"attempted":/, "", a); sub(/[,}].*/, "", a)
                        f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
                        print side, pair, w, "failed", f
                        print side, pair, w, "attempted", a
                    }' "$root/run.log" >> "$root/results"
            done
        done
    done
    grep -o '{"name": *"[a-z_0-9]*"[^}]*"better": *"[a-z]*", *"bound": *[0-9.]*' \
        "$root/head/BENCHMARK.json" |
        sed -E 's/.*"name": *"([^"]*)".*"better": *"([^"]*)".*"bound": *([0-9.]*)/\1 \2 \3/' \
        > "$root/declared"
    awk -v n="$n" '
        function quantile(list, q,    v, k, m, t, pos, lo) {
            m = split(list, v, " ")
            for (k = 2; k <= m; k++) {
                t = v[k] + 0
                for (lo = k - 1; lo >= 1 && v[lo] + 0 > t; lo--) v[lo + 1] = v[lo]
                v[lo + 1] = t
            }
            pos = 1 + (m - 1) * q
            lo = int(pos)
            return lo >= m ? v[m] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        NR == FNR { better[$1] = $2; bound[$1] = $3; order[++metrics] = $1; next }
        {
            key = $3 SUBSEP $4
            vals[$1, key] = vals[$1, key] " " $5
            got[$1, $2, key] = $5
            if (!($3 in seen)) { seen[$3] = 1; wl[++workloads] = $3 }
        }
        END {
            printf "%-14s %-12s %11s %23s %11s %23s %8s %6s %6s  %s\n", "workload", "metric",
                "base", "[q1, q3]", "head", "[q1, q3]", "delta", "wins", "bound", "verdict"
            for (i = 1; i <= workloads; i++) {
                w = wl[i]
                for (j = 1; j <= metrics; j++) {
                    m = order[j]; key = w SUBSEP m
                    if (vals["base", key] == "" || vals["head", key] == "") continue
                    bm = quantile(vals["base", key], 0.5); hm = quantile(vals["head", key], 0.5)
                    b1 = quantile(vals["base", key], 0.25); b3 = quantile(vals["base", key], 0.75)
                    h1 = quantile(vals["head", key], 0.25); h3 = quantile(vals["head", key], 0.75)
                    sign = better[m] == "higher" ? 1 : -1
                    wins = 0; pairs = 0
                    for (p = 1; p <= n; p++) {
                        if (!(("base", p, key) in got) || !(("head", p, key) in got)) continue
                        pairs++
                        if (sign * (got["head", p, key] - got["base", p, key]) > 0) wins++
                    }
                    delta = bm != 0 ? (hm - bm) / bm : 0
                    verdict = "ok"
                    if (10 * wins >= 9 * pairs && sign * (hm - bm) > b3 - b1) verdict = "better"
                    if (bm != 0 && ((b3 - b1) / bm > bound[m] || (h3 - h1) / hm > bound[m]))
                        verdict = "unresolved"
                    if (-sign * delta > bound[m]) verdict = "worse"
                    printf "%-14s %-12s %11.4g [%10.4g, %10.4g] %11.4g [%10.4g, %10.4g] %+7.1f%% %3d/%-2d %6.2f  %s\n",
                        w, m, bm, b1, b3, hm, h1, h3, 100 * delta, wins, pairs, bound[m], verdict
                }
            }
            for (i = 1; i <= workloads; i++) {
                w = wl[i]
                for (s = 0; s < 2; s++) {
                    side = s ? "head" : "base"; f = 0; a = 0
                    for (p = 1; p <= n; p++) {
                        f += got[side, p, w SUBSEP "failed"]; a += got[side, p, w SUBSEP "attempted"]
                    }
                    share[side] = a > 0 ? f / a : 0
                    runs[side] = a
                }
                printf "%-14s failed share: base %.4g of %d ops, head %.4g of %d ops\n",
                    w, share["base"], runs["base"], share["head"], runs["head"]
            }
        }' "$root/declared" "$root/results"
}

# The committed mutants: each scripts/mutants/NN-name.patch is a past or
# plausible regression, with a header naming the gate or test that must
# turn red (`Red:`, a string its failure prints) and the cargo command that
# runs it (`Run:`). HEAD is exported with `git archive` into a temporary
# directory, as `pairs` does, so the worktree is never touched; each patch
# is applied there, its command run in fast mode, and the patch reverted.
# A mutant is caught when the command fails and its log shows the `Red:`
# string failing (the last such line is shown), missed otherwise (the log's
# last lines are shown), and stale when the patch no longer applies. A
# bench prints every metric's name whether its gate passes or not, so for a
# bench mutant only the gate's own `GATE FAILED  <bench>: <Red> =` line
# counts; a test mutant's `Red:` is a string its failure alone prints.
mutants() {
    local root patch name run red bench needle verdict
    MUTANTS_ROOT="$(mktemp -d)"
    root="$MUTANTS_ROOT"
    trap 'rm -rf "$MUTANTS_ROOT"; reap_fleet_orphans' EXIT
    mkdir -p "$root/tree"
    git archive HEAD | tar -x -C "$root/tree"
    for patch in "$(pwd)"/scripts/mutants/*.patch; do
        name="$(basename "$patch" .patch)"
        run="$(sed -n 's/^Run: //p' "$patch")"
        red="$(sed -n 's/^Red: //p' "$patch")"
        bench="$(sed -n 's/.*--bench \([^ ]*\).*/\1/p' <<< "$run")"
        needle="$red"
        if [ -n "$bench" ]; then
            needle="GATE FAILED  $bench: $red ="
        fi
        if ! (cd "$root/tree" && git apply --check "$patch" 2> /dev/null); then
            echo "stale   $name"
            continue
        fi
        echo "==> $name: cargo $run"
        (cd "$root/tree" && git apply "$patch")
        # `Run:` is a cargo argument list, split on purpose.
        if (cd "$root/tree" && CCA_BENCH_FAST=1 CCA_BENCH_OUT_DIR="$root/out" \
            CARGO_TARGET_DIR="$root/target" timeout -k 30 600 cargo $run --offline) \
            > "$root/log" 2>&1; then
            verdict=missed
        elif grep -qF -- "$needle" "$root/log"; then
            verdict=caught
        else
            verdict=missed
        fi
        (cd "$root/tree" && git apply -R "$patch")
        echo "$verdict  $name  ($red)"
        if [ "$verdict" = caught ]; then
            grep -F -- "$needle" "$root/log" | tail -n 1 | sed 's/^/    /'
        else
            tail -n 3 "$root/log" | sed 's/^/    /'
        fi
    done
}

case "$MODE" in
all)
    build_test
    clippy
    fmt
    doc
    surface
    panics
    examples
    fault
    fleet
    bench_gate
    ccabench
    ;;
build-test) build_test ;;
clippy) clippy ;;
fmt) fmt ;;
doc) doc ;;
examples) examples ;;
fault) fault ;;
fleet) fleet ;;
bench-gate) bench_gate ;;
ccabench) ccabench ;;
loc) loc "${2:-}" ;;
surface) surface ;;
panics) panics ;;
pairs) pairs "${@:2}" ;;
mutants) mutants ;;
*)
    echo "unknown mode '$MODE' (want all|build-test|clippy|fmt|doc|examples|fault|fleet|bench-gate|ccabench|loc|surface|panics|pairs|mutants)" >&2
    exit 2
    ;;
esac

echo "CI OK ($MODE)"
