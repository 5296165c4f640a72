#!/usr/bin/env bash
# Profiling helper: build a bench with debug symbols in a dedicated
# build dir and profile it, so perf PRs start from data.
#
# Modes:
#   scripts/profile.sh <bench> [args...]          gprof flat profile
#   scripts/profile.sh --perf <bench> [args...]   perf record + report
#                                                 (plus a collapsed-stack
#                                                 file flamegraph.pl or
#                                                 speedscope can render)
#
#   e.g. scripts/profile.sh fig14_blockhammer --windows 1 --jobs 1
#        scripts/profile.sh --perf fig03_perf_attacks --windows 1 --jobs 1
#
#   Benches run the event engine only; the per-tick oracle
#   (tests/oracle/) runs inside test binaries, e.g.
#        scripts/profile.sh scheduler_equivalence_test --gtest_filter='*Window*'
#
#   PROF_BUILD_DIR   profiling build dir (default: <repo>/build-prof)
#   PROF_TOP         report lines to print (default: 20)
#   PROF_OUT         where --perf leaves perf.data and the collapsed
#                    stacks (default: <repo>/prof-out)
#
# Notes:
#   - gprof samples the main thread only; pass --jobs 1 to benches that
#     sweep through ParallelRunner. --perf mode profiles all threads.
#   - --perf needs perf(1) and a kernel that permits sampling
#     (perf_event_paranoid <= 2 for user-space-only -e cycles:u); the
#     default container image ships no perf, so the mode probes for it
#     and exits with a clear message instead of half-running.
#
# Honest-comparison rule: numbers from different days, machines, or
# build dirs are not comparable. Time a change with
# scripts/bench_pairs.sh, which builds both revisions' dapper-bench and
# runs them as pinned concurrent pairs. The same applies to profiles: a
# flamegraph from last week's container says nothing about today's diff.

set -euo pipefail

MODE="gprof"
if [ "${1:-}" = "--perf" ]; then
    MODE="perf"
    shift
fi

if [ $# -lt 1 ]; then
    echo "usage: $0 [--perf] <bench> [bench-args...]" >&2
    exit 2
fi

BENCH="$1"
shift

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${PROF_BUILD_DIR:-$REPO_ROOT/build-prof}"
TOP="${PROF_TOP:-20}"

if [ "$MODE" = "perf" ] && ! command -v perf > /dev/null 2>&1; then
    echo "$0: perf(1) not found; install linux-perf or use the default" \
         "gprof mode" >&2
    exit 1
fi

# -fno-omit-frame-pointer keeps perf's frame-pointer unwinder honest;
# it is harmless for gprof.
CXX_FLAGS="-O2 -g -fno-omit-frame-pointer"
[ "$MODE" = "gprof" ] && CXX_FLAGS="-pg $CXX_FLAGS"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$CXX_FLAGS" > /dev/null
cmake --build "$BUILD_DIR" --target "$BENCH" -j"$(nproc)" > /dev/null

if [ "$MODE" = "gprof" ]; then
    RUN_DIR="$(mktemp -d)"
    trap 'rm -rf "$RUN_DIR"' EXIT
    echo "running $BENCH $* (gprof)..." >&2
    (cd "$RUN_DIR" && "$BUILD_DIR/$BENCH" "$@" > /dev/null)
    # Flat profile header (5 lines) + top functions.
    gprof -b "$BUILD_DIR/$BENCH" "$RUN_DIR/gmon.out" |
        head -n "$((TOP + 5))"
    exit 0
fi

OUT_DIR="${PROF_OUT:-$REPO_ROOT/prof-out}"
mkdir -p "$OUT_DIR"
echo "running $BENCH $* (perf record)..." >&2
perf record -o "$OUT_DIR/perf.data" -F 997 -g --call-graph fp \
    -- "$BUILD_DIR/$BENCH" "$@" > /dev/null

echo >&2
perf report -i "$OUT_DIR/perf.data" --stdio --no-children |
    grep -v '^#' | head -n "$TOP"

# Collapsed stacks: one "frame;frame;frame count" line per unique
# stack — feed to flamegraph.pl (Brendan Gregg's FlameGraph repo) or
# paste into speedscope.app to browse.
perf script -i "$OUT_DIR/perf.data" |
    awk '
        /^[^\s#]/ && NF >= 2 { inStack = 1; stack = ""; next }
        inStack && NF == 0 {
            if (stack != "") counts[stack]++
            inStack = 0; next
        }
        inStack {
            frame = $2
            stack = (stack == "") ? frame : frame ";" stack
        }
        END { for (s in counts) print s, counts[s] }
    ' > "$OUT_DIR/collapsed.txt"
echo "wrote $OUT_DIR/perf.data and $OUT_DIR/collapsed.txt" \
     "(flamegraph.pl-ready)" >&2
