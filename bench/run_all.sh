#!/usr/bin/env bash
# Collect the structured results every scenario bench emits (--json via
# the Scenario/Runner ResultTable; no log scraping) into one snapshot:
#
#   BENCH_all.json   every bench's ResultTable JSON, embedded verbatim
#   bench_json/      the per-bench files it was built from
#
# Each file is validated with scripts/check_bench_json.py before the
# snapshot is published. Simulator speed is measured by dapper-bench
# (BENCHMARK.json), not here.
#
# Usage: bench/run_all.sh [--full] [build-dir]
#   --full           run the complete 57-workload population (nightly CI;
#                    not fig_multiprog, whose mixes are its population)
#   BENCH_ARGS       args for every bench  (default: --windows 1 --scale 64;
#                    no --nrh, which the N_RH-sweep benches reject)
#   OUT_DIR          where the JSON files land (default: repo root)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_ARGS="${BENCH_ARGS:---windows 1 --scale 64}"
FULL=""
BUILD_DIR=""
for arg in "$@"; do
    case "$arg" in
        --full) FULL="--full" ;;
        *) BUILD_DIR="$arg" ;;
    esac
done
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
OUT_DIR="${OUT_DIR:-$REPO_ROOT}"

if [ ! -d "$BUILD_DIR" ]; then
    echo "build dir $BUILD_DIR not found; run: cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

# All JSON is staged under temp paths and published with a final mv
# only after every bench ran and validated — a bench that crashes
# mid-run must never leave a torn BENCH_all.json or a half-filled
# bench_json/ behind masquerading as a complete snapshot.
ALL_JSON="$OUT_DIR/BENCH_all.json"
JSON_DIR="$OUT_DIR/bench_json"
ALL_TMP="$ALL_JSON.tmp.$$"
JSON_DIR_TMP="$JSON_DIR.tmp.$$"

cleanup() {
    rm -f "$ALL_TMP"
    rm -rf "$JSON_DIR_TMP"
}
trap cleanup EXIT

# The benches that run scenario grids and so emit ResultTable JSON.
# tab02 / tab03 are closed-form and have no JSON to give.
SIM_BENCHES="fig01_motivation fig03_perf_attacks fig04_nrh_sensitivity \
fig05_llc_sensitivity fig09_dapper_s_agnostic fig10_dapper_h_agnostic \
fig11_dapper_h_benign fig12_nrh_sweep fig13_blast_radius fig14_blockhammer \
fig15_probabilistic_benign fig16_probabilistic_attack fig17_prac \
fig_multiprog ablation_dapper_h tab04_energy"

mkdir -p "$JSON_DIR_TMP"
{
    echo '{'
    echo '  "generated_by": "bench/run_all.sh",'
    echo "  \"args\": \"$BENCH_ARGS${FULL:+ $FULL}\","
    echo '  "benches": ['
} > "$ALL_TMP"

first=1
for bench in $SIM_BENCHES; do
    bin="$BUILD_DIR/$bench"
    [ -x "$bin" ] || { echo "skipping $bench (not built)" >&2; continue; }
    bench_json="$JSON_DIR_TMP/$bench.json"
    args="$BENCH_ARGS"
    [ "$bench" = fig_multiprog ] || args="$args${FULL:+ $FULL}"
    echo "running $bench $args" >&2
    # shellcheck disable=SC2086
    "$bin" $args --json "$bench_json" > /dev/null
    [ $first -eq 1 ] || echo ',' >> "$ALL_TMP"
    first=0
    printf '    {"name": "%s", "results":\n' "$bench" >> "$ALL_TMP"
    sed 's/^/    /' "$bench_json" >> "$ALL_TMP"
    printf '    }' >> "$ALL_TMP"
done
{
    echo ''
    echo '  ]'
    echo '}'
} >> "$ALL_TMP"

# Validate the bench-emitted JSON against the schema when python3 is
# around (CI always validates; local runs skip silently without it) —
# before publishing, so a schema regression never overwrites a good
# snapshot with a bad one.
if command -v python3 > /dev/null 2>&1; then
    for bench_json in "$JSON_DIR_TMP"/*.json; do
        [ -e "$bench_json" ] || continue
        python3 "$REPO_ROOT/scripts/check_bench_json.py" "$bench_json" >&2
    done
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$ALL_TMP"
fi

# Publish atomically: the staged tree replaces the previous snapshot
# only now that every bench ran and every file validated.
rm -rf "$JSON_DIR"
mv "$JSON_DIR_TMP" "$JSON_DIR"
mv "$ALL_TMP" "$ALL_JSON"
echo "wrote $ALL_JSON" >&2
