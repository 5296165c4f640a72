#!/usr/bin/env bash
# Paired dapper-bench comparison of a parent revision against this
# checkout (working tree included), for perf claims.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD SECONDS SEED...
#   e.g. scripts/bench_pairs.sh HEAD~1 tracker-grid 30 0 1 2 3 4 5 6 7 8 9
#
# Each SEED is one pair: the parent and the change run
# `dapper-bench/run.py --trace 0` at the same time, each pinned with
# taskset to its own CPU, and the two CPUs swap sides from one pair to
# the next. The parent tree is exported with `git archive` (no worktree
# is registered in the repository), and each side builds into its own
# CARGO_TARGET_DIR, both before the first pair so no build overlaps a
# run. The summary gives, per end-to-end metric of BENCHMARK.json, every
# pair's change/parent ratio, each side's median and quartiles, and the
# change's win count. A gain holds when the change wins at least 9 in
# 10 pairs (ties count for neither side) and the medians differ by more
# than the parent's interquartile range.
#
#   BENCH_PAIRS_DIR   exports, builds and run logs
#                     (default: <repo>/.bench_pairs, reused across calls)
#   BENCH_PAIRS_CPUS  two CPUs as "A,B" (default: the first two this
#                     process may run on)

set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD SECONDS SEED..." >&2
    exit 2
fi
PARENT_REV="$1"
WORKLOAD="$2"
SECONDS_PER_RUN="$3"
shift 3

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${BENCH_PAIRS_DIR:-$REPO_ROOT/.bench_pairs}"
SHA="$(git -C "$REPO_ROOT" rev-parse --verify "$PARENT_REV^{commit}")"
PARENT_TREE="$WORK/parent-$SHA"
RUNS="$WORK/runs"
mkdir -p "$WORK" "$RUNS"

if [ -n "${BENCH_PAIRS_CPUS:-}" ]; then
    CPU_A="${BENCH_PAIRS_CPUS%,*}"
    CPU_B="${BENCH_PAIRS_CPUS#*,}"
else
    read -r CPU_A CPU_B < <(python3 -c \
        'import os; c = sorted(os.sched_getaffinity(0)); print(c[0], c[1 % len(c)])')
fi
if [ "$CPU_A" = "$CPU_B" ]; then
    echo "$0: need two CPUs, have only CPU $CPU_A" >&2
    exit 2
fi

if [ ! -d "$PARENT_TREE" ]; then
    mkdir -p "$PARENT_TREE.tmp"
    git -C "$REPO_ROOT" archive "$SHA" | tar -x -C "$PARENT_TREE.tmp"
    mv "$PARENT_TREE.tmp" "$PARENT_TREE"
fi

# side name -> checkout and build dir (run.py builds into
# $CARGO_TARGET_DIR/dapper-bench, Release).
tree() { if [ "$1" = parent ]; then echo "$PARENT_TREE"; else echo "$REPO_ROOT"; fi; }
target() { if [ "$1" = parent ]; then echo "$WORK/target-$SHA"; else echo "$WORK/target-change"; fi; }

jobs=$(python3 -c 'import os; print(min(4, len(os.sched_getaffinity(0))))')
for side in parent change; do
    bdir="$(target $side)/dapper-bench"
    if [ ! -f "$bdir/CMakeCache.txt" ]; then
        cmake -S "$(tree $side)/dapper-bench" -B "$bdir" \
            -DCMAKE_BUILD_TYPE=Release > "$WORK/build-$side.log"
    fi
    cmake --build "$bdir" -j "$jobs" >> "$WORK/build-$side.log"
done

run_side() { # side cpu seed out
    (cd "$(tree "$1")" && CARGO_TARGET_DIR="$(target "$1")" \
        taskset -c "$2" python3 dapper-bench/run.py --workload "$WORKLOAD" \
        --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0) \
        > "$4" 2> "$4.err"
}

results=()
k=0
for seed in "$@"; do
    if [ $((k % 2)) -eq 0 ]; then pcpu=$CPU_A; ccpu=$CPU_B; else pcpu=$CPU_B; ccpu=$CPU_A; fi
    p="$RUNS/$WORKLOAD-s$seed-parent.out"
    c="$RUNS/$WORKLOAD-s$seed-change.out"
    run_side parent "$pcpu" "$seed" "$p" &
    ppid=$!
    run_side change "$ccpu" "$seed" "$c" &
    cpid=$!
    wait "$ppid" || echo "$0: parent run failed (seed $seed, see $p.err)" >&2
    wait "$cpid" || echo "$0: change run failed (seed $seed, see $c.err)" >&2
    echo "pair $((k + 1)): seed $seed, parent on CPU $pcpu, change on CPU $ccpu" >&2
    results+=("$seed" "$p" "$c")
    k=$((k + 1))
done

python3 - "$REPO_ROOT/BENCHMARK.json" "$WORKLOAD" "${results[@]}" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
workload = sys.argv[2]
args = sys.argv[3:]
pairs = []  # (seed, parent result, change result)
for i in range(0, len(args), 3):
    res = []
    for path in args[i + 1:i + 3]:
        try:
            res.append(json.loads(open(path).read().strip().splitlines()[-1]))
        except (OSError, IndexError, json.JSONDecodeError):
            res.append({"correct": False, "failed": 1, "metrics": {}})
    pairs.append((args[i], res[0], res[1]))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print(f"workload {workload}: {len(pairs)} pairs, ratio = change / parent")
for seed, p, c in pairs:
    for side, r in (("parent", p), ("change", c)):
        if not r.get("correct") or r.get("failed"):
            print(f"  seed {seed}: {side} run incorrect or failed: "
                  f"correct={r.get('correct')} failed={r.get('failed')}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    rows = [(s, p["metrics"][name]["value"], c["metrics"][name]["value"])
            for s, p, c in pairs
            if name in p["metrics"] and name in c["metrics"]]
    if not rows:
        print(f"{name}: no complete pair")
        continue
    pv = [r[1] for r in rows]
    cv = [r[2] for r in rows]
    ratios = [c / p if p else float("inf") for _, p, c in rows]
    wins = sum((c < p) if lower else (c > p) for _, p, c in rows)
    ties = sum(c == p for _, p, c in rows)
    pq1, pmed, pq3 = quartiles(pv)
    cq1, cmed, cq3 = quartiles(cv)
    gain = cmed < pmed if lower else cmed > pmed
    holds = (wins * 10 >= 9 * len(rows) and gain
             and abs(cmed - pmed) > pq3 - pq1)
    unit = m["unit"]
    print(f"{name} [{unit}, {m['better']} is better]")
    print("  pair ratios: " + " ".join(
        f"s{s}:{r:.3f}" for (s, _, _), r in zip(rows, ratios)))
    print(f"  parent median {pmed:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g}, "
          f"IQR {pq3 - pq1:.3g})")
    print(f"  change median {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g}); "
          f"median ratio {statistics.median(ratios):.3f}")
    print(f"  change wins {wins}/{len(rows)} pairs ({ties} ties); "
          f"gain {'holds' if holds else 'not shown'} "
          f"(needs >= 9/10 wins and |median diff| > parent IQR)")
EOF
