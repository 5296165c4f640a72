#!/usr/bin/env python3
"""Validate a bench --json output (ResultTable rendering) against the
expected schema.

The benches emit their structured results themselves (bench_util
--json); bench/run_all.sh embeds the files into BENCH_all.json and CI
validates one against this checker. Stdlib-only on purpose: no
jsonschema dependency.

Beyond the flat per-scenario columns, every scenario must carry the
hierarchical telemetry introduced by the stats API (src/common/
stats.hh): a non-empty "stats" object of finite numbers covering at
least the core / llc / mem / energy / gt component trees, and a
"series" object with at least one non-empty "series.*" tREFI time
series. Values the flat columns duplicate (mitigations, activations,
max_damage, rh_violations, energy_nj) must agree exactly with their
stat counterparts.

Scenarios quarantined by a fleet campaign render as explicit gap rows:
the full cell identity plus "quarantined": true, a "quarantine_error"
string, and every metric / stats / series field present but null. Gap
rows are validated structurally (a hole must be a *deliberate* hole,
never a half-written row) and skip the telemetry checks.

Also validates dapper-fleet campaign manifests (the manifest.json a
FleetCampaign writes next to its shard journals): counter consistency,
the no-duplicate-results contract, and per-shard record accounting.
With --merged, the fleet-merged bench JSON is additionally checked
against the bench schema and cross-checked against the manifest's cell
count; a campaign that is fully accounted (completed + quarantined ==
unique cells) must render every grid cell, gaps included.

Usage: check_bench_json.py FILE [FILE...]
       check_bench_json.py --fleet-manifest MANIFEST [--merged MERGED]
Exits non-zero with a message naming the first offending field.
"""

import json
import math
import re
import sys

BASELINES = {"raw", "no-attack", "same-attack"}

# Every scenario must export at least these per-component stats
# ("tracker.*" is absent for the unprotected system, so not required).
REQUIRED_STATS = [
    "sys.ticks",
    "core.0.ipc",
    "llc.misses",
    "llc.droppedWritebacks",
    "mem.0.activations",
    "mem.0.p99ReadLatency",
    "energy.totalNj",
    "gt.maxDamage",
    "gt.violations",
    "series.points",
]

# (flat column, stat name) pairs that are one measurement, two views.
MIRRORED = [
    ("max_damage", "gt.maxDamage"),
    ("rh_violations", "gt.violations"),
    ("energy_nj", "energy.totalNj"),
]

# Cell identity: present and typed on every row, gap rows included.
IDENTITY_FIELDS = (
    "workload", "tracker", "attack", "baseline", "label", "nrh",
    "time_scale", "llc_bytes", "channels", "seed", "horizon",
)

# Measured values: typed on live rows, exactly null on quarantined gap
# rows (plus "stats" and "series", validated separately).
METRIC_FIELDS = (
    "benign_ipc", "normalized", "baseline_ipc", "mitigations",
    "bulk_resets", "counter_traffic", "activations", "max_damage",
    "rh_violations", "energy_nj",
)

# field -> (type check, description)
SCENARIO_FIELDS = {
    "workload": (lambda v: isinstance(v, str) and v, "non-empty string"),
    "tracker": (lambda v: isinstance(v, str) and v, "non-empty string"),
    "attack": (lambda v: isinstance(v, str) and v, "non-empty string"),
    "baseline": (lambda v: v in BASELINES, f"one of {sorted(BASELINES)}"),
    "label": (lambda v: isinstance(v, str), "string"),
    "nrh": (lambda v: isinstance(v, int) and v >= 1, "int >= 1"),
    "time_scale": (
        lambda v: isinstance(v, (int, float)) and v > 0,
        "number > 0",
    ),
    "llc_bytes": (lambda v: isinstance(v, int) and v > 0, "int > 0"),
    "channels": (lambda v: isinstance(v, int) and v >= 1, "int >= 1"),
    "seed": (lambda v: isinstance(v, int) and v >= 0, "int >= 0"),
    "horizon": (lambda v: isinstance(v, int) and v > 0, "int > 0"),
    "benign_ipc": (
        lambda v: isinstance(v, (int, float)) and v >= 0,
        "number >= 0",
    ),
    "normalized": (
        lambda v: isinstance(v, (int, float)) and v >= 0,
        "number >= 0",
    ),
    "baseline_ipc": (
        lambda v: isinstance(v, (int, float)) and v >= 0,
        "number >= 0",
    ),
    "mitigations": (lambda v: isinstance(v, int) and v >= 0, "int >= 0"),
    "bulk_resets": (lambda v: isinstance(v, int) and v >= 0, "int >= 0"),
    "counter_traffic": (
        lambda v: isinstance(v, int) and v >= 0,
        "int >= 0",
    ),
    "activations": (lambda v: isinstance(v, int) and v >= 0, "int >= 0"),
    "max_damage": (lambda v: isinstance(v, int) and v >= 0, "int >= 0"),
    "rh_violations": (
        lambda v: isinstance(v, int) and v >= 0,
        "int >= 0",
    ),
    "energy_nj": (
        lambda v: isinstance(v, (int, float)) and v >= 0,
        "number >= 0",
    ),
}


def fail(path, message):
    print(f"{path}: SCHEMA ERROR: {message}", file=sys.stderr)
    sys.exit(1)


def check_file(path):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(path, f"not readable JSON: {err}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string")
    if doc.get("schema_version") != 1:
        fail(path, f"'schema_version' must be 1, got {doc.get('schema_version')!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail(path, "'scenarios' must be a non-empty array")

    quarantined_rows = 0
    for index, row in enumerate(scenarios):
        if not isinstance(row, dict):
            fail(path, f"scenarios[{index}] must be an object")
        if row.get("quarantined") is True:
            quarantined_rows += 1
            check_gap_row(path, index, row)
            continue
        if "quarantined" in row:
            fail(path, f"scenarios[{index}].quarantined = "
                       f"{row['quarantined']!r}; live rows must omit "
                       "the marker entirely")
        for field, (check, expected) in SCENARIO_FIELDS.items():
            if field not in row:
                fail(path, f"scenarios[{index}] missing '{field}'")
            if not check(row[field]):
                fail(
                    path,
                    f"scenarios[{index}].{field} = {row[field]!r}, "
                    f"expected {expected}",
                )
        # A normalized value requires the baseline run it divides by.
        if row["baseline"] != "raw" and row["baseline_ipc"] <= 0:
            fail(
                path,
                f"scenarios[{index}]: baseline '{row['baseline']}' "
                "with baseline_ipc <= 0",
            )
        check_stats(path, index, row)

    gaps = f", {quarantined_rows} quarantined" if quarantined_rows else ""
    print(f"{path}: OK ({doc['bench']}, {len(scenarios)} scenarios{gaps})")


def check_gap_row(path, index, row):
    """Validate a quarantined gap row: identity intact, metrics null."""
    where = f"scenarios[{index}]"
    for field in IDENTITY_FIELDS:
        if field not in row:
            fail(path, f"{where} (quarantined) missing '{field}'")
        check, expected = SCENARIO_FIELDS[field]
        if not check(row[field]):
            fail(path, f"{where}.{field} = {row[field]!r}, expected "
                       f"{expected} even on a quarantined row")
    if not isinstance(row.get("quarantine_error"), str) \
            or not row["quarantine_error"]:
        fail(path, f"{where}.quarantine_error must be a non-empty "
                   "string on a quarantined row")
    for field in METRIC_FIELDS + ("stats", "series"):
        if field not in row:
            fail(path, f"{where} (quarantined) missing '{field}' — "
                       "gap rows carry every column as null")
        if row[field] is not None:
            fail(path, f"{where}.{field} = {row[field]!r} on a "
                       "quarantined row, expected null")


def check_stats(path, index, row):
    """Validate the per-scenario 'stats'/'series' telemetry section."""
    where = f"scenarios[{index}]"
    stats = row.get("stats")
    if not isinstance(stats, dict) or not stats:
        fail(path, f"{where}.stats must be a non-empty object")
    for name, value in stats.items():
        if not isinstance(name, str) or not name:
            fail(path, f"{where}.stats has a non-string key")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            fail(path, f"{where}.stats[{name!r}] = {value!r}, "
                       "expected a finite number")
    for name in REQUIRED_STATS:
        if name not in stats:
            fail(path, f"{where}.stats missing '{name}'")
    if row["tracker"] != "none":
        if "tracker.mitigations" not in stats:
            fail(path, f"{where}.stats missing 'tracker.mitigations'")
        if stats["tracker.mitigations"] != row["mitigations"]:
            fail(path, f"{where}: mitigations column "
                       f"{row['mitigations']} != tracker.mitigations "
                       f"stat {stats['tracker.mitigations']}")
    for column, stat in MIRRORED:
        if stats[stat] != row[column]:
            fail(path, f"{where}: {column} column {row[column]!r} != "
                       f"{stat} stat {stats[stat]!r}")

    series = row.get("series")
    if not isinstance(series, dict) or not series:
        fail(path, f"{where}.series must be a non-empty object")
    trefi_series = 0
    for name, values in series.items():
        if not isinstance(name, str) or not name.startswith("series."):
            fail(path, f"{where}.series key {name!r} must start with "
                       "'series.'")
        if not isinstance(values, list):
            fail(path, f"{where}.series[{name!r}] must be an array")
        for value in values:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) \
                    or not math.isfinite(value):
                fail(path, f"{where}.series[{name!r}] has non-finite "
                           f"value {value!r}")
        if len(values) != stats["series.points"]:
            fail(path, f"{where}.series[{name!r}] length {len(values)} "
                       f"!= series.points {stats['series.points']}")
        if values:
            trefi_series += 1
    if trefi_series == 0:
        fail(path, f"{where}.series has no non-empty tREFI time series")


def _nonneg_int(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def check_fleet_manifest(path, merged_path=None):
    """Validate a fleet campaign manifest.json (src/sim/fleet/)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(path, f"not readable JSON: {err}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    if doc.get("schema_version") != 1:
        fail(path, f"'schema_version' must be 1, got "
                   f"{doc.get('schema_version')!r}")
    if not isinstance(doc.get("campaign_id"), str) \
            or not re.fullmatch(r"[0-9a-f]{16}", doc["campaign_id"]):
        fail(path, "'campaign_id' must be a 16-hex-digit string")
    for field in ("cells", "unique_cells", "completed", "resumed",
                  "executed", "timeouts", "crashes", "retries",
                  "duplicate_results"):
        if not _nonneg_int(doc.get(field)):
            fail(path, f"'{field}' must be a non-negative int, got "
                       f"{doc.get(field)!r}")
    if not isinstance(doc.get("drained"), bool):
        fail(path, "'drained' must be a boolean")

    # Counter consistency.
    if doc["unique_cells"] > doc["cells"]:
        fail(path, "unique_cells exceeds cells")
    if doc["completed"] > doc["unique_cells"]:
        fail(path, "completed exceeds unique_cells")
    if doc["resumed"] + doc["executed"] != doc["completed"]:
        fail(path, f"resumed ({doc['resumed']}) + executed "
                   f"({doc['executed']}) != completed "
                   f"({doc['completed']})")
    # The robustness contract: no cell ever produces two results.
    if doc["duplicate_results"] != 0:
        fail(path, f"duplicate_results must be 0, got "
                   f"{doc['duplicate_results']} — a cell ran twice")

    quarantined = doc.get("quarantined")
    if not isinstance(quarantined, list):
        fail(path, "'quarantined' must be an array")
    for index, entry in enumerate(quarantined):
        where = f"quarantined[{index}]"
        if not isinstance(entry, dict):
            fail(path, f"{where} must be an object")
        for field in ("label", "last_error", "fingerprint"):
            if not isinstance(entry.get(field), str):
                fail(path, f"{where}.{field} must be a string")
        if not _nonneg_int(entry.get("attempts")) \
                or entry["attempts"] < 1:
            fail(path, f"{where}.attempts must be an int >= 1")
    if not doc["drained"] \
            and doc["completed"] + len(quarantined) < doc["unique_cells"]:
        fail(path, "campaign neither drained nor accounted for: "
                   f"completed {doc['completed']} + quarantined "
                   f"{len(quarantined)} < unique_cells "
                   f"{doc['unique_cells']}")

    shards = doc.get("shards")
    if not isinstance(shards, list) or not shards:
        fail(path, "'shards' must be a non-empty array")
    total_results = 0
    for index, shard in enumerate(shards):
        where = f"shards[{index}]"
        if not isinstance(shard, dict):
            fail(path, f"{where} must be an object")
        if not isinstance(shard.get("journal"), str) \
                or not re.fullmatch(r"shard_\d{4}\.journal",
                                    shard["journal"]):
            fail(path, f"{where}.journal must match "
                       "shard_NNNN.journal")
        for field in ("records", "results", "timeouts", "crashes",
                      "quarantines"):
            if not _nonneg_int(shard.get(field)):
                fail(path, f"{where}.{field} must be a non-negative "
                           "int")
        tallied = shard["results"] + shard["timeouts"] \
            + shard["crashes"] + shard["quarantines"]
        if tallied > shard["records"]:
            fail(path, f"{where}: typed records ({tallied}) exceed "
                       f"total records ({shard['records']})")
        total_results += shard["results"]
    # >= because journals may carry results for cells a superseded grid
    # no longer names; the merge only counts current-grid fingerprints.
    if total_results < doc["completed"]:
        fail(path, f"shard result records ({total_results}) cannot "
                   f"cover completed cells ({doc['completed']})")

    print(f"{path}: OK (fleet manifest, {doc['completed']}/"
          f"{doc['unique_cells']} cells, {len(shards)} shards)")

    if merged_path is not None:
        check_file(merged_path)
        with open(merged_path) as handle:
            merged = json.load(handle)
        rows = len(merged["scenarios"])
        gap_rows = sum(1 for row in merged["scenarios"]
                       if row.get("quarantined") is True)
        accounted = doc["completed"] + len(quarantined) \
            == doc["unique_cells"]
        if accounted and rows != doc["cells"]:
            fail(merged_path,
                 f"accounted campaign must render every grid cell "
                 f"(quarantined ones as gaps): {rows} scenarios != "
                 f"{doc['cells']} cells")
        if rows > doc["cells"]:
            fail(merged_path, f"{rows} scenarios exceed the campaign's "
                              f"{doc['cells']} cells")
        if quarantined and gap_rows == 0 and accounted:
            fail(merged_path,
                 f"manifest lists {len(quarantined)} quarantined "
                 "cell(s) but the merged table has no gap rows")
        if gap_rows and not quarantined:
            fail(merged_path,
                 f"merged table has {gap_rows} gap row(s) but the "
                 "manifest quarantined nothing")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if sys.argv[1] == "--fleet-manifest":
        args = sys.argv[2:]
        if not args:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        merged = None
        if "--merged" in args:
            at = args.index("--merged")
            if at + 1 >= len(args):
                print(__doc__, file=sys.stderr)
                sys.exit(2)
            merged = args[at + 1]
            del args[at:at + 2]
        if len(args) != 1:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_fleet_manifest(args[0], merged)
        return
    for path in sys.argv[1:]:
        check_file(path)


if __name__ == "__main__":
    main()
