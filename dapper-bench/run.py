#!/usr/bin/env python3
"""dapper-bench entry point: build, check the machine, run.

    python3 dapper-bench/run.py --workload perf-attack --seed 3 \\
        --seconds 30 --trace 0
    python3 dapper-bench/run.py --selftest

Run from the repository root (any checkout holding src/ and traces/).
`dapper_bench` is built with CMake from dapper-bench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build)/dapper-bench, Release.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. The line before it is {"provenance": {...}}: git sha and
dirty flag (when the checkout is a git repository), a digest of the
sources that were built, compiler and version, build type, nproc and the
load average just before the run. Quiet-machine warnings (load, other
logins, tmux sessions) go to stderr; see README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-run limit the benchmark promises, build excluded.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"dapper-bench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "dapper-bench")


def build(bdir):
    """Configure once, then build; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        fail(f"simulator sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, nproc()))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log})")


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(rf"{key}:[A-Z]+=(.*)", line)
                if m:
                    return m.group(1)
    except OSError:
        pass
    return None


def run_quiet(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.returncode, out.stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, ""


def source_digest():
    """sha256 over the built sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "dapper-bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(bdir):
    # Only a repository rooted at this checkout counts, not an enclosing one.
    code, top = run_quiet(["git", "rev-parse", "--show-toplevel"])
    in_repo = code == 0 and os.path.realpath(top.strip()) == \
        os.path.realpath(ROOT)
    code, sha = run_quiet(["git", "rev-parse", "HEAD"]) if in_repo else (1, "")
    git_sha = sha.strip() if code == 0 else None
    dirty = None
    if git_sha:
        code, status = run_quiet(["git", "status", "--porcelain"])
        dirty = bool(status.strip()) if code == 0 else None
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        code, text = run_quiet([compiler, "--version"])
        version = text.splitlines()[0] if code == 0 and text else None
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "nproc": nproc(),
        "loadavg": list(os.getloadavg()),
    }


def preflight(prov):
    """Warn, never stop, when the machine is not quiet (the `w` /
    `tmux ls` discipline: nobody else logged in, no other sessions)."""
    warnings = []
    load1 = prov["loadavg"][0]
    if load1 > 0.5 * prov["nproc"]:
        warnings.append(f"1-min load average {load1:.2f} on "
                        f"{prov['nproc']} CPUs")
    if shutil.which("w"):
        code, text = run_quiet(["w", "-h"])
        users = {line.split()[0] for line in text.splitlines() if line.strip()}
        if code == 0 and len(users) > 1:
            warnings.append(f"{len(users)} users logged in: "
                            f"{' '.join(sorted(users))}")
    if shutil.which("tmux"):
        code, text = run_quiet(["tmux", "ls"])
        if code == 0 and text.strip():
            warnings.append(f"tmux sessions running: "
                            f"{len(text.strip().splitlines())}")
    for w in warnings:
        print(f"dapper-bench: WARNING: machine not quiet: {w}",
              file=sys.stderr)
    prov["quiet"] = not warnings


def run_bench(bdir, argv, budget_s):
    """Run dapper_bench; a crash or hang becomes a failed operation."""
    proc = subprocess.Popen([os.path.join(bdir, "dapper_bench")] + argv,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget_s)
        hung = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        hung = True
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not hung and proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            if set(result) == {"correct", "attempted", "failed", "metrics"}:
                return result
        except json.JSONDecodeError:
            pass
    # The operation in flight aborted or hung: count it, and every
    # operation it already reported.
    ops = re.findall(r"^dapper-bench: op \d+ \S+ (\S+)", err, re.M)
    print(f"dapper-bench: dapper_bench {'hung' if hung else 'died'} "
          f"(exit {proc.returncode})", file=sys.stderr)
    return {"correct": False, "attempted": len(ops) + 1,
            "failed": sum(v != "ok" for v in ops) + 1, "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the attribution self-test and exit")
    args = ap.parse_args()
    if not args.selftest and (not args.workload or not args.seconds):
        ap.error("--workload and --seconds are required")

    bdir = build_dir()
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.call([os.path.join(bdir,
                                               "dapper_bench_selftest")],
                                 cwd=ROOT))

    start = time.monotonic()
    prov = provenance(bdir)
    preflight(prov)
    budget = RUN_LIMIT_S - (time.monotonic() - start)
    result = run_bench(bdir, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], budget)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
