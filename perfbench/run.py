#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
perfbench harness (perfbench/CMakeLists.txt, which compiles the repository's
libraries from src/) into .bench_build/perfbench; later runs only re-check
the build.  Build output goes to stderr.

Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`metrics` holds every end-to-end metric of BENCHMARK.json with --trace 0 and
every per-layer metric with --trace 1, each as {"value": v, "unit": u}; the
units come from BENCHMARK.json, where every metric is declared once.  The line
before it carries the host and build facts of the run.

`correct` is false when any operation failed its check, or when the exact
work counts of this run differ from an earlier run of the same seed on the
same sources (kept under .bench_build/invariants).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=800).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def invariants_repeat(workload, seed, invariants):
    """Record the run's exact counts; False when they drift from an earlier
    run of the same seed on identical sources."""
    if not invariants:
        return True
    d = os.path.join(ROOT, ".bench_build", "invariants", source_digest())
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}.json")
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != invariants:
            print(f"perfbench: exact counts drifted for seed {seed}: "
                  f"{earlier} -> {invariants}", file=sys.stderr)
            return False
        return True
    with open(path, "w") as f:
        json.dump(invariants, f, sort_keys=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found; run from the root of a checkout")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=args.seconds + 120, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if proc.returncode != 0:
        fail(f"benchmark run failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark run printed no result")
    raw = json.loads(lines[-1])

    repeat = invariants_repeat(args.workload, args.seed, raw["invariants"])
    measured = dict(raw["metrics"])
    measured.update(raw["invariants"])
    attempted, failed = raw["attempted"], raw["failed"]
    measured["failed_share"] = failed / attempted if attempted else 1.0

    # Every end-to-end metric is measured on every workload.  A per-layer
    # metric of a layer the workload does not exercise reads 0.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured and not args.trace:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}

    print(json.dumps({"host": raw["host"], "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": attempted >= 1 and failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
