#!/usr/bin/env python3
"""Build and run one workload of the wsearch benchmark.

Usage (from the root of a wsearch checkout):

    python3 perfbench/run.py --workload sim-ladder --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, Release) into the
directory named by CARGO_TARGET_DIR, default .bench_build, runs the
workload with every WSEARCH_* variable removed from its environment,
checks the simulated-counter digest against the recorded golden values
and the printed metrics against BENCHMARK.json, and prints the result
object as the last line of standard output. See perfbench/RATIONALE.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-ladder", "serve-hot")
GOLDEN = os.path.join(HERE, "golden_digests.json")
# Per workload and mode: (table in golden_digests.json, REPORT field).
# The traced run also replays the PLT1 system config, whose counters
# are digested as system_digest.
GOLDEN_FIELDS = {
    ("sim-ladder", 0): [("sim-ladder", "digest")],
    ("sim-ladder", 1): [("sim-ladder", "digest"),
                        ("sim-ladder-system", "system_digest")],
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.abspath(os.path.join(ROOT, d))
    # Everything the benchmark writes stays inside the checkout.
    if os.path.commonpath([d, ROOT]) != ROOT:
        d = os.path.join(ROOT, ".bench_build")
    return d


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wsearch sources next to perfbench/; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def source_sha():
    """sha256 over the benchmarked sources: src/ and perfbench/."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_golden(table, field, seed, report, golden):
    """Returns (checked, ok): a digest of the REPORT line against the
    one recorded for this seed."""
    recorded = golden.get(table, {}).get(str(seed))
    if recorded is None:
        return False, True
    return True, report.get(field) == recorded


def parse_output(lines):
    """Splits the binary's stdout into (passthrough, report, result)."""
    report, result, rest = None, None, []
    for line in lines:
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
        elif line.startswith('{"correct"'):
            result = json.loads(line)
        else:
            rest.append(line)
    return rest, report, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-sha", source_sha()]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WSEARCH_")}
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        sys.stdout.write(r.stdout)
        fail(f"{args.workload} exited with {r.returncode}")
    rest, report, result = parse_output(r.stdout.splitlines())
    if report is None or result is None:
        fail("benchmark printed no result")

    fields = GOLDEN_FIELDS.get((args.workload, args.trace), [])
    if fields:
        with open(GOLDEN) as f:
            golden = json.load(f)
    for table, field in fields:
        checked, ok = check_golden(table, field, args.seed, report, golden)
        report[f"golden_{field}"] = ("match" if ok else "MISMATCH") \
            if checked else "not recorded for this seed"
        if checked:
            result["attempted"] += 1
            if not ok:
                result["failed"] += 1
                result["correct"] = False
                rest.append(f"CHECK FAILED: {field} differs from the "
                            "recorded golden digest")

    declared = declared_metrics(args.trace)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        fail(f"printed metrics {printed} differ from BENCHMARK.json "
             f"{declared}")

    for line in rest:
        print(line)
    print("REPORT " + json.dumps(report))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
