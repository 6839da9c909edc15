#!/usr/bin/env python3
"""The FACS benchmark: builds the simulator and the benchmark program from
this checkout's sources, runs one workload, checks its output, and prints
the result as one JSON line.

    python3 facsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 facsbench/run.py --record-digests

Run it from anywhere inside a checkout; it reads and writes only inside the
checkout (build output under .bench_build/). Workloads: metro-1k,
paper-sweep, metro-serve (see facsbench/README.md).

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Lines before the last are the human-readable report: the
build and host manifest, the host calibration, failed checks and, when
traced, a table of every per-layer metric marked measured, exact or
derived. The last line is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--record-digests re-baselines facsbench/digests.json: the expected output
digest of every input variant of every workload. Only a change that is
meant to change the simulator's output bits should ever need it, and it
is then a benchmark change of its own.
"""

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "facsbench")
BINARY = os.path.join(BUILD, "facs_bench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("metro-1k", "paper-sweep", "metro-serve")
VARIANTS = 64  # kInputVariants in workloads.hpp
# Every run must end within 180 s; the benchmark program gets what is left.
RUN_LIMIT_S = 175.0


def fail(message):
    print("facsbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        fail("no simulator sources under %s/src; run from a checkout of the "
             "repository" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def revision():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_hash():
    """sha256 over the simulator and benchmark sources, so a result can be
    traced to its build without git."""
    h = hashlib.sha256()
    for top in ("src", "facsbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name == "digests.json" or not name.endswith(
                        (".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def last_json(text, what):
    lines = text.strip().splitlines()
    if not lines:
        fail(what + " printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(what + " did not end with a JSON line: " + lines[-1][:200])


def run_program(args, limit_s):
    """Runs the benchmark program and returns its stdout."""
    try:
        r = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=max(1.0, limit_s))
    except subprocess.TimeoutExpired:
        fail("facs_bench %s ran out of time" % args[0])
    if r.returncode != 0:
        fail("facs_bench %s exited with %d" % (args[0], r.returncode))
    return r.stdout


def expected_digest(workload, seed):
    try:
        with open(DIGESTS) as f:
            table = json.load(f)
        return table["digests"][workload][seed % VARIANTS]
    except (OSError, KeyError, IndexError, ValueError):
        return None


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(opts):
    start = time.monotonic()
    build()
    digest = expected_digest(opts.workload, opts.seed)
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if digest is not None:
        common += ["--expect", digest]

    # Cross-run checks first, in a process of their own (their extra runs
    # must not count toward this workload's peak RSS).
    checks_out = run_program(["check"] + common,
                             RUN_LIMIT_S - (time.monotonic() - start))
    checks = last_json(checks_out, "check")

    args = ["run"] + common + [
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--revision", revision(), "--source-hash", source_hash()]
    if opts.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, opts.workload + ".spans.csv")]
    out = run_program(args, RUN_LIMIT_S - (time.monotonic() - start))
    result = last_json(out, "run")
    for line in out.strip().splitlines()[:-1]:
        print(line)
    for line in checks_out.strip().splitlines()[1:-1]:
        print(line)
    print("# cross-run checks: %d attempted, %d failed"
          % (checks["attempted"], checks["failed"]))

    metrics = result["metrics"]
    names = benchmark_metrics(opts.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("benchmark program did not report " + ", ".join(missing))
    ordered = {n: metrics[n] for n in names}
    attempted = result["attempted"] + checks["attempted"]
    failed = result["failed"] + checks["failed"]
    finite = all(isinstance(m["value"], (int, float)) and
                 math.isfinite(m["value"]) for m in ordered.values())
    print("# failed_frac %d/%d" % (failed, attempted))
    print(json.dumps({"correct": failed == 0 and finite,
                      "attempted": attempted, "failed": failed,
                      "metrics": ordered}))


def record_digests():
    build()

    def one(job):
        workload, variant = job
        r = subprocess.run([BINARY, "digest", "--workload", workload,
                            "--seed", str(variant)],
                           cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            fail("digest of %s variant %d failed" % (workload, variant))
        return last_json(r.stdout, "digest")["digest"]

    table = {"variants": VARIANTS, "digests": {}}
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for workload in WORKLOADS:
            jobs = [(workload, v) for v in range(VARIANTS)]
            table["digests"][workload] = list(pool.map(one, jobs))
            print("recorded %s" % workload, file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    opts = parser.parse_args()
    if opts.record_digests:
        record_digests()
    elif opts.workload is None:
        parser.error("--workload is required")
    elif not 0 <= opts.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    else:
        measure(opts)


if __name__ == "__main__":
    main()
