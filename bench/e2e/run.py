#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  It builds dipdc_bench from source into
.bench_build/ (the first run compiles the libraries, later runs only check
them), runs the workload with tracing off (--trace 0) or as the traced pass
(--trace 1), and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  Build output and the harness's own report go
to stderr.  Exits nonzero, printing no result, when the sources are missing,
the build fails or the harness cannot run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (first run only) and builds dipdc_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no dipdc sources under {ROOT}/src")
    tree = os.path.join(BUILD, "e2e")
    configure = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        if subprocess.run(configure, stdout=sys.stderr).returncode == 0:
            break
        if attempt == 1:
            fail("cmake configure failed")
        # A cache left by a tree at another path cannot be reused.
        shutil.rmtree(tree, ignore_errors=True)
    if subprocess.run(["cmake", "--build", tree, "--target", "dipdc_bench",
                       "-j", "4"], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(tree, "dipdc_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, f"result_{os.getpid()}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--workdir={work}", f"--out={out}"]
    if args.trace:
        cmd.append("--traced")
    # Exit 1 means a check failed; the result file still reports it.
    rc = subprocess.run(cmd, stdout=sys.stderr).returncode
    if rc not in (0, 1) or not os.path.isfile(out):
        fail(f"dipdc_bench exited with {rc}")
    with open(out) as f:
        result = json.load(f)["workloads"][args.workload]
    os.remove(out)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"{m['name']} not reported: "
                 f"{result['absent'].get(m['name'], 'missing')}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(json.dumps({"correct": rc == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
