#!/usr/bin/env python3
"""bench_e2e_smoke: a fast end-to-end check of dipdc_bench.

    smoke_test.py DIPDC_BENCH BENCHMARK_JSON

Runs `--quick` (1 child, 3 iterations or one pass over the inputs per
workload, full problem sizes) at seeds 1 and 7 and asserts that every
end_to_end metric BENCHMARK.json names is printed for every workload with
its unit, and that error_rate is 0.  A quick traced pass must print every
per_layer metric, and the same simulated metrics as the plain seed-1 run.
Then `--self-test`, which damages one output per workload after its run,
must make every workload's check fire (error_rate > 0).
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile


SIMULATED = ("sim_makespan_s", "sim_p99_latency_s")


def run(bench, workdir, *flags):
    proc = subprocess.run([bench, f"--workdir={workdir}", *flags],
                          capture_output=True, text=True, timeout=120)
    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and not line.startswith("#") and fields[2] != "absent":
            printed[(fields[0], fields[1])] = (float(fields[2]), fields[3])
    return proc, printed


def main():
    bench, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []

    def expect_metrics(printed, metrics, label):
        for w in workloads:
            for m in metrics:
                got = printed.get((w, m["name"]))
                if got is None:
                    errors.append(f"{label}: {w} {m['name']} not printed")
                elif got[1] != m["unit"]:
                    errors.append(f"{label}: {w} {m['name']} in {got[1]}, "
                                  f"expected {m['unit']}")

    with tempfile.TemporaryDirectory() as work:
        traced_out = os.path.join(work, "traced.json")
        invocations = {
            "--quick --seed=1": ("--quick", "--seed=1",
                                 f"--out={work}/plain1.json"),
            "--quick --seed=7": ("--quick", "--seed=7"),
            "--quick --traced": ("--quick", "--traced",
                                 f"--out={traced_out}"),
            "--quick --self-test": ("--quick", "--self-test"),
        }
        # Independent runs, so they go side by side: nothing here is timed.
        with concurrent.futures.ThreadPoolExecutor(len(invocations)) as pool:
            futures = {label: pool.submit(run, bench, work, *flags)
                       for label, flags in invocations.items()}
            results = {label: f.result() for label, f in futures.items()}

        for seed in (1, 7):
            label = f"--quick --seed={seed}"
            proc, printed = results[label]
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr}")
            expect_metrics(printed, spec["end_to_end"], label)
            for w in workloads:
                rate = printed.get((w, "error_rate"), (None,))[0]
                if rate != 0:
                    errors.append(f"{label}: {w} error_rate {rate}")

        label = "--quick --traced"
        proc, printed = results[label]
        if proc.returncode != 0:
            errors.append(f"{label}: exit {proc.returncode}: {proc.stderr}")
        expect_metrics(printed, spec["per_layer"], label)

        # The traced pass runs more work per iteration than a plain one, yet
        # must pool the same inputs: its simulated metrics match exactly.
        with open(os.path.join(work, "plain1.json")) as f:
            plain = json.load(f)["workloads"]
        with open(traced_out) as f:
            traced = json.load(f)["workloads"]
        for w in workloads:
            for m in SIMULATED:
                a = plain[w]["metrics"].get(m, {}).get("value")
                b = traced[w]["metrics"].get(m, {}).get("value")
                if a != b:
                    errors.append(f"{w} {m}: {a} plain, {b} traced")

        label = "--quick --self-test"
        proc, printed = results[label]
        if proc.returncode != 1:
            errors.append(f"{label}: exit {proc.returncode}, expected 1")
        for w in workloads:
            rate = printed.get((w, "error_rate"), (0,))[0]
            if not rate > 0:
                errors.append(f"{label}: {w} check did not fire "
                              f"(error_rate {rate})")

    for e in errors:
        print(e)
    print("bench_e2e_smoke:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
