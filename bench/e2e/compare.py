#!/usr/bin/env python3
"""Noise-aware comparison of two commits' dipdc_bench result sets.

    compare.py --parent P1.json [P2.json ...] --change C1.json [C2.json ...]
               [--benchmark BENCHMARK.json] [--claim WORKLOAD:METRIC]

Each file is one `dipdc_bench --out=FILE` set, measured with identical
benchmark code and settings on the two commits.  For every workload and
every end-to-end metric of BENCHMARK.json the comparator prints each side's
median and quartiles over its sets and a verdict:

  ok          the change's median is no worse than the parent's by more
              than the metric's bound
  regressed   it is worse by more than the bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound, so
              the data cannot tell; unless every change set beats every
              parent set, which counts as ok
  improved    simulated metrics only: the (deterministic) value went down

error_rate (failed / attempted operations, summed over the sets) regresses
on any increase.  The simulated metrics (sim_makespan_s, sim_p99_latency_s)
are deterministic, so any change for the worse is a regression.

--claim WORKLOAD:METRIC additionally tests a claimed gain.  The i-th parent
and i-th change file form pair i; run at least 10 pairs, alternating which
side runs first.  The claim holds when the change wins at least 9/10 of the
pairs (ties count for neither) and the medians differ, in the better
direction, by more than the parent's IQR.

Exit status: 0 no regression (and the claim holds), 1 a regression or a
failed claim, 2 usage or input errors.
"""

import argparse
import json
import os
import statistics
import sys

EXACT = ("sim_makespan_s", "sim_p99_latency_s")
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))), "BENCHMARK.json")


def load(paths):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f)["workloads"])
    return sets


def values(sets, workload, metric):
    return [s[workload]["metrics"][metric]["value"] for s in sets
            if workload in s and metric in s[workload]["metrics"]]


def summary(vals):
    """(median, q1, q3); the quartiles need at least two values."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def worse_by(parent, change, better):
    """Relative change of `change` against `parent`; positive is worse."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(pvals, cvals, better, bound):
    """Verdict of one (workload, metric) under the noise rule."""
    pm, pq1, pq3 = summary(pvals)
    cm, _, _ = summary(cvals)
    if bound is None:  # exact
        if cm == pm:
            return "ok"
        return "regressed" if beats(pm, cm, better) else "improved"
    spread = (pq3 - pq1) / abs(pm) if pm else 0.0
    if len(pvals) < 2 or spread > bound:
        if all(beats(c, p, better) for c in cvals for p in pvals):
            return "ok"
        return "unresolved"
    return "regressed" if worse_by(pm, cm, better) > bound else "ok"


def error_rate(sets, workload):
    attempted = sum(s[workload]["attempted"] for s in sets if workload in s)
    failed = sum(s[workload]["failed"] for s in sets if workload in s)
    return failed / attempted if attempted else 0.0


def claim(pvals, cvals, better):
    """(holds, explanation) of a claimed gain over alternating pairs."""
    n = min(len(pvals), len(cvals))
    if n < 10 or len(pvals) != len(cvals):
        return False, f"need >= 10 pairs of equal count, got {len(pvals)}/{len(cvals)}"
    wins = sum(beats(c, p, better) for p, c in zip(pvals, cvals))
    pm, pq1, pq3 = summary(pvals)
    cm, _, _ = summary(cvals)
    gap = abs(cm - pm)
    holds = (wins >= 0.9 * n and beats(cm, pm, better) and gap > pq3 - pq1)
    return holds, (f"wins {wins}/{n}, median gap {gap:.6g} vs parent IQR "
                   f"{pq3 - pq1:.6g}")


def compare(parent, change, spec):
    """Yields (workload, metric, verdict, text) for every comparison."""
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, "lower", None) for name in EXACT]
    for w in workloads:
        for name, better, bound in metrics:
            pvals, cvals = values(parent, w, name), values(change, w, name)
            if not pvals or not cvals:
                continue
            v = verdict(pvals, cvals, better, bound)
            pm, pq1, pq3 = summary(pvals)
            cm, cq1, cq3 = summary(cvals)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            text = (f"parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cm:.6g} "
                    f"[{cq1:.6g}, {cq3:.6g}]  {100 * delta:+.2f}%  bound "
                    + ("exact" if bound is None else f"{100 * bound:.0f}%"))
            yield w, name, v, text
        pe, ce = error_rate(parent, w), error_rate(change, w)
        yield (w, "error_rate", "regressed" if ce > pe else "ok",
               f"parent {pe:.6g}  change {ce:.6g}  bound +0")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        parent, change = load(args.parent), load(args.change)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    status = 0
    for w, name, v, text in compare(parent, change, spec):
        print(f"{w:15s} {name:18s} {v:10s} {text}")
        if v == "regressed":
            status = 1
    if args.claim:
        w, _, name = args.claim.partition(":")
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}.get(name)
        if better is None:
            print(f"compare.py: {name} is not an end_to_end metric",
                  file=sys.stderr)
            return 2
        holds, why = claim(values(parent, w, name), values(change, w, name),
                           better)
        print(f"claim {w}:{name} {'holds' if holds else 'NOT MET'}: {why}")
        if not holds:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
