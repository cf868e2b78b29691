#!/usr/bin/env python3
"""Check that the benchmark repeats: run every workload N times and
report each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py --runs 10 [--traced] [--json out.json]

Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  Run ``i`` uses
seed ``FIRST_SEED + i``, and the workload order alternates from run to
run.  The spread is (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``; a metric whose spread exceeds its
bound in ``BENCHMARK.json`` is flagged.  The share of failed ops must be
the same in every run.  Each workload then runs once on the held-out
seed, which must finish with zero failures.  ``--traced`` adds one traced run per workload
and reports the tracing overhead and the share of the timed wall that
top-level spans cover.  Runs are sequential, one process at a time.
Exits 1 if anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

#: Never used while the benchmark was tuned.
HELDOUT_SEED = 977
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["summary_line"] = lines[-2] if len(lines) > 1 else ""
    return result


def quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", default=None, help="write raw results here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: Dict[str, List[Dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = run_once(w, FIRST_SEED + i, seconds, 0)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {r['seed']}: "
                  f"ops_per_s={r['metrics']['ops_per_s']['value']:.6g} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)

    flags = []
    summary = {}
    print(f"\n{'workload':<13} {'metric':<12} {'median':>11} {'Q1':>11} "
          f"{'Q3':>11} {'spread':>7} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            flags.append(f"{w}: failed share differs between runs: {shares}")
        if not all(r["correct"] for r in runs):
            flags.append(f"{w}: a run reported correct=false")
        summary[w] = {}
        for name, bound in bounds.items():
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound}
            mark = ""
            if spread > bound:
                mark = " FLAG"
                flags.append(f"{w} {name}: spread {spread:.3f} > {bound}")
            elif spread > bound / 3:
                mark = " (> bound/3)"
            print(f"{w:<13} {name:<12} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f} {bound:>6}{mark}")

    heldout = {}
    for w in workloads:
        r = run_once(w, HELDOUT_SEED, seconds, 0)
        heldout[w] = r
        ok = r["correct"] and r["failed"] == 0
        print(f"held-out seed {HELDOUT_SEED} {w}: attempted={r['attempted']} "
              f"failed={r['failed']} correct={r['correct']}"
              f"{'' if ok else ' FLAG'}")
        if not ok:
            flags.append(f"{w}: held-out seed failed")

    traced = {}
    if args.traced:
        for w in workloads:
            r = run_once(w, FIRST_SEED, seconds, 1)
            traced[w] = r
            untraced = summary[w]["ops_per_s"]["median"]
            t_ops = r["metrics"]["bench.ops_per_s"]["value"]
            coverage = r["metrics"]["bench.span_coverage"]["value"]
            print(f"traced {w}: ops_per_s {t_ops:.6g} vs untraced median "
                  f"{untraced:.6g} ({(1 - t_ops / untraced) * 100:.1f}% "
                  f"overhead), top-level spans cover {coverage * 100:.1f}% "
                  f"of the timed wall")
            if coverage < 0.95:
                flags.append(f"{w}: spans cover {coverage:.3f} < 0.95")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seconds": seconds, "runs": results,
                       "summary": summary, "heldout": heldout,
                       "traced": traced}, fh, indent=1)
    for f in flags:
        print(f"FLAG: {f}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
