#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload stream-churn --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` there.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones (measured with spans around each call
into a layer, written to ``.perfbench/spans-<workload>.csv.gz``).
Without the program's sources it exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "stream-churn": "perfbench.stream_churn",
    "dc-place": "perfbench.dc_place",
    "sim-fig12": "perfbench.sim_fig12",
}

#: Set-up is repeated this many times per run; its median is reported.
SETUP_REPEATS = 5


def rank_index(n: int, q: float) -> int:
    """Index of the ``q`` quantile of ``n`` sorted values, by nearest
    rank (``q = 1`` is the maximum)."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def end_to_end(run, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, in reference seconds."""
    import numpy as np

    lat = np.sort(np.frombuffer(run["op_ends"], dtype=float)
                  - np.frombuffer(run["op_starts"], dtype=float))
    if run["tail_q"] is None:  # too few ops for a tail
        tail_ms = float(np.median(lat)) * 1e3
    else:
        tail = rank_index(len(lat), run["tail_q"])
        tail_ms = float(lat[tail]) * 1e3
        if len(lat) - 1 - tail < 10:
            print(f"perfbench: fewer than ten ops beyond the "
                  f"p{run['tail_q'] * 100:g} tail", file=sys.stderr)
    return {
        "setup_s": setup_s,
        "ops_per_s": rate(run),
        "op_p50_ms": float(np.median(lat)) * 1e3,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }


def rate(run) -> float:
    """Work per second over all timed rounds.

    A workload's ``run(state, seed, seconds, tracer)`` makes a fixed
    number of whole rounds for ``seconds`` (``inputs.rounds_for``), each
    timed as ``(start, end, work)`` in ``run["timed"]``."""
    return (sum(work for _, _, work in run["timed"])
            / sum(b - a for a, b, _ in run["timed"]))


def to_reference(F, times: array) -> None:
    """Map an array of perf_counter times to reference seconds in place."""
    import numpy as np

    times[:] = array("d", F(np.frombuffer(times, dtype=float)).tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.clock import SpeedClock
    from perfbench.tracing import Tracer, now

    clock = SpeedClock()
    clock.start()
    try:
        t_import = now()
        try:
            workload = importlib.import_module(WORKLOADS[args.workload])
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}",
                  file=sys.stderr)
            return 2
        imported = now()
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = now()
            state = workload.setup()
            builds.append((t0, now()))
        tracer = Tracer() if args.trace else None
        run = workload.run(state, args.seed, args.seconds, tracer)
    finally:
        clock.stop()
    # The peak so far covers set-up and the timed rounds only: each
    # round's checks ran in a child process (``checks.isolated``).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw_s = sum(b - a for a, b, _ in run["timed"])
    raw_rate = rate(run)
    F = clock.normalize()
    setup_s = float(F(imported) - F(t_import)) + statistics.median(
        float(F(b) - F(a)) for a, b in builds)
    run["timed"] = [(float(F(a)), float(F(b)), work)
                    for a, b, work in run["timed"]]
    for times in (run["op_starts"], run["op_ends"]) + (
            (tracer.start, tracer.end) if tracer else ()):
        to_reference(F, times)

    # Everything below runs after the timed sections.
    errors = workload.check(state, args.seed, run)
    failed = len(run["failed_ops"])
    correct = not errors
    for line in errors[:10]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)

    if tracer is None:
        values = end_to_end(run, setup_s, peak_rss_mb)
    else:
        values = workload.layer_metrics(run, tracer)
        values["bench.ops_per_s"] = rate(run)
        values["bench.span_coverage"] = tracer.top_level_s() / sum(
            b - a for a, b, _ in run["timed"])
        values["bench.slowdown"] = clock.mean_slowdown()
        values["bench.raw_ops_per_s"] = raw_rate
        tracer.write(os.path.join(ROOT, ".perfbench",
                                  f"spans-{args.workload}.csv.gz"))
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(f"perfbench: {args.workload} seed={args.seed}: "
          f"{run['attempted']} ops ({failed} failed) in {raw_s:.2f} s timed "
          f"({raw_rate:.6g} work/s unscaled, machine slowdown "
          f"{clock.mean_slowdown():.3f}), {time.perf_counter() - T_PROCESS:.1f} s "
          f"total; {run['note']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
