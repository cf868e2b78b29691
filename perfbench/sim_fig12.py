"""sim-fig12: the exact Figure 12 sweep on the cycle-level simulator.

One round is the Figure 12 grid, 1-8 Slices with a 128 KB L2, for gcc
and mcf: each grid point gets a trace of the Figure 12 length from
``get_workload`` and runs it through the default ``simulate()``.  One op
is one column of the figure: both benchmarks at one Slice count, traces
generated and simulated.  (Single ``simulate()`` calls fall in a fast
gcc mode and a slow mcf mode, so their median would sit between the
two.)  The work counted for ``ops_per_s`` is simulated instructions
committed.

Every point has its own trace seed: host time per instruction depends
on the trace (one gcc trace took 40% longer than another over the same
eight points), so runs built on one trace per benchmark measured
4.1k-5.0k instructions/s across seeds, while 16 traces per benchmark
average that out.  Trace generation is timed, since every point
generates.  After each round's timed section every point is checked and
re-simulated on ``BatchedSimulator``, which the workload does not time.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.core.batched import BatchedSimulator
from repro.core.simulator import simulate
from repro.trace.generator import make_workload
from repro.trace.materialize import get_workload

from perfbench import checks, inputs
from perfbench.tracing import now

#: gcc stays cache-resident; mcf's working set makes warm-up dominate.
PROFILES = ("gcc", "mcf")
#: The Figure 12 trace length (``scalability.run_simulated``).
TRACE_LENGTH = 4000
SLICES = (1, 2, 3, 4, 5, 6, 7, 8)
L2_KB = 128.0
#: A round takes about this many reference seconds, so a 12 s run is
#: one round.
ROUND_SECONDS = 15.0
#: 8 ops per round: no percentile has ten ops beyond it, so
#: ``op_tail_ms`` reports the median, like ``op_p50_ms``.
TAIL_Q = None
#: Simulated counters reported per profile (sums over the first round).
COUNTERS = (("core.cycles", "cycles"), ("core.committed", "committed"),
            ("core.branch_mispredicts", "branch_mispredicts"),
            ("cache.l1d_misses", "l1d_misses"),
            ("cache.l2_misses", "l2_misses"),
            ("network.remote_operand_hops", "remote_operand_hops"))


def setup():
    """A short simulation, so lazily built simulator state exists before
    timing (``make_workload`` is the unmemoized generator)."""
    warmup, trace = make_workload("gcc", 200, seed=0)
    simulate(trace, num_slices=2, l2_cache_kb=L2_KB, warmup_addresses=warmup)
    return {}


def trace_seed(seed: int, round_index: int, slices: int) -> int:
    return (seed * 1000 + round_index) * 10 + slices


def run(state, seed: int, seconds: float, tracer) -> Dict:
    names = {}
    if tracer:
        op_nid = tracer.name_id("op")
        for prof in PROFILES:
            names[prof] = (tracer.name_id(f"trace.get_workload.{prof}"),
                           tracer.name_id(f"core.simulate.{prof}"))
    rounds: List[Dict] = []
    op_starts, op_ends = array("d"), array("d")
    timed = []
    committed = 0
    failed_ops = set()
    op = 0
    for round_index in range(inputs.rounds_for(seconds, ROUND_SECONDS)):
        committed_before = committed
        t_round = now()
        record = {prof: [] for prof in PROFILES}
        for s in SLICES:
            if tracer:
                tracer.current_op = op
                op_span = tracer.begin(op_nid)
            start = now()
            for prof in PROFILES:
                if tracer:
                    span = tracer.begin(names[prof][0])
                warmup, trace = get_workload(
                    prof, TRACE_LENGTH, trace_seed(seed, round_index, s))
                if tracer:
                    tracer.finish(span)
                    span = tracer.begin(names[prof][1])
                result = simulate(trace, num_slices=s, l2_cache_kb=L2_KB,
                                  warmup_addresses=warmup)
                if tracer:
                    tracer.finish(span)
                committed += result.stats.committed
                record[prof].append((op, s, warmup, trace, result.stats))
            end = now()
            if tracer:
                tracer.finish(op_span)
            op_starts.append(start)
            op_ends.append(end)
            op += 1
        timed.append((t_round, end, committed - committed_before))
        # Outside the timed section: check the round, keep only its stats.
        for bad_op, why in checks.isolated(check_round, record).items():
            failed_ops.add(bad_op)
            print(f"perfbench: sim-fig12 op {bad_op} failed: {why}")
        rounds.append({prof: [(op_, s, stats) for op_, s, _, _, stats in pts]
                       for prof, pts in record.items()})
    return {
        "attempted": op, "timed": timed,
        "op_starts": op_starts, "op_ends": op_ends, "tail_q": TAIL_Q,
        "failed_ops": failed_ops, "rounds": rounds,
        "note": f"{len(rounds)} rounds of {len(SLICES)} columns",
    }


def check_round(record) -> Dict[int, str]:
    """Every point commits the trace at IPC <= 2 x Slices, and every
    SimStats field equals BatchedSimulator's for the same point; a
    column with a failing point is a failed op.  Returns ``failed op ->
    why``."""
    bad: Dict[int, str] = {}
    for prof, points in record.items():
        for op, s, warmup, trace, stats in points:
            reference = BatchedSimulator(
                trace, [(s, L2_KB)], warmup_addresses=[warmup]).run()[0]
            errors = checks.check_sim_point(stats, TRACE_LENGTH, s)
            errors += checks.check_same_stats(stats, reference.stats)
            if errors:
                bad[op] = (f"{prof} at {s} Slices: "
                           f"{checks.first_errors(errors)}")
    return bad


def check(state, seed: int, run) -> List[str]:
    """Each round was checked right after it (``check_round``)."""
    return []


def layer_metrics(run, tracer) -> Dict[str, float]:
    """Busy times per timed round (the whole grid); the simulated
    counters are sums over the first round's eight points."""
    rounds = len(run["rounds"])
    out: Dict[str, float] = {}
    totals = tracer.layer_totals()
    for prof in PROFILES:
        gen = totals.get(f"trace.get_workload.{prof}", {"busy_s": 0.0})
        sim = totals.get(f"core.simulate.{prof}", {"busy_s": 0.0})
        out[f"trace.get_workload.busy_ms.{prof}"] = gen["busy_s"] * 1e3 / rounds
        out[f"core.simulate.busy_ms.{prof}"] = sim["busy_s"] * 1e3 / rounds
        insts = sum(stats.committed for record in run["rounds"]
                    for _, _, stats in record[prof])
        out[f"core.host_us_per_inst.{prof}"] = sim["busy_s"] * 1e6 / insts
        first = [stats for _, _, stats in run["rounds"][0][prof]]
        for metric, field in COUNTERS:
            out[f"{metric}.{prof}"] = sum(getattr(st, field) for st in first)
    return out
