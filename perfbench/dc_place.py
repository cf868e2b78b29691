"""dc-place: the datacenter_scale placement policy, through public calls.

Each round optimizes the 45 Table 6 archetypes in Markets 1-3 with a
fresh ``UtilityOptimizer.table6`` and then places a fresh batch of
benchmark-generated tenants in each market with
``Hypervisor.place(VMSpec.uniform(...))``, opening a new 64x32 rack
whenever the current one is full.  One op is one tenant's placement,
including any rack it opens.  Each round's racks are checked, outside
the timed section, and dropped before the next round.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.cloud.fabric import Fabric
from repro.cloud.hypervisor import Hypervisor
from repro.cloud.vm import VMSpec
from repro.economics.market import Market
from repro.economics.optimizer import UtilityOptimizer

from perfbench import checks, inputs
from perfbench.stream_churn import FABRIC_CALLS, _utilities
from perfbench.tracing import now, wrap

RACK_WIDTH, RACK_HEIGHT = 64, 32
#: Markets 1-3 of the paper: (name, Slice price, bank price).
MARKETS = (("Market1", 8.0, 1.0), ("Market2", 2.0, 1.0),
           ("Market3", 2.0, 4.0))
#: Tenants per market per round.
TENANTS_PER_ROUND = 1000
#: A round takes about this many reference seconds.
ROUND_SECONDS = 1.0
#: 360 ops lie beyond p99 in a 12 s run (12 rounds).  About 1.5% of
#: placements open a rack and place the first VM on it (about 2 ms
#: against a median of 0.35 ms); p99 lies inside that mode, away from
#: both its edges.  Across ten seeds p99 spread
#: 3%, p99.9 (in the sparse tail above the mode) 14-21%, and the highest
#: percentile with only ten ops beyond it 19%.
TAIL_Q = 0.99
#: The hypervisor keeps one single-Slice VCore on every rack.
HYPERVISOR_TILES = 1
#: The default rack layout: Slices in even columns, banks in odd ones.
GEOMETRY = checks.Geometry(RACK_WIDTH, RACK_HEIGHT,
                           [x for x in range(RACK_WIDTH) if x % 2 == 0])


def setup():
    """One optimizer and one rack, built the way each round builds them."""
    UtilityOptimizer()
    Hypervisor(Fabric(RACK_WIDTH, RACK_HEIGHT))
    markets = [Market(name=n, slice_price=sp, bank_price=bp,
                      fixed_cost=checks.FIXED_COST)
               for n, sp, bp in MARKETS]
    return {"utilities": _utilities(), "markets": markets}


def _new_rack(tracer, nid):
    span = tracer.begin(nid) if tracer else -1
    fabric = Fabric(RACK_WIDTH, RACK_HEIGHT)
    for call in FABRIC_CALLS:
        wrap(tracer, fabric, call, f"fabric.{call}")
    rack = Hypervisor(fabric)
    wrap(tracer, rack, "place", "hypervisor.place")
    if tracer:
        tracer.finish(span)
    return rack


def run(state, seed: int, seconds: float, tracer) -> Dict:
    markets, utilities = state["markets"], state["utilities"]
    utility_list = [utilities[name] for name, _ in inputs.UTILITIES]
    op_nid = tracer.name_id("op") if tracer else -1
    new_nid = tracer.name_id("fabric.new") if tracer else -1
    table6_nid = tracer.name_id("optimizer.table6") if tracer else -1
    op_starts, op_ends = array("d"), array("d")
    timed = []
    failed_ops = set()
    errors: List[str] = []
    op = 0
    racks_opened = 0
    rounds = inputs.rounds_for(seconds, ROUND_SECONDS)
    for round_index in range(rounds):
        tenants = inputs.tenants(inputs.rng_for("dc-place", seed, round_index),
                                 TENANTS_PER_ROUND, f"r{round_index}-")
        placements = []
        racks_of = {}
        t_round = now()
        span = tracer.begin(table6_nid) if tracer else -1
        optimizer = UtilityOptimizer()
        archetypes = optimizer.table6(inputs.BENCHMARKS, utility_list, markets)
        if tracer:
            tracer.finish(span)
        for market in markets:
            racks = [_new_rack(tracer, new_nid)]
            for tenant in tenants:
                if tracer:
                    tracer.current_op = op
                    span = tracer.begin(op_nid)
                start = now()
                try:
                    choice = archetypes[(market.name, tenant.utility,
                                         tenant.benchmark)]
                    vcores = max(1, min(checks.MAX_VCORES, int(
                        market.vcores_affordable(tenant.budget,
                                                 choice.cache_kb,
                                                 choice.slices))))
                    spec = VMSpec.uniform(num_vcores=vcores,
                                          slices_per_vcore=choice.slices,
                                          cache_kb_per_vcore=choice.cache_kb)
                    vm = racks[-1].place(spec)
                    if vm is None:
                        racks.append(_new_rack(tracer, new_nid))
                        vm = racks[-1].place(spec)
                    placements.append((op, market, tenant, choice, vcores,
                                       len(racks) - 1, vm))
                except Exception as exc:  # an op that raises is a failed op
                    failed_ops.add(op)
                    errors.append(f"op {op} raised {exc!r}")
                end = now()
                if tracer:
                    tracer.finish(span)
                op_starts.append(start)
                op_ends.append(end)
                op += 1
            racks_opened += len(racks)
            racks_of[market.name] = racks
        timed.append((t_round, now(), len(tenants) * len(markets)))
        # Outside the timed section: check this round, then drop it.
        if "perf" not in state:
            state["perf"] = checks.perf_tables(inputs.BENCHMARKS)
        bad, round_errors = checks.isolated(
            check_round, state["perf"], archetypes, optimizer.budget, markets,
            placements, racks_of, len(tenants))
        failed_ops.update(bad)
        errors += round_errors
    return {
        "attempted": op, "timed": timed,
        "op_starts": op_starts, "op_ends": op_ends, "tail_q": TAIL_Q,
        "failed_ops": failed_ops, "errors": errors, "rounds": rounds,
        "note": f"{rounds} rounds, {racks_opened} racks",
    }


def check_round(perf, archetypes, budget, markets, placements, racks_of,
                tenants_per_market):
    """Checks of one round: every archetype is an argmax, every VM has
    the Equation 2 VCore count and correctly shaped, unshared tiles, and
    each rack's utilization matches its placed tiles.  Returns ``(failed
    op ids, global errors)``."""
    errors: List[str] = []
    exponents = dict(inputs.UTILITIES)
    for (market_name, util, bench), choice in archetypes.items():
        market = next(m for m in markets if m.name == market_name)
        for e in checks.check_choice(perf[bench], exponents[util], budget,
                                     market.slice_price, market.bank_price,
                                     choice.cache_kb, choice.slices,
                                     choice.utility):
            errors.append(f"{market_name}/{util}/{bench}: {e}")
    if len(archetypes) != len(markets) * len(exponents) * len(perf):
        errors.append(f"table6 has {len(archetypes)} archetypes")
    bad = set()
    by_rack: Dict[tuple, List] = {}
    placed: Dict[str, int] = {}
    rejected: Dict[str, int] = {}
    for op, market, tenant, choice, vcores, rack, vm in placements:
        if vm is None:
            rejected[market.name] = rejected.get(market.name, 0) + 1
            continue
        placed[market.name] = placed.get(market.name, 0) + 1
        problems = checks.check_vcores(tenant.budget, market.slice_price,
                                       market.bank_price, choice.cache_kb,
                                       choice.slices, vcores)
        if vm.num_vcores != vcores or len(vm.placements) != vcores:
            problems.append(f"VM has {len(vm.placements)} placed VCores, "
                            f"want {vcores}")
        by_rack.setdefault((market.name, rack), []).append((op, vm))
        banks = int(round(choice.cache_kb / checks.BANK_KB))
        for slice_tiles, bank_tiles in vm.placements:
            problems += checks.check_vcore_tiles(
                GEOMETRY, slice_tiles, bank_tiles, choice.slices, banks)
        if problems:
            bad.add(op)
    for market in markets:
        n = placed.get(market.name, 0) + rejected.get(market.name, 0)
        if n != tenants_per_market:
            errors.append(f"{market.name}: placed + rejected = {n}, "
                          f"want {tenants_per_market}")
        racks = racks_of[market.name]
        counted = sum(r.stats.vms_placed for r in racks)
        if counted != placed.get(market.name, 0):
            errors.append(f"{market.name}: racks count {counted} VMs, "
                          f"{placed.get(market.name, 0)} were placed")
        for index, rack in enumerate(racks):
            vms = by_rack.get((market.name, index), [])
            tiles = [vm.all_tiles() for _, vm in vms]
            shared = checks.check_disjoint(
                tiles + [[rack.home_slice]])
            if shared:
                bad.update(op for op, _ in vms)
                errors += [f"{market.name} rack {index}: {e}" for e in shared]
            errors += [f"{market.name} rack {index}: {e}"
                       for e in checks.check_utilization(
                           sum(len(t) for t in tiles), HYPERVISOR_TILES,
                           RACK_WIDTH * RACK_HEIGHT,
                           rack.fabric.utilization())]
    return bad, errors


def check(state, seed: int, run) -> List[str]:
    """Each round was checked right after it (``check_round``)."""
    return run["errors"]


def layer_metrics(run, tracer) -> Dict[str, float]:
    """Per-layer figures per timed round (3000 placements), so that a run
    which fits more rounds in its seconds reports the same figures."""
    rounds = run["rounds"]
    out: Dict[str, float] = {}
    for name, t in tracer.layer_totals().items():
        if name == "op":
            continue
        out[f"{name}.calls"] = t["calls"] / rounds
        out[f"{name}.busy_ms"] = t["busy_s"] * 1e3 / rounds
        if name == "hypervisor.place":
            out[f"{name}.self_ms"] = t["self_s"] * 1e3 / rounds
    out.pop("optimizer.table6.calls")
    return out
