"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong one.  Run with ``python -m pytest perfbench``."""

import dataclasses
from types import SimpleNamespace

import pytest

from perfbench import checks, dc_place, inputs, sim_fig12, stream_churn

GEOM = checks.Geometry(64, 32, [x for x in range(64) if x % 2 == 0])


@pytest.fixture(scope="module")
def perf():
    return checks.perf_tables(["gcc", "mcf"])


# -- running checks apart from the timed process ----------------------------

def test_isolated_returns_the_result_and_reports_a_raise():
    assert checks.isolated(sorted, [3, 1, 2]) == [1, 2, 3]
    with pytest.raises(RuntimeError, match="ValueError"):
        checks.isolated(int, "not a number")


def test_isolated_memory_does_not_count_in_the_callers_peak():
    import resource

    before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # More than the caller's peak so far: run in this process, it would
    # raise the peak by at least 32 MB.
    size = (before_kb << 10) + (32 << 20)

    def allocate():
        return len(b"x" * size)

    assert checks.isolated(allocate) == size
    grew_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kb
    assert grew_kb < 16 << 10


# -- economics -------------------------------------------------------------

def test_choice_accepts_the_program_argmax_and_rejects_others(perf):
    from repro.economics.market import Market
    from repro.economics.optimizer import UtilityOptimizer
    from repro.economics.utility import UTILITY2

    market = Market(name="m", slice_price=2.0, bank_price=1.0)
    choice = UtilityOptimizer().best("gcc", UTILITY2, market)
    args = (perf["gcc"], 2.0, 24.0, 2.0, 1.0)
    assert checks.check_choice(*args, choice.cache_kb, choice.slices,
                               choice.utility) == []
    other = next(cfg for cfg in perf["gcc"]
                 if cfg != (choice.cache_kb, choice.slices))
    assert checks.check_choice(*args, *other, choice.utility)
    assert checks.check_choice(*args, choice.cache_kb, choice.slices,
                               choice.utility * (1 + 1e-6))
    assert checks.check_choice(*args, 96.0, choice.slices, choice.utility)


def test_vcores_is_equation_2_clamped():
    cost = checks.vcore_cost(2.0, 1.0, 128.0, 2)  # 14
    assert checks.check_vcores(30.0, 2.0, 1.0, 128.0, 2, 2) == []
    assert checks.check_vcores(30.0, 2.0, 1.0, 128.0, 2, 3)
    assert checks.expected_vcores(cost * 20, 2.0, 1.0, 128.0, 2) == 8
    assert checks.expected_vcores(1.0, 2.0, 1.0, 128.0, 2) == 1


def test_step_rejects_overdemand_and_bad_prices():
    ok = dict(converged=True, rationed=False, slice_price=1.0,
              bank_price=0.5, slice_demand=1070.0, bank_demand=900.0,
              slice_supply=1024.0, bank_supply=1024.0, tolerance=0.05)
    assert checks.check_step(**ok) == []
    assert checks.check_step(**{**ok, "slice_demand": 1080.0})
    assert checks.check_step(**{**ok, "bank_demand": 1080.0})
    assert checks.check_step(**{**ok, "bank_price": 0.005})
    assert checks.check_step(**{**ok, "slice_price": float("nan")})
    assert checks.check_step(**{**ok, "slice_demand": 1080.0,
                                "rationed": True}) == []


def test_demand_sums_argmax_purchases(perf):
    c, s, _ = checks.best_config(perf["mcf"], 1.0, 30.0, 2.0, 1.0)
    v = 30.0 / checks.vcore_cost(2.0, 1.0, c, s)
    sd, bd = checks.demand(perf, [("mcf", 1.0, 30.0)] * 2, 2.0, 1.0)
    assert sd == pytest.approx(2 * v * s)
    assert bd == pytest.approx(2 * v * c / 64.0)


# -- placement -------------------------------------------------------------

def test_vcore_tiles_must_be_one_contiguous_row_run():
    assert checks.check_vcore_tiles(GEOM, [2, 4, 6], [3, 5], 3, 2) == []
    assert checks.check_vcore_tiles(GEOM, [2, 4, 8], [3, 5], 3, 2)
    assert checks.check_vcore_tiles(GEOM, [62, 64, 66], [3, 5], 3, 2)
    assert checks.check_vcore_tiles(GEOM, [2, 4], [3, 5], 3, 2)
    assert checks.check_vcore_tiles(GEOM, [2, 4, 6], [3, 4], 3, 2)
    assert checks.check_vcore_tiles(GEOM, [2, 4, 6], [3, 5, 7], 3, 2)
    assert checks.check_vcore_tiles(GEOM, [2, 4, 6], [99999], 3, 1)


def test_owned_tiles_split_into_runs_per_vcore():
    two_vcores = [0, 2, 4, 6, 1, 3]  # two adjacent 2-Slice runs, 1 bank each
    assert checks.check_owned_tiles(GEOM, two_vcores, 2, 1, 2) == []
    assert checks.check_owned_tiles(GEOM, [0, 2, 4, 1, 3], 2, 1, 2)
    assert checks.check_owned_tiles(GEOM, [0, 2, 4, 8, 1, 3], 2, 1, 2)
    assert checks.check_owned_tiles(GEOM, two_vcores + [5], 2, 1, 2)
    assert checks.check_owned_tiles(GEOM, [0, 0, 4, 6, 1, 3], 2, 1, 2)


def test_owned_tiles_of_a_real_tenant():
    from repro.cloud.service import TenantRequest
    from repro.economics.utility import UTILITY1
    from repro.experiments.datacenter_stream import build_service

    service = build_service()
    res = service.submit(TenantRequest("a", "gcc", UTILITY1, 40.0))
    assert res.admitted
    tiles = service.fabric.owned_by("a")
    banks = int(res.cache_kb // 64)
    assert checks.check_owned_tiles(GEOM, tiles, res.slices, banks,
                                    res.vcores) == []
    assert checks.check_owned_tiles(GEOM, tiles[:-1], res.slices, banks,
                                    res.vcores)
    assert checks.check_owned_tiles(GEOM, tiles, res.slices, banks,
                                    res.vcores + 1)


def test_disjoint_and_utilization():
    assert checks.check_disjoint([[1, 2], [3]]) == []
    assert checks.check_disjoint([[1, 2], [2, 3]])
    assert checks.check_utilization(10, 1, 2048, 11 / 2048) == []
    assert checks.check_utilization(10, 1, 2048, 12 / 2048)


def _one_round(market_names=("Market2",), tenants=12):
    """A small dc-place round built as ``dc_place.run`` builds it."""
    from repro.cloud.fabric import Fabric
    from repro.cloud.hypervisor import Hypervisor
    from repro.cloud.vm import VMSpec
    from repro.economics.optimizer import UtilityOptimizer

    state = dc_place.setup()
    markets = [m for m in state["markets"] if m.name in market_names]
    utility_list = [state["utilities"][n] for n, _ in inputs.UTILITIES]
    optimizer = UtilityOptimizer()
    archetypes = optimizer.table6(inputs.BENCHMARKS, utility_list, markets)
    people = inputs.tenants(inputs.rng_for("test", 0), tenants, "x")
    placements = []
    racks_of = {}
    op = 0
    for market in markets:
        racks = [Hypervisor(Fabric(64, 32))]
        for t in people:
            choice = archetypes[(market.name, t.utility, t.benchmark)]
            v = checks.expected_vcores(t.budget, market.slice_price,
                                       market.bank_price, choice.cache_kb,
                                       choice.slices)
            vm = racks[-1].place(VMSpec.uniform(v, choice.slices,
                                                choice.cache_kb))
            placements.append((op, market, t, choice, v, 0, vm))
            op += 1
        racks_of[market.name] = racks
    perf = checks.perf_tables(inputs.BENCHMARKS)
    return (perf, archetypes, optimizer.budget, markets, placements,
            racks_of, tenants)


def test_dc_place_round_accepts_real_output_and_rejects_tampering():
    perf, archetypes, budget, markets, placements, racks, n = _one_round()
    assert dc_place.check_round(perf, archetypes, budget, markets,
                                placements, racks, n) == (set(), [])

    # A VCore whose Slices are moved onto another VM's Slices.
    vm_a, vm_b = placements[0][6], placements[1][6]
    vm_b.placements[0] = (list(vm_a.placements[0][0]), vm_b.placements[0][1])
    bad, errors = dc_place.check_round(perf, archetypes, budget, markets,
                                       placements, racks, n)
    assert 0 in bad and 1 in bad and errors

    # A wrong archetype.
    perf, archetypes, budget, markets, placements, racks, n = _one_round()
    key = next(iter(archetypes))
    archetypes[key] = dataclasses.replace(archetypes[key],
                                          utility=archetypes[key].utility * 2)
    assert dc_place.check_round(perf, archetypes, budget, markets,
                                placements, racks, n)[1]

    # A wrong VCore count, and a lost tenant.
    perf, archetypes, budget, markets, placements, racks, n = _one_round()
    op, market, t, choice, v, rack, vm = placements[3]
    placements[3] = (op, market, t, choice, v + 1, rack, vm)
    del placements[5]
    bad, errors = dc_place.check_round(perf, archetypes, budget, markets,
                                       placements, racks, n)
    assert 3 in bad and errors


# -- streaming service -----------------------------------------------------

def test_stream_accounting():
    summary = SimpleNamespace(admitted=5, rejected_price=2,
                              rejected_capacity=2, departures=3)
    assert checks.stream_accounting(8, 3, 1, ["a", "b"], summary,
                                    ["a", "b"]) == []
    assert checks.stream_accounting(9, 3, 1, ["a", "b"], summary, ["a", "b"])
    assert checks.stream_accounting(8, 4, 1, ["a", "b"], summary, ["a", "b"])
    assert checks.stream_accounting(8, 3, 1, ["b", "a"], summary, ["a", "b"])


@pytest.fixture(scope="module")
def stream_round():
    state = stream_churn.setup()
    run = stream_churn.run(state, 3, 0.0, None)
    return state, run


def test_stream_replay_flags_a_wrong_outcome(stream_round):
    state, run = stream_round
    assert run["attempted"] == stream_churn.ROUND_EVENTS
    assert run["errors"] == [] and run["failed_ops"] == set()
    assert stream_churn.check(state, 3, run) == []
    assert run["failed_ops"] == set()

    records = list(run["first_round"])
    index = stream_churn.WARMUP_EVENTS + 7
    records[index] = records[index][:-1] + (records[index][-1] * 1.01,)
    bad, errors = stream_churn.replay(3, 0, records, state["utilities"])
    assert list(bad) == [index] and errors == []


def test_stream_audit_flags_wrong_outputs():
    state = stream_churn.setup()
    state["perf"] = checks.perf_tables(inputs.BENCHMARKS)
    from repro.experiments.datacenter_stream import build_service

    rnd = stream_churn._Round(build_service(kernel=state["kernel"]),
                              state["utilities"], 3, 0)
    for _ in range(600):
        rnd.event()
    geom = checks.Geometry.of(rnd.service.fabric)
    assert stream_churn.audit(rnd, state["perf"], geom) == ({}, [])

    admitted = next(i for i, (e, r, _) in enumerate(rnd.log)
                    if i > 200 and e.kind == "submit" and r.admitted)
    event, res, step = rnd.log[admitted]
    rnd.log[admitted] = (event, dataclasses.replace(
        res, vcores=res.vcores + 1), step)
    bad, errors = stream_churn.audit(rnd, state["perf"], geom)
    assert admitted in bad and errors  # wrong VCore count and tiles
    rnd.log[admitted] = (event, res, step)

    stepped = next(i for i, (e, r, s) in enumerate(rnd.log)
                   if i % stream_churn.STEP_CHECK_EVERY == 0 and s is not None
                   and s.converged and not s.rationed)
    event, res, step = rnd.log[stepped]
    rnd.log[stepped] = (event, res, dataclasses.replace(
        step, slice_price=step.slice_price / 1e4))
    bad, _ = stream_churn.audit(rnd, state["perf"], geom)
    assert stepped in bad


# -- simulator -------------------------------------------------------------

@pytest.fixture(scope="module")
def sim_point():
    from repro.core.batched import BatchedSimulator
    from repro.core.simulator import simulate
    from repro.trace.generator import make_workload

    warmup, trace = make_workload("gcc", 300, seed=5)
    timed = simulate(trace, num_slices=2, l2_cache_kb=128.0,
                     warmup_addresses=warmup).stats
    ref = BatchedSimulator(trace, [(2, 128.0)],
                           warmup_addresses=[warmup]).run()[0].stats
    return timed, ref


def test_sim_point_commits_the_trace_within_the_width(sim_point):
    timed, _ = sim_point
    assert checks.check_sim_point(timed, 300, 2) == []
    assert checks.check_sim_point(
        dataclasses.replace(timed, committed=timed.committed - 1), 300, 2)
    assert checks.check_sim_point(
        dataclasses.replace(timed, cycles=timed.committed // 4 - 1), 300, 2)


def test_sim_stats_equal_the_untimed_simulator(sim_point):
    timed, ref = sim_point
    assert checks.check_same_stats(timed, ref) == []
    assert checks.check_same_stats(
        dataclasses.replace(timed, cycles=timed.cycles + 1), ref)
    assert checks.check_same_stats(
        dataclasses.replace(timed, committed=timed.committed + 1), ref)
    stalls = dataclasses.replace(
        timed.stalls, fetch_icache=timed.stalls.fetch_icache + 1)
    assert checks.check_same_stats(
        dataclasses.replace(timed, stalls=stalls), ref)


def test_sim_fig12_check_marks_the_tampered_point(sim_point):
    timed, _ = sim_point
    from repro.trace.generator import make_workload

    warmup, trace = make_workload("gcc", 300, seed=5)
    sim_fig12.TRACE_LENGTH, length = 300, sim_fig12.TRACE_LENGTH
    try:
        assert sim_fig12.check_round(
            {"gcc": [(0, 2, warmup, trace, timed)]}) == {}
        off = dataclasses.replace(timed, cycles=timed.cycles + 1)
        assert list(sim_fig12.check_round(
            {"gcc": [(7, 2, warmup, trace, off)]})) == [7]
    finally:
        sim_fig12.TRACE_LENGTH = length
