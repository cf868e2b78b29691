"""stream-churn: one closed-loop client driving an ``AllocationService``.

The service runs on one 64x32 rack (``datacenter_stream.build_service``)
and reprices after every event, as ``repro datacenter-stream`` does.
One op is one event plus the ``step()`` after it.

A run is a sequence of rounds.  Each round is one stream on a fresh
service: ``WARMUP_EVENTS`` untimed events (the opening arrivals and some
churn), then ``ROUND_EVENTS`` timed ones.  One long stream would not
repeat: its population, prices and fragmentation wander slowly, and
compactions (about 11 ms each, a few per thousand events) come in
bursts, so 15 s of one stream measured 2.8k-4.0k events/s across seeds.
Independent rounds average that out.  Each round is audited from its
log after its timed section, and the first round is replayed on a fresh
service: the same seed must give the same outcomes.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.cloud.service import TenantRequest
from repro.economics.utility import STANDARD_UTILITIES
from repro.experiments.datacenter_stream import build_service

from perfbench import checks, inputs
from perfbench.tracing import now, wrap

WARMUP_EVENTS = 1000
ROUND_EVENTS = 4000
#: A round's timed events take about this many reference seconds.
ROUND_SECONDS = 1.0
#: 48 ops lie beyond p99.9 in a 12 s run (12 rounds).  It sits
#: in the upper part of the compaction mode (about 0.6% of events
#: compact); p99 and p99.5 would sit on that mode's edge.  The highest
#: percentile with only ten ops beyond it spread 15% across seeds.
TAIL_Q = 0.999
#: The audit checks the argmax on every Nth submit and the market
#: clearing after every Nth event.
SUBMIT_CHECK_EVERY = 5
STEP_CHECK_EVERY = 200

FABRIC_CALLS = ("claim", "release", "find_contiguous_slices",
                "find_nearest_banks")


def _utilities():
    by_name = {u.name: u for u in STANDARD_UTILITIES}
    for name, k in inputs.UTILITIES:
        if by_name[name].perf_exponent != k:
            raise ValueError(f"{name} has exponent "
                             f"{by_name[name].perf_exponent}, want {k}")
    return by_name


def setup():
    """A service and its market kernel, every performance row built; the
    rounds' services share the kernel."""
    kernel = build_service().kernel
    kernel.prime(inputs.BENCHMARKS)
    for bench in inputs.BENCHMARKS:
        for _, k in inputs.UTILITIES:
            kernel.perf_pow_row(bench, k)
    return {"kernel": kernel, "utilities": _utilities()}


def _apply(service, utilities, event):
    if event.kind == "submit":
        t = event.tenant
        res = service.submit(TenantRequest(
            name=t.name, benchmark=t.benchmark,
            utility=utilities[t.utility], budget=t.budget))
    elif event.kind == "depart":
        service.depart(event.tenant_id)
        res = None
    else:
        res = service.resize(event.tenant_id, event.budget)
    step = service.step() if event.reprice else None
    return res, step


def _record(event, res, step):
    """The outcome of one event, as compared between run and replay."""
    if isinstance(res, Exception):
        return ("raised", event.kind, repr(res))
    subject = event.tenant.name if event.kind == "submit" else event.tenant_id
    out = (event.kind, subject)
    if res is not None:
        out += (res.admitted, res.reason, res.cache_kb, res.slices,
                res.vcores, res.utility)
    if step is not None:
        out += (step.rounds, step.converged, step.rationed,
                step.slice_price, step.bank_price)
    return out


def _track(client, event, res):
    if event.kind == "submit" and res.admitted:
        client.admitted(event.tenant.name)
    elif event.kind == "depart":
        client.departed(event.tenant_id)


class _Round:
    """One stream on a fresh service, with the log the audit reads:
    ``(event, result, step)`` per event, the result being the exception
    when the program raised."""

    def __init__(self, service, utilities, seed: int, index: int):
        self.service = service
        self.utilities = utilities
        self.client = inputs.StreamClient(seed, index)
        self.prices0 = service.prices()
        self.log: List[tuple] = []

    def event(self):
        """Issue the next event; returns ``(event, step)``, or ``None``
        when the program raised."""
        event = self.client.next_event()
        try:
            res, step = _apply(self.service, self.utilities, event)
        except Exception as exc:  # an op that raises is a failed op
            self.log.append((event, exc, None))
            if event.kind == "depart":
                self.client.departed(event.tenant_id)
            return None
        self.log.append((event, res, step))
        _track(self.client, event, res)
        return event, step


def audit(rnd: _Round, perf, geom) -> "tuple[Dict[int, str], List[str]]":
    """Check one round from its log, after the round: every Nth submit's
    configuration is an argmax at the prices then in force, every
    admission and resize has the Equation 2 VCore count, every Nth
    repricing clears the market, and at the end the accounting, the
    roster, every active tenant's tiles and the service's own invariants
    hold.  Returns ``(event index -> why it failed, round errors)``."""
    exponents = dict(inputs.UTILITIES)
    slice_price, bank_price = rnd.prices0
    #: name -> [benchmark, k, budget, cache_kb, slices, vcores]
    roster: Dict[str, list] = {}
    bad: Dict[int, str] = {}
    submits = departs = resizes_rejected = 0
    for i, (event, res, step) in enumerate(rnd.log):
        if event.kind == "submit":
            submits += 1
        elif event.kind == "depart":
            departs += 1
            roster.pop(event.tenant_id, None)
        if isinstance(res, Exception):
            bad[i] = f"raised {res!r}"
            continue
        problems = []
        if event.kind == "submit":
            t = event.tenant
            k = exponents[t.utility]
            if submits % SUBMIT_CHECK_EVERY == 1:
                problems += checks.check_choice(
                    perf[t.benchmark], k, t.budget, slice_price, bank_price,
                    res.cache_kb, res.slices, res.utility)
            if res.admitted:
                problems += checks.check_vcores(
                    t.budget, slice_price, bank_price, res.cache_kb,
                    res.slices, res.vcores)
                roster[t.name] = [t.benchmark, k, t.budget, res.cache_kb,
                                  res.slices, res.vcores]
        elif event.kind == "resize":
            if res.admitted:
                problems += checks.check_vcores(
                    event.budget, slice_price, bank_price, res.cache_kb,
                    res.slices, res.vcores)
                entry = roster[event.tenant_id]
                entry[2], entry[5] = event.budget, res.vcores
            elif res.reason == "rejected_capacity":
                resizes_rejected += 1
        if step is not None:
            slice_price, bank_price = step.slice_price, step.bank_price
            if i % STEP_CHECK_EVERY == 0:
                sd, bd = checks.demand(
                    perf, [entry[:3] for entry in roster.values()],
                    slice_price, bank_price)
                problems += checks.check_step(
                    step.converged, step.rationed, slice_price, bank_price,
                    sd, bd, rnd.service.slice_supply,
                    rnd.service.bank_supply, rnd.service.tolerance)
        if problems:
            bad[i] = checks.first_errors(problems)
    service = rnd.service
    errors = checks.stream_accounting(submits, departs, resizes_rejected,
                                      list(roster), service.summary(),
                                      service.active_tenants)
    owned = []
    for name, (_, _, _, cache_kb, slices, vcores) in roster.items():
        tiles = service.fabric.owned_by(name)
        owned.append(tiles)
        errors += [f"{name}: {e}" for e in checks.check_owned_tiles(
            geom, tiles, slices, int(round(cache_kb / checks.BANK_KB)),
            vcores)]
    errors += checks.check_disjoint(owned)
    try:
        service.verify_invariants()
    except Exception as exc:
        errors.append(f"verify_invariants: {exc}")
    return bad, errors


def _install(tracer, service):
    for call in ("submit", "depart", "resize", "step"):
        wrap(tracer, service, call, f"service.{call}")
    for call in FABRIC_CALLS:
        wrap(tracer, service.fabric, call, f"fabric.{call}")


def run(state, seed: int, seconds: float, tracer) -> Dict:
    kernel, utilities = state["kernel"], state["utilities"]
    op_nid = tracer.name_id("op") if tracer else -1
    op_starts, op_ends = array("d"), array("d")
    timed = []
    failed_ops = set()
    errors: List[str] = []
    compacting: List[int] = []
    totals = {"rounds": 0, "submits": 0, "admitted": 0, "rejected_price": 0,
              "rejected_capacity": 0, "compactions": 0, "fragmentation": 0.0}
    first_round = None
    rounds = inputs.rounds_for(seconds, ROUND_SECONDS)
    for index in range(rounds):
        rnd = _Round(build_service(kernel=kernel), utilities, seed, index)
        service = rnd.service
        for _ in range(WARMUP_EVENTS):
            rnd.event()
        before = service.summary()
        _install(tracer, service)
        first_op = index * ROUND_EVENTS
        t0 = now()
        for op in range(first_op, first_op + ROUND_EVENTS):
            if tracer is None:
                start = now()
                rnd.event()
                end = now()
            else:
                tracer.current_op = op
                span = tracer.begin(op_nid)
                start = now()
                compactions = service.summary().compactions
                done = rnd.event()
                if done is not None:
                    totals["rounds"] += done[1].rounds
                    if (done[0].kind == "depart" and
                            service.summary().compactions > compactions):
                        compacting.append(op)
                end = now()
                tracer.finish(span)
            op_starts.append(start)
            op_ends.append(end)
        timed.append((t0, end, ROUND_EVENTS))
        # Outside the timed section.
        after = service.summary()
        totals["submits"] += sum(1 for event, _, _ in rnd.log[WARMUP_EVENTS:]
                                 if event.kind == "submit")
        for key in ("admitted", "rejected_price", "rejected_capacity",
                    "compactions"):
            totals[key] += getattr(after, key) - getattr(before, key)
        totals["fragmentation"] += after.fragmentation
        if "perf" not in state:  # for the audit; not part of set-up
            state["perf"] = checks.perf_tables(inputs.BENCHMARKS)
        bad, round_errors = checks.isolated(
            audit, rnd, state["perf"], checks.Geometry.of(service.fabric))
        errors += [f"round {index}: {e}" for e in round_errors]
        for i in sorted(bad):
            if i < WARMUP_EVENTS:
                errors.append(f"round {index} warm-up event {i}: {bad[i]}")
            else:
                op = first_op + i - WARMUP_EVENTS
                failed_ops.add(op)
                print(f"perfbench: stream-churn op {op} failed: {bad[i]}")
        if first_round is None:
            first_round = [_record(*entry) for entry in rnd.log]
    return {
        "attempted": rounds * ROUND_EVENTS, "timed": timed,
        "op_starts": op_starts, "op_ends": op_ends,
        "tail_q": TAIL_Q, "failed_ops": failed_ops, "errors": errors,
        "first_round": first_round, "compacting": compacting,
        "totals": totals, "rounds": rounds,
        "note": (f"{rounds} rounds, {totals['compactions']} compactions in "
                 f"the timed events"),
    }


def check(state, seed: int, run) -> List[str]:
    """The audits made after each round, then a replay of the first
    round on a fresh service: the same seed must give the same outcomes
    (compared whole, as a digest would be), with every admission's
    tiles checked right after it."""
    errors = list(run["errors"])
    bad, replay_errors = replay(seed, 0, run["first_round"],
                                state["utilities"])
    errors += [f"round 0 replay: {e}" for e in replay_errors]
    for i in sorted(bad):
        if i < WARMUP_EVENTS:
            errors.append(f"round 0 replay, warm-up event {i}: {bad[i]}")
        else:
            run["failed_ops"].add(i - WARMUP_EVENTS)
            print(f"perfbench: stream-churn op {i - WARMUP_EVENTS} failed "
                  f"on replay: {bad[i]}")
    return errors


def replay(seed: int, index: int, records: List[tuple], utilities
           ) -> "tuple[Dict[int, str], List[str]]":
    """Re-run round ``index`` on a fresh service, comparing each event's
    outcome with ``records`` and checking the tiles of every tenant it
    admits or resizes.  Returns ``(event index -> why it failed, round
    errors)``."""
    service = build_service()
    geom = checks.Geometry.of(service.fabric)
    client = inputs.StreamClient(seed, index)
    bad: Dict[int, str] = {}
    for i, want in enumerate(records):
        event = client.next_event()
        try:
            res, step = _apply(service, utilities, event)
        except Exception as exc:
            bad[i] = f"raised {exc!r}"
            if event.kind == "depart":
                client.departed(event.tenant_id)
            continue
        problems = []
        got = _record(event, res, step)
        if got != want:
            problems.append(f"outcome {got} differs from the timed run's "
                            f"{want}")
        if res is not None and res.admitted:
            name = event.tenant.name if event.kind == "submit" \
                else event.tenant_id
            problems += checks.check_owned_tiles(
                geom, service.fabric.owned_by(name), res.slices,
                int(round(res.cache_kb / checks.BANK_KB)), res.vcores)
        _track(client, event, res)
        if problems:
            bad[i] = checks.first_errors(problems)
    errors = []
    try:
        service.verify_invariants()
    except Exception as exc:
        errors.append(f"verify_invariants: {exc}")
    return bad, errors


def layer_metrics(run, tracer) -> Dict[str, float]:
    """Per-layer figures per timed round (4000 events), so that a run
    which fits more rounds in its seconds reports the same figures."""
    import numpy as np

    rounds = run["rounds"]
    out: Dict[str, float] = {}
    for name, t in tracer.layer_totals().items():
        if name == "op":
            continue
        out[f"{name}.calls"] = t["calls"] / rounds
        out[f"{name}.busy_ms"] = t["busy_s"] * 1e3 / rounds
    name = np.frombuffer(tracer.name, dtype=np.intc)
    op = np.frombuffer(tracer.op, dtype=np.intc)
    spans = ((name == tracer.name_id("service.depart"))
             & np.isin(op, np.array(run["compacting"], dtype=np.intc)))
    totals = run["totals"]
    out["service.depart_compacting.calls"] = int(spans.sum()) / rounds
    out["service.depart_compacting.busy_ms"] = float(
        tracer.durations()[spans].sum()) * 1e3 / rounds
    out["service.step.rounds"] = totals["rounds"] / rounds
    out["service.admit_ratio"] = totals["admitted"] / totals["submits"]
    out["service.rejected_price"] = totals["rejected_price"] / rounds
    out["service.rejected_capacity"] = totals["rejected_capacity"] / rounds
    out["fabric.fragmentation"] = totals["fragmentation"] / rounds
    return out
