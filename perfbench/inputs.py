"""The benchmark's own seeded inputs.

Everything a workload feeds the program is drawn here from
``random.Random`` seeded with the workload name, the ``--seed`` and a
round number, so the same seed gives the same inputs and no change to
the program can change them.  The tenant mix is the paper's Table 5
(15 benchmarks x 3 utility functions) with budgets uniform in 12-48;
the stream mix mirrors ``repro datacenter-stream``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Table 5 workloads, sorted.
BENCHMARKS: Tuple[str, ...] = (
    "apache", "astar", "bzip", "dedup", "ferret", "gcc", "gobmk",
    "h264ref", "hmmer", "libquantum", "mcf", "omnetpp", "perlbench",
    "sjeng", "swaptions",
)

#: Table 5 utility functions: name -> performance exponent k in
#: U = v^(1/k) * P^k.
UTILITIES: Tuple[Tuple[str, float], ...] = (
    ("Utility1", 1.0), ("Utility2", 2.0), ("Utility3", 3.0),
)

BUDGET_SPAN = (12.0, 48.0)

#: Stream mix: steady active population and the share of resizes.
ACTIVE_TARGET = 160
RESIZE_FRACTION = 0.06
#: Below the active target, arrivals outnumber departures this much.
DEPART_BELOW_TARGET = 0.45


def rounds_for(seconds: float, round_seconds: float) -> int:
    """How many rounds a run of ``seconds`` makes, for a workload whose
    round takes ``round_seconds`` at reference speed.  It depends on
    nothing else, so every run of a seed attempts the same ops however
    fast the program or the machine runs."""
    return max(1, round(seconds / round_seconds))


def rng_for(workload: str, seed: int, round_index: int = 0
            ) -> random.Random:
    """The generator for one round of one workload (string seeding is
    stable across processes and Python versions)."""
    return random.Random(f"{workload}/{seed}/{round_index}")


@dataclass(frozen=True)
class TenantSpec:
    name: str
    benchmark: str
    utility: str
    budget: float


def tenant(rng: random.Random, name: str) -> TenantSpec:
    lo, hi = BUDGET_SPAN
    bench = BENCHMARKS[rng.randrange(len(BENCHMARKS))]
    util = UTILITIES[rng.randrange(len(UTILITIES))][0]
    return TenantSpec(name=name, benchmark=bench, utility=util,
                      budget=rng.uniform(lo, hi))


def tenants(rng: random.Random, count: int, prefix: str) -> List[TenantSpec]:
    return [tenant(rng, f"{prefix}{i}") for i in range(count)]


@dataclass(frozen=True)
class StreamEvent:
    kind: str  # "submit" | "depart" | "resize"
    tenant: Optional[TenantSpec] = None
    tenant_id: str = ""
    budget: float = 0.0
    #: Whether the market reprices after this event.
    reprice: bool = True


class StreamClient:
    """One closed-loop client: it picks the next event from its own
    roster of admitted tenants, which the caller keeps current.

    The stream opens with ``ACTIVE_TARGET`` arrivals and a single
    repricing after the last of them (a provider opening with a queue of
    waiting tenants).  Started empty instead, prices fall to the floor
    while the rack is nearly empty, the first tenants buy very large
    VCores, and some seeds stay in that regime of ~20 tenants for tens
    of thousands of events while others leave it for ~100 tenants: runs
    then differ by 50% in events per second.
    """

    def __init__(self, seed: int, round_index: int = 0):
        self.rng = rng_for("stream-churn", seed, round_index)
        self.serial = 0
        self.active: List[str] = []

    def next_event(self) -> StreamEvent:
        rng, active = self.rng, self.active
        if self.serial < ACTIVE_TARGET:
            self.serial += 1
            return StreamEvent("submit", tenant=tenant(rng, f"t{self.serial}"),
                               reprice=self.serial == ACTIVE_TARGET)
        r = rng.random()
        if active and r < RESIZE_FRACTION:
            lo, hi = BUDGET_SPAN
            return StreamEvent("resize", tenant_id=rng.choice(active),
                               budget=rng.uniform(lo, hi))
        if active and (len(active) >= ACTIVE_TARGET
                       or r < DEPART_BELOW_TARGET):
            return StreamEvent("depart", tenant_id=rng.choice(active))
        self.serial += 1
        return StreamEvent("submit", tenant=tenant(rng, f"t{self.serial}"))

    def admitted(self, name: str) -> None:
        self.active.append(name)

    def departed(self, name: str) -> None:
        self.active.remove(name)
