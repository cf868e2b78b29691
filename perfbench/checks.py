"""Checks of the program's outputs against computations made apart from it.

Each check returns a list of error strings (empty when the output is
right), so a caller can count failed ops and report why.  The economics
is recomputed in plain Python floats from the scalar
``AnalyticModel.performance`` and Equation 2; placements are checked
against the fabric geometry alone; simulator stats are compared against
the simulator implementation the workload does not time.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import sys
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

#: The configuration grid of Equation 3: L2 KB per VCore x Slices.
CACHE_GRID_KB: Tuple[float, ...] = (0.0, 64.0, 128.0, 256.0, 512.0,
                                    1024.0, 2048.0, 4096.0, 8192.0)
SLICE_GRID: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
BANK_KB = 64.0
FIXED_COST = 8.0
MAX_VCORES = 8
#: The tatonnement's price floor.
PRICE_FLOOR = 0.01
#: Relative slack for float results computed in another order.
REL_TOL = 1e-9


def perf_tables(benchmarks: Iterable[str]
                ) -> Dict[str, Dict[Tuple[float, int], float]]:
    """``P(c, s)`` per benchmark over the grid, from the scalar model."""
    from repro.perfmodel.model import AnalyticModel

    model = AnalyticModel()
    return {
        bench: {(c, s): model.performance(bench, c, s)
                for c in CACHE_GRID_KB for s in SLICE_GRID}
        for bench in benchmarks
    }


def vcore_cost(slice_price: float, bank_price: float, cache_kb: float,
               slices: int, fixed_cost: float = FIXED_COST) -> float:
    """Equation 2's denominator plus the per-VCore fixed cost."""
    return bank_price * (cache_kb / BANK_KB) + slice_price * slices + fixed_cost


def utility(perf: float, k: float, budget: float, cost: float) -> float:
    """U = (B / cost)^(1/k) * P^k."""
    return (budget / cost) ** (1.0 / k) * perf ** k


def best_config(perf: Mapping[Tuple[float, int], float], k: float,
                budget: float, slice_price: float, bank_price: float
                ) -> Tuple[float, int, float]:
    """``(cache_kb, slices, utility)`` maximising U over the grid."""
    best = None
    for (c, s), p in perf.items():
        u = utility(p, k, budget, vcore_cost(slice_price, bank_price, c, s))
        if best is None or u > best[2]:
            best = (c, s, u)
    return best


def check_choice(perf: Mapping[Tuple[float, int], float], k: float,
                 budget: float, slice_price: float, bank_price: float,
                 cache_kb: float, slices: int,
                 reported_utility: float) -> List[str]:
    """The program's (cache, slices) is an argmax of U and its reported
    utility is U there."""
    if (cache_kb, slices) not in perf:
        return [f"({cache_kb}, {slices}) is off the grid"]
    errors = []
    cost = vcore_cost(slice_price, bank_price, cache_kb, slices)
    mine = utility(perf[(cache_kb, slices)], k, budget, cost)
    bc, bs, bu = best_config(perf, k, budget, slice_price, bank_price)
    if mine < bu * (1.0 - REL_TOL):
        errors.append(f"({cache_kb}, {slices}) gives U={mine!r} but "
                      f"({bc}, {bs}) gives U={bu!r}")
    if not math.isclose(reported_utility, mine, rel_tol=REL_TOL):
        errors.append(f"reported U={reported_utility!r}, recomputed "
                      f"{mine!r} at ({cache_kb}, {slices})")
    return errors


def expected_vcores(budget: float, slice_price: float, bank_price: float,
                    cache_kb: float, slices: int) -> int:
    """clamp(int(B / cost), 1, MAX_VCORES)."""
    v = int(budget / vcore_cost(slice_price, bank_price, cache_kb, slices))
    return max(1, min(MAX_VCORES, v))


def check_vcores(budget: float, slice_price: float, bank_price: float,
                 cache_kb: float, slices: int, vcores: int) -> List[str]:
    want = expected_vcores(budget, slice_price, bank_price, cache_kb, slices)
    if vcores != want:
        return [f"vcores={vcores}, Equation 2 gives {want}"]
    return []


class Geometry:
    """Tile layout of one ``width x height`` fabric, from its tile kinds
    (slice columns and bank columns), which are inputs, not outputs."""

    def __init__(self, width: int, height: int, slice_columns: Sequence[int]):
        self.width = width
        self.height = height
        self.slice_col_index = {x: i for i, x in enumerate(sorted(slice_columns))}

    @classmethod
    def of(cls, fabric) -> "Geometry":
        from repro.cloud.fabric import TileKind

        width, height = fabric.mesh.width, fabric.mesh.height
        cols = [x for x in range(width) if fabric.kind(x) is TileKind.SLICE]
        return cls(width, height, cols)

    def is_slice(self, node: int) -> bool:
        return node % self.width in self.slice_col_index

    def in_range(self, node: int) -> bool:
        return 0 <= node < self.width * self.height

    def row_and_position(self, node: int) -> Tuple[int, int]:
        y, x = divmod(node, self.width)
        return y, self.slice_col_index[x]


def check_vcore_tiles(geom: Geometry, slice_tiles: Sequence[int],
                      bank_tiles: Sequence[int], slices: int,
                      banks: int) -> List[str]:
    """One VCore: ``slices`` Slices in one contiguous run of one row, and
    ``banks`` bank tiles."""
    errors = []
    for node in list(slice_tiles) + list(bank_tiles):
        if not geom.in_range(node):
            return [f"tile {node} is off the fabric"]
    if len(slice_tiles) != slices:
        errors.append(f"{len(slice_tiles)} Slices, want {slices}")
    if len(bank_tiles) != banks:
        errors.append(f"{len(bank_tiles)} banks, want {banks}")
    if not all(geom.is_slice(n) for n in slice_tiles):
        errors.append("a Slice tile is not a Slice")
    elif slice_tiles:
        rows_pos = sorted(geom.row_and_position(n) for n in slice_tiles)
        rows = {y for y, _ in rows_pos}
        positions = [p for _, p in rows_pos]
        if len(rows) != 1 or positions != list(
                range(positions[0], positions[0] + len(positions))):
            errors.append(f"Slices {sorted(slice_tiles)} are not one "
                          f"contiguous run in one row")
    if any(geom.is_slice(n) for n in bank_tiles):
        errors.append("a bank tile is a Slice")
    return errors


def check_owned_tiles(geom: Geometry, tiles: Sequence[int], slices: int,
                      banks_per_vcore: int, vcores: int) -> List[str]:
    """A tenant's tiles, unordered: exactly ``vcores x (slices + banks)``
    tiles whose Slices split into ``vcores`` contiguous one-row runs of
    ``slices``."""
    if len(set(tiles)) != len(tiles):
        return ["a tile is owned twice"]
    if not all(geom.in_range(n) for n in tiles):
        return ["a tile is off the fabric"]
    errors = []
    if len(tiles) != vcores * (slices + banks_per_vcore):
        errors.append(f"owns {len(tiles)} tiles, want "
                      f"{vcores} x ({slices} + {banks_per_vcore})")
    slice_tiles = [n for n in tiles if geom.is_slice(n)]
    if len(slice_tiles) != vcores * slices:
        errors.append(f"owns {len(slice_tiles)} Slices, want "
                      f"{vcores} x {slices}")
    # Maximal runs of consecutive slice positions within a row; two
    # VCores side by side form one run of twice the length.
    runs = []
    prev = None
    for y, p in sorted(geom.row_and_position(n) for n in slice_tiles):
        if prev is not None and y == prev[0] and p == prev[1] + 1:
            runs[-1] += 1
        else:
            runs.append(1)
        prev = (y, p)
    if any(r % slices for r in runs):
        errors.append(f"Slice runs {runs} do not split into runs of "
                      f"{slices}")
    return errors


def check_disjoint(tile_sets: Iterable[Sequence[int]]) -> List[str]:
    seen = set()
    shared = set()
    for tiles in tile_sets:
        for node in tiles:
            if node in seen:
                shared.add(node)
            seen.add(node)
    if shared:
        return [f"{len(shared)} tiles are placed twice, e.g. "
                f"{min(shared)}"]
    return []


def check_step(converged: bool, rationed: bool, slice_price: float,
               bank_price: float, slice_demand: float, bank_demand: float,
               slice_supply: float, bank_supply: float,
               tolerance: float) -> List[str]:
    """A converged, non-rationed repricing step leaves finite prices at
    or above the floor and demand within (1 + tolerance) x supply."""
    if not converged or rationed:
        return []
    errors = []
    for label, price in (("slice", slice_price), ("bank", bank_price)):
        if not math.isfinite(price) or price < PRICE_FLOOR:
            errors.append(f"{label} price {price!r} is not finite and "
                          f">= {PRICE_FLOOR}")
    limit = 1.0 + tolerance + REL_TOL
    if slice_demand > limit * slice_supply:
        errors.append(f"slice demand {slice_demand!r} > (1 + {tolerance}) "
                      f"x {slice_supply}")
    if bank_demand > limit * bank_supply:
        errors.append(f"bank demand {bank_demand!r} > (1 + {tolerance}) "
                      f"x {bank_supply}")
    return errors


def demand(perf_tables: Mapping[str, Mapping[Tuple[float, int], float]],
           roster: Iterable[Tuple[str, float, float]],
           slice_price: float, bank_price: float) -> Tuple[float, float]:
    """(Slice, bank) demand of ``(benchmark, k, budget)`` tenants, each
    buying B / cost VCores of its argmax configuration."""
    slices_total = banks_total = 0.0
    for bench, k, budget in roster:
        c, s, _ = best_config(perf_tables[bench], k, budget, slice_price,
                              bank_price)
        v = budget / vcore_cost(slice_price, bank_price, c, s)
        slices_total += v * s
        banks_total += v * (c / BANK_KB)
    return slices_total, banks_total


def stream_accounting(submits: int, departs: int,
                      resizes_rejected: int, roster: Sequence[str],
                      summary, active_tenants: Sequence[str]) -> List[str]:
    """Tallies of a stream against the events the client issued.  The
    service counts a resize it cannot place as ``rejected_capacity``
    too, so the client's count of those comes off."""
    errors = []
    outcomes = (summary.admitted + summary.rejected_price
                + summary.rejected_capacity - resizes_rejected)
    if submits != outcomes:
        errors.append(f"{submits} submits but admitted + rejected = "
                      f"{outcomes}")
    if departs != summary.departures:
        errors.append(f"{departs} departs issued but "
                      f"{summary.departures} departures counted")
    if list(roster) != list(active_tenants):
        errors.append(f"client roster has {len(roster)} tenants, service "
                      f"reports {len(active_tenants)} (or another order)")
    return errors


def check_sim_point(stats, trace_length: int, slices: int) -> List[str]:
    """An exact run commits the whole trace at IPC <= 2 x Slices."""
    errors = []
    if stats.committed != trace_length:
        errors.append(f"committed {stats.committed}, trace has "
                      f"{trace_length}")
    if stats.cycles <= 0 or stats.committed > 2 * slices * stats.cycles:
        errors.append(f"IPC {stats.committed}/{stats.cycles} exceeds "
                      f"2 x {slices}")
    return errors


def stats_fields(stats) -> Dict[str, object]:
    """Every SimStats field, nested stall counters flattened."""
    out = {}
    for key, value in dataclasses.asdict(stats).items():
        if isinstance(value, dict):
            for sub, v in value.items():
                out[f"{key}.{sub}"] = v
        else:
            out[key] = value
    return out


def check_same_stats(timed, reference) -> List[str]:
    """Field-by-field equality of two SimStats."""
    a, b = stats_fields(timed), stats_fields(reference)
    if a.keys() != b.keys():
        return ["the two SimStats have different fields"]
    return [f"{key}: {a[key]!r} != reference {b[key]!r}"
            for key in a if a[key] != b[key]]


def check_utilization(placed_tiles: int, reserved_tiles: int,
                      total_tiles: int, reported: float) -> List[str]:
    want = (placed_tiles + reserved_tiles) / total_tiles
    if not math.isclose(reported, want, rel_tol=REL_TOL, abs_tol=1e-12):
        return [f"utilization {reported!r}, recomputed {want!r}"]
    return []


def first_errors(errors: Sequence[str], limit: int = 3) -> Optional[str]:
    return "; ".join(errors[:limit]) if errors else None


def isolated(check: Callable, *args):
    """``check(*args)``, run in a forked child that returns its result.

    The parent waits for the child, so only one process runs at a time.
    The memory the check allocates is the child's, so it does not count
    in the ``peak_rss_mb`` of the parent, which runs the timed rounds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns into the caller
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, check(*args)))
            except Exception as exc:
                payload = pickle.dumps((False, f"{exc!r}"))
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        payload = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"check {check.__name__} ended with status "
                           f"{status} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"check {check.__name__} raised {value}")
    return value
