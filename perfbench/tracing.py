"""In-memory span recorder wrapped around calls into the program's layers.

Spans are recorded only in traced runs, by replacing a method on one
object with a wrapper (:func:`wrap`); untraced runs never install a
wrapper, so they pay nothing.  Each span keeps its name, start, end,
parent span and op id in flat arrays, and the whole list is written once
when the run ends.
"""

from __future__ import annotations

import gzip
import os
from array import array
from time import perf_counter
from typing import Dict, List, Optional

#: Every timestamp the benchmark takes comes from this clock; ``run.py``
#: maps them all to reference seconds once the run has ended
#: (:meth:`perfbench.clock.SpeedClock.to_reference`).
now = perf_counter


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Op id stamped on every span begun until it changes (-1: none).
        self.current_op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(now())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = now()
        self._stack.pop()

    # -- aggregation ---------------------------------------------------

    def durations(self):
        """Every span's duration in seconds (numpy array)."""
        import numpy as np

        return (np.frombuffer(self.end, dtype=float)
                - np.frombuffer(self.start, dtype=float))

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s`` (busy
        minus the time covered by direct children)."""
        import numpy as np

        n = len(self.names)
        dur = self.durations()
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        nested = parent >= 0
        calls = np.bincount(name, minlength=n)
        busy = np.bincount(name, weights=dur, minlength=n)
        child = np.bincount(name[parent[nested]], weights=dur[nested],
                            minlength=n)
        return {
            self.names[i]: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                            "self_s": float(busy[i] - child[i])}
            for i in range(n)
        }

    def top_level_s(self) -> float:
        """Total duration of spans that have no parent."""
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.intc)
        return float(self.durations()[parent < 0].sum())

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV: ``name,start,end,parent,op``
        (times in seconds from the first span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{names[self.name[i]]},{self.start[i] - t0:.9f},"
                          f"{self.end[i] - t0:.9f},{self.parent[i]},"
                          f"{self.op[i]}\n")
        os.replace(tmp, path)


def wrap(tracer: Optional[Tracer], obj, attr: str, name: str) -> None:
    """Record a ``name`` span around every call of ``obj.attr``.

    The wrapper is set on the instance, so calls the object makes to its
    own method (``self.attr(...)``) are recorded too.  No-op without a
    tracer.
    """
    if tracer is None:
        return
    fn = getattr(obj, attr)
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def traced(*args, **kwargs):
        index = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(index)

    setattr(obj, attr, traced)
