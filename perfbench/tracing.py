"""Spans and counts recorded around the benchmark's calls into hopfcon.

Every call the benchmark makes into a public function of the package goes
through ``Tracer.call``.  With tracing off it is a plain call.  With
tracing on it keeps a span (name, start, end, parent, op id) in memory and
adds the work counts that the call's arguments determine, so counts are
taken at the same layer boundary as the time.  Nothing is recorded inside
the package itself.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# Work counts per call, derived from the arguments alone.  Grid bytes are
# computed, not measured: the pairwise einsum materialises an N x N grid
# of 4 (quaternion) or 8 (octonion) doubles.
COUNT_RULES = {
    "projection.quat_concurrence": lambda state: {
        "projection.pairs": _pairs(state.total_dim // 2),
        "projection.grid_bytes_computed": 32 * (state.total_dim // 2) ** 2},
    "projection.oct_concurrence": lambda state: {
        "projection.pairs": _pairs(state.total_dim // 4),
        "projection.grid_bytes_computed": 64 * (state.total_dim // 4) ** 2},
    "projection.quat_pair_projections": lambda qstate: {
        "projection.pairs": _pairs(len(qstate))},
    "projection.oct_pair_projections": lambda ostate: {
        "projection.pairs": _pairs(len(ostate))},
    "oracles.minor_concurrence": lambda state, left: {
        "oracles.minor_terms": _pairs(left) * _pairs(state.total_dim // left)},
    "oracles.generator_concurrence": lambda state: {
        "oracles.generators": _pairs(state.total_dim // 2)},
    "dynamics.schmidt_trajectory": lambda lam, spec, times: {
        "dynamics.trajectory_points": len(times)},
}


def span_name(fn) -> str:
    """``<module>.<function>`` of a hopfcon callable, e.g. ``oracles.minor_concurrence``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder; ``enabled`` may be switched between phases."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.op_id = -1  # -1 marks set-up work outside any op
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, fn, *args, name: str | None = None):
        if not self.enabled:
            return fn(*args)
        name = name or span_name(fn)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
            rule = COUNT_RULES.get(name)
            if rule is not None:
                self.counts.update(rule(*args))

    def write(self, path) -> None:
        """Write every span as CSV: index, name, start_s, end_s, parent, op."""
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def nearest_rank(values, pct: float) -> float:
    """The ``pct`` percentile of ``values`` by nearest rank (0.0 if empty)."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(1, math.ceil(pct / 100.0 * len(values))) - 1]


LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail(values, ladder=LADDER) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  Nearest-rank percentile.
    """
    values = sorted(values)
    n = len(values)
    best = (100.0, values[-1] if values else 0.0, 0)
    for pct in ladder:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= 10:
            best = (pct, values[rank - 1], beyond)
    return best
