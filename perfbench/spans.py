"""Span recorder for the benchmark's traced runs.

``Tracer.installed()`` wraps the public mirrorcalc functions and
``ExactSeries`` methods named in ``TARGETS`` at runtime; no source
file is edited, and leaving the block restores the originals.  Calls
reach a wrapper through the module attribute (``gw.extract_n1``) or a
module global, as every call inside mirrorcalc does; the re-exports in
the package namespace are left alone.  Each
call records one span (name, start, end, parent).  The spans stay in
memory until ``summarize`` folds them into calls, total and self time
per name.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Span name -> (module, class or None, attributes).  ``__radd__`` and
# ``__rmul__`` are class attributes of their own (aliases of ``__add__``
# and ``__mul__``), so each is wrapped under the same span name.
TARGETS = {
    "series.reverse": ("series", "ExactSeries", ("reverse",)),
    "series.compose": ("series", "ExactSeries", ("compose",)),
    "series.add": ("series", "ExactSeries", ("__add__", "__radd__")),
    "series.mul": ("series", "ExactSeries", ("__mul__", "__rmul__")),
    "series.div": ("series", "ExactSeries", ("__truediv__",)),
    "series.log": ("series", "ExactSeries", ("log",)),
    "series.exp": ("series", "ExactSeries", ("exp",)),
    "series.pow": ("series", "ExactSeries", ("__pow__",)),
    "quintic.period_y0": ("quintic", None, ("period_y0",)),
    "quintic.mirror_map": ("quintic", None, ("mirror_map",)),
    "quintic.f1_log_derivative": ("quintic", None, ("f1_log_derivative",)),
    "gw.genus0_pipeline": ("gw", None, ("genus0_pipeline",)),
    "gw.extract_n1": ("gw", None, ("extract_n1",)),
    "gw.lambert_series": ("gw", None, ("lambert_series",)),
    "gw.eta_product_log_derivative":
        ("gw", None, ("eta_product_log_derivative",)),
    "modular.eta_series": ("modular", None, ("eta_series",)),
    "modular.delta_series": ("modular", None, ("delta_series",)),
    "modular.petersson_delta": ("modular", None, ("petersson_delta",)),
    "lattice.rank1_update_det_check":
        ("lattice", None, ("rank1_update_det_check",)),
    "lattice.bareiss_det": ("lattice", None, ("bareiss_det",)),
    "lattice.covolume": ("lattice", None, ("covolume",)),
    "lattice.basis_change": ("lattice", "CubicLattice", ("basis_change",)),
    "lattice.fhsv_covolume": ("lattice", None, ("fhsv_covolume",)),
    "lattice.fhsv_constant_check":
        ("lattice", None, ("fhsv_constant_check",)),
    "cli.run": ("cli", None, ("run",)),
}

MAX_COEFF_BITS = "quintic.mirror_map.max_coeff_bits"


def _max_coeff_bits(chart) -> int:
    """Largest bit length of a numerator or denominator in x(q)."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in chart.x_of_q.coeffs)


@dataclass(slots=True)
class Span:
    name: str
    start: int      # time.perf_counter_ns()
    end: int
    parent: int     # index of the enclosing span in the list, -1 if none


class Tracer:
    """Records spans around calls into mirrorcalc while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.facts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns
        observe = name == "quintic.mirror_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), 0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if observe:
                self.facts[MAX_COEFF_BITS] = max(
                    self.facts.get(MAX_COEFF_BITS, 0), _max_coeff_bits(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, (module, cls, attrs) in TARGETS.items():
                mod = importlib.import_module(f"mirrorcalc.{module}")
                owner = getattr(mod, cls) if cls else mod
                for attr in attrs:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the time its children cover;
    children of one span run one after another, so their durations
    add.  Total time counts only spans without an ancestor of the same
    name, so a recursive call is not counted twice.
    """
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        duration = s.end - s.start
        row["calls"] += 1
        row["self_s"] += (duration - covered[i]) / 1e9
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["total_s"] += duration / 1e9
    return out
