"""Spans at pseudoprob's module boundaries, recorded from outside the package.

For the length of a traced run, `Tracer.install` rebinds public functions in
every loaded pseudoprob module to wrappers that record a span (label, start,
end, parent) and restores them afterwards. `HermitianOperator.__init__` is
rebound on the class itself, so classes are never replaced and isinstance
checks still hold. Spans stay in memory until the run ends. A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

import numpy as np

EPS = 1e-10  # the package's default classicality tolerance


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, label, fn, after=None):
        """`fn` recording a span per call; `label` is a string or a function
        of the positional arguments, `after(tracer, args, result)` counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [label(args) if callable(label) else label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[1] = perf_counter()
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Rebind each (owner, attribute, label, after) target. A module-level
        function is rebound wherever a pseudoprob module imported it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pseudoprob" or n.startswith("pseudoprob.")]
        for owner, attr, label, after in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(label, original, after)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def aggregate(self) -> dict:
        """label -> [calls, total seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        stats: dict[str, list] = {}
        for (label, t0, t1, _), child in zip(self.spans, covered):
            s = stats.setdefault(label, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child
        return stats

    def dump(self, path) -> None:
        """Write the spans as [label index, start us, end us, parent]."""
        labels = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(labels)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[label], round((t0 - origin) * 1e6, 3), round((t1 - origin) * 1e6, 3), parent]
            for label, t0, t1, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": labels, "fields": ["label", "start_us", "end_us", "parent"], "spans": rows}, fh)


def _kind(mats) -> str:
    d = mats[0].shape[0]
    return f".N{len(mats)}" if d == 2 else f".d{d}"


def _orderings(tracer, args, result):
    tracer.add("orderings", math.factorial(len(args[0])))


def _units(tracer, args, result):
    n = math.factorial(len(args[0]))
    tracer.add("orderings", n)
    tracer.add("units.orderings", n)
    tracer.add("units.distinct", len(result[0]))


def _coarse(tracer, args, result):
    events = len(args[0].values)
    tracer.add(f"coarse.E{events}.maximizers", result.num_maximizers)
    tracer.add(f"coarse.E{events}.negative_entries", int((args[0].values < -EPS).sum()))


def _closed(tracer, args, result):
    tracer.add("closed.schemes", int(np.prod(result.shape[:-1])))


def boundary_targets() -> list:
    """The public functions at each layer's boundary, with span labels."""
    from pseudoprob import entanglement, operators, pseudoprojection, qubit, schemes, states

    return [
        (operators.HermitianOperator, "__init__", "operators.hermitian_init", None),
        (operators, "eigenvalues_hermitian", "operators.eigh", None),
        (states, "density_from_bloch", "states.build_inputs", None),
        (states, "observable_from_direction", "states.build_inputs", None),
        (pseudoprojection, "weyl_matrix", lambda a: "pseudoprojection.weyl" + _kind(a[0]), _orderings),
        (pseudoprojection, "distinct_unit_matrices", lambda a: "pseudoprojection.units" + _kind(a[0]), _units),
        (schemes, "build_scheme", "schemes.build", None),
        (schemes, "negativity", "schemes.verdict", None),
        (schemes, "classify", "schemes.verdict", None),
        (schemes, "minimal_coarse_graining", lambda a: f"schemes.coarse_grain.E{len(a[0].values)}", _coarse),
        (qubit, "pair_entries", "qubit.closed", _closed),
        (qubit, "triple_entries", "qubit.closed", _closed),
        (qubit, "critical_radius_bisection", "qubit.bisection", None),
        (entanglement, "monotone", "entanglement.monotone", None),
    ]
