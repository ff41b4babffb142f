"""Spans and call counts recorded around fuzzyasp's layers, from outside.

Installing a :class:`Tracer` replaces module attributes of the loaded
``fuzzyasp`` modules with wrappers and ``uninstall`` puts the originals
back; the package itself is not modified.  A wrapper replaces the name the
*caller* looks up: ``solver`` does ``from .connectives import conj``, so
counting conj calls means wrapping ``fuzzyasp.solver.conj`` (and every other
module's binding of the same function).

Spans are kept in memory as (name, start_ns, end_ns, parent, op) and written
out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import NamedTuple

# (module, attribute the caller looks up) -> span name
SPANNED = {
    ("fuzzyasp.cli", "parse"): "program.parse",
    ("fuzzyasp.cli", "solve"): "solver.solve",
    ("fuzzyasp.solver", "ground"): "program.ground",
    ("fuzzyasp.solver", "verify_answer_set"): "solver.verify",
    ("fuzzyasp.solver", "kmin_supported_model"): "solver.kmin",
    # solver imports closure_enumerate inside the function, at call time
    ("fuzzyasp.oracle", "closure_enumerate"): "oracle.closure",
}

# (defining module, function) -> count name; every fuzzyasp binding is wrapped
COUNTED = {
    ("fuzzyasp.connectives", "conj"): "connectives.conj_calls",
    ("fuzzyasp.connectives", "disj"): "connectives.disj_calls",
    ("fuzzyasp.connectives", "kagg"): "connectives.kagg_calls",
    ("fuzzyasp.connectives", "naf"): "connectives.naf_calls",
    ("fuzzyasp.connectives", "negate"): "connectives.negate_calls",
    ("fuzzyasp.measures", "uncertainty_degree"): "measures.k_calls",
    ("fuzzyasp.measures", "truth_degree"): "measures.t_calls",
    ("fuzzyasp.truthspace", "equal"): "truthspace.equal_calls",
}


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int | None
    op: int


class Tracer:
    """Collects spans, call counts and the return values of spanned calls."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.results: list[tuple[str, object]] = []  # of the current op
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack, results = self.spans, self._stack, self.results

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            results.append((name, result))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module, attr: str, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        for (module_name, attr), name in SPANNED.items():
            module = sys.modules[module_name]
            self._replace(module, attr, self.span(name, getattr(module, attr)))
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fuzzyasp"]
        for (module_name, attr), name in COUNTED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._counter(name, original)
            for module in modules:
                for bound in [a for a, v in vars(module).items() if v is original]:
                    self._replace(module, bound, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its direct children cover (ns)."""
    covered = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def under(spans: list[Span], name: str) -> list[bool]:
    """For each span, whether it or one of its ancestors is called ``name``.

    Relies on a parent being recorded before its children.
    """
    flags: list[bool] = []
    for s in spans:
        flags.append(s.name == name or (s.parent is not None and flags[s.parent]))
    return flags
