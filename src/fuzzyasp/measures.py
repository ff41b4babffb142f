"""Truth and uncertainty degrees and the two preorders they induce.

The truth degree t of a value is the mean of the equivalent probability
density of the unknown actual truth status; the uncertainty degree k is the
area under the (truncated) membership curve on [0, 1].  Both are closed
forms here; numeric integration lives only in :mod:`fuzzyasp.oracle`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotRestricted
from .truthspace import DEFAULT_EPS, FuzzyTruth, ifn, membership


@dataclass(frozen=True)
class Measure:
    """The pair (t, k) summarising one epistemic state."""

    t: float
    k: float


class Rel(enum.Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"


@dataclass(frozen=True)
class Ordering:
    """How x relates to y in the truth and knowledge preorders."""

    truth: Rel
    knowledge: Rel


def uncertainty_degree(x: FuzzyTruth) -> float:
    """Area under the membership curve restricted to [0, 1].

    (d+c-b-a)/2 covers every restricted shape; clipped corner triangles are
    subtracted for truncated values.  A zero-width clipped corner cannot
    occur together with a degenerate ramp (cores stay in [0, 1]), so the
    divisions below are safe exactly when they are reached.
    """
    a, b, c, d = x
    k = (d + c - b - a) / 2.0
    if a < 0.0:
        k -= a * a / (2.0 * (b - a))
    if d > 1.0:
        k -= (d - 1.0) * (d - 1.0) / (2.0 * (d - c))
    return k


def truth_degree(x: FuzzyTruth) -> float:
    """Mean of the equivalent probability density of the actual truth status."""
    return _mean(x, uncertainty_degree(x))


def _mean(x: FuzzyTruth, k: float) -> float:
    """:func:`truth_degree` of ``x``, given its uncertainty degree ``k``."""
    a, b, c, d = x
    if k <= 0.0:
        # Dirac case: all mass at the (necessarily degenerate) core.
        return b
    if not (a < 0.0 or d > 1.0):  # not truncated; x may be a plain tuple
        # ((d^3-c^3)/(d-c) - (b^3-a^3)/(b-a)) / (3(d+c-b-a)) with the 0/0
        # removed algebraically and regrouped as a convex combination of the
        # two triangle means, which avoids cancellation for thin shapes.
        w_left = c - a
        w_right = d - b
        return (w_left * (a + c + d) + w_right * (a + b + d)) / (
            3.0 * (w_left + w_right)
        )
    return _truncated_mean(a, b, c, d, k)


def _truncated_mean(a: float, b: float, c: float, d: float, k: float) -> float:
    """Exact piecewise-quadratic expectation of the clipped density."""
    lo = max(0.0, a)
    hi = min(1.0, d)
    total = 0.0
    if b > lo:
        # integral of v(v-a)/(b-a) over [lo, b]
        anti = lambda v: v**3 / 3.0 - a * v * v / 2.0
        total += (anti(b) - anti(lo)) / (b - a)
    if c > b:
        total += (c * c - b * b) / 2.0
    if hi > c:
        # integral of v(d-v)/(d-c) over [c, hi]
        anti = lambda v: d * v * v / 2.0 - v**3 / 3.0
        total += (anti(hi) - anti(c)) / (d - c)
    return total / k


def density(x: FuzzyTruth, v: float) -> float:
    """Equivalent probability density of the actual truth status at ``v``.

    The membership curve scaled by h = 1/k, clipped to [0, 1]; integrates
    to 1.  Exact points (k = 0) get 0 everywhere, their mass is a Dirac.
    """
    k = uncertainty_degree(x)
    if k <= 0.0:
        return 0.0
    if not 0.0 <= v <= 1.0:
        return 0.0
    return membership(x, v) / k


def measure(x: FuzzyTruth) -> Measure:
    """(:func:`truth_degree`, :func:`uncertainty_degree`), the area computed once."""
    k = uncertainty_degree(x)
    return Measure(_mean(x, k), k)


def leq_truth(x: FuzzyTruth, y: FuzzyTruth, eps: float = DEFAULT_EPS) -> bool:
    """x at most as true as y; ties within ``eps`` count as both <=."""
    return truth_degree(x) <= truth_degree(y) + eps


def leq_knowledge(x: FuzzyTruth, y: FuzzyTruth, eps: float = DEFAULT_EPS) -> bool:
    """x at most as known as y, i.e. x is at least as uncertain."""
    return uncertainty_degree(x) >= uncertainty_degree(y) - eps


def _rel(u: float, v: float, eps: float) -> Rel:
    if abs(u - v) <= eps:
        return Rel.EQUAL
    return Rel.LESS if u < v else Rel.GREATER


def compare(x: FuzzyTruth, y: FuzzyTruth, eps: float = DEFAULT_EPS) -> Ordering:
    """Relate x to y in both preorders.

    ``knowledge = GREATER`` means x is knowledge-above y (x has the lower
    uncertainty degree).
    """
    truth = _rel(truth_degree(x), truth_degree(y), eps)
    # knowledge order runs against k
    knowledge = _rel(uncertainty_degree(y), uncertainty_degree(x), eps)
    return Ordering(truth=truth, knowledge=knowledge)


def equivalent_interval(x: FuzzyTruth) -> FuzzyTruth:
    """Degenerate interval carrying the same truth degree as ``x``.

    Any interval centred on t(x) qualifies; the point is the canonical
    representative.  Only defined for restricted values.
    """
    if x.truncated:
        raise NotRestricted(f"{x} is truncated")
    t = truth_degree(x)
    return ifn(t, t)
