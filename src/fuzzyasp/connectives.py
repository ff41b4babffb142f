"""Logical operators on truth values.

Conjunction is the product t-norm: componentwise parameter products for
restricted operands, min/max over the outer and core cross products when a
truncated operand is involved.  Disjunction is the De Morgan dual under the
reflection negation; ``naf`` and ``kagg`` are the two nonmonotonic
operators (failure and certainty-based aggregation).
"""

from __future__ import annotations

import logging

from .errors import AggregationTie
from .measures import uncertainty_degree
from .truthspace import DEFAULT_EPS, FuzzyTruth, equal

log = logging.getLogger(__name__)


def negate(x: FuzzyTruth) -> FuzzyTruth:
    """Reflect the quadruple about 0.5; involutive, preserves uncertainty."""
    a, b, c, d = x.params
    return FuzzyTruth(1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a, truncated=x.truncated)


def naf(x: FuzzyTruth) -> FuzzyTruth:
    """Negation as failure: the exact interval at 1 - b.

    The output is a meta-level assertion about the epistemic state of x, so
    it carries no uncertainty of its own (k = 0).  Uses the stored b even
    for truncated values.
    """
    v = 1.0 - x.b
    return FuzzyTruth(v, v, v, v)


def conj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """Product t-norm.

    For nonnegative ordered parameters the min/max cross products collapse
    to the componentwise products, so the general form below covers the
    restricted case too.  The result is flagged truncated exactly when its
    outer parameters leave [0, 1].
    """
    outer = (x.a * y.a, x.a * y.d, x.d * y.a, x.d * y.d)
    core = (x.b * y.b, x.b * y.c, x.c * y.b, x.c * y.c)
    a, d = min(outer), max(outer)
    b, c = min(core), max(core)
    if not a <= b <= c <= d:  # pragma: no cover - unreachable while cores stay in [0,1]
        log.warning("conj ordering repair for %s and %s", x, y)
        a, b, c, d = sorted((a, b, c, d))
    return FuzzyTruth(a, b, c, d, truncated=(a < 0.0 or d > 1.0))


def disj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """De Morgan dual of :func:`conj`."""
    return negate(conj(negate(x), negate(y)))


def kagg(x: FuzzyTruth, y: FuzzyTruth, eps: float = DEFAULT_EPS) -> FuzzyTruth:
    """Keep the more certain (lower uncertainty) of two values.

    Equal uncertainty and equal values is idempotence; equal uncertainty
    with distinct values is contradictory evidence of the same reliability
    and raises AggregationTie.
    """
    kx = uncertainty_degree(x)
    ky = uncertainty_degree(y)
    if abs(kx - ky) <= eps:
        if equal(x, y, eps):
            return x
        raise AggregationTie(x, y)
    return x if kx < ky else y
