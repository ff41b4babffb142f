"""Logical operators on truth values.

Conjunction is the product t-norm: componentwise parameter products for
restricted operands, min/max over the outer and core cross products when a
truncated operand is involved.  Disjunction is the De Morgan dual under the
reflection negation; ``naf`` and ``kagg`` are the two nonmonotonic
operators (failure and certainty-based aggregation).  Each result is built
from its four parameters alone: whether it is truncated follows from them.
"""

from __future__ import annotations

import logging

from .errors import AggregationTie
from .measures import uncertainty_degree
from .truthspace import DEFAULT_EPS, FuzzyTruth, equal

log = logging.getLogger(__name__)


def negate(x: FuzzyTruth) -> FuzzyTruth:
    """Reflect the quadruple about 0.5; involutive, preserves uncertainty."""
    a, b, c, d = x
    return FuzzyTruth(1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a)


def naf(x: FuzzyTruth) -> FuzzyTruth:
    """Negation as failure: the exact interval at 1 - b.

    The output is a meta-level assertion about the epistemic state of x, so
    it carries no uncertainty of its own (k = 0).  Uses the stored b even
    for truncated values.
    """
    v = 1.0 - x.b
    return FuzzyTruth(v, v, v, v)


def _product(xa, xb, xc, xd, ya, yb, yc, yd) -> tuple[float, float, float, float]:
    """Parameters (a, b, c, d) of the product t-norm of two quadruples.

    For nonnegative ordered parameters the min/max cross products collapse
    to the componentwise products, so the general form below covers the
    restricted case too.
    """
    outer = (xa * ya, xa * yd, xd * ya, xd * yd)
    core = (xb * yb, xb * yc, xc * yb, xc * yc)
    a, d = min(outer), max(outer)
    b, c = min(core), max(core)
    # Reached only with non-finite parameters: a positive cycle through a
    # truncated weight can drive the outer ones to inf, and inf * 0 is nan.
    if not a <= b <= c <= d:
        log.warning("product ordering repair for %r and %r", (xa, xb, xc, xd), (ya, yb, yc, yd))
        a, b, c, d = sorted((a, b, c, d))
    return a, b, c, d


def conj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """Product t-norm.

    The result is truncated exactly when its outer parameters leave [0, 1].
    """
    return FuzzyTruth(*_product(*x, *y))


def disj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """De Morgan dual of :func:`conj`: ``negate(conj(negate(x), negate(y)))``.

    Computed on the reflected parameters directly, so no intermediate value
    is built; the result is bit-identical to the composed form.
    """
    a, b, c, d = _product(
        1.0 - x.d, 1.0 - x.c, 1.0 - x.b, 1.0 - x.a,
        1.0 - y.d, 1.0 - y.c, 1.0 - y.b, 1.0 - y.a,
    )
    return FuzzyTruth(1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a)


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
