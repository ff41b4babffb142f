"""Logical operators on truth values.

Conjunction is the product t-norm: componentwise parameter products for
restricted operands, min/max over the outer and core cross products when a
truncated operand is involved.  Disjunction is the De Morgan dual under the
reflection negation; ``naf`` and ``kagg`` are the two nonmonotonic
operators (failure and certainty-based aggregation).  Each result is built
from its four parameters alone: whether it is truncated follows from them.

``conj`` and ``disj`` take the componentwise form directly when both
operands are restricted and fall back to :func:`_product` otherwise.  The
two forms agree bit for bit: float multiplication is monotone on
nonnegative operands, so min and max pick the componentwise products.  The
one exception is a tie at zero, where ``min`` and ``max`` return the
*first* of the tied products, and ``-0.0`` ties with ``0.0``; the fast
path of ``conj`` reproduces that choice (``disj`` needs nothing, since
``1 - x`` is never ``-0.0``).

The solver's body kernel (``solver._body`` and ``solver._contribution``)
computes the same restricted forms in place, on float parameters, and calls
:func:`_product` and :func:`_finite` for the general one.
``tests/test_kernel.py`` holds it bit for bit to the fold through ``conj``
and ``disj`` in ``tests/reference_semantics.py``.  That copy serves the
fixpoint alone.  The support check of ``verify_answer_set`` folds the body
values its model check kept by calling :func:`disj`, and aggregates
against a complement's evidence with :func:`kagg` and :func:`negate`; the
operator closure (``oracle.closure_levels``) builds every value by calling
``negate``, ``naf``, ``conj`` and ``disj``.

Every value ``conj`` and ``disj`` return has finite parameters, as
:func:`~fuzzyasp.truthspace.make` requires of its input.  Only the general
form can overflow, on a truncated operand with a huge support; it then
raises OrderViolation instead of returning an inf or nan parameter.  On
finite ordered operands with cores in [0, 1] its min/max products are
ordered, so a result that is finite is a valid value.
"""

from __future__ import annotations

from math import inf

from .errors import AggregationTie, OrderViolation
from .measures import uncertainty_degree
from .truthspace import DEFAULT_EPS, FuzzyTruth, equal


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

    The general form, for any ordered parameters; :func:`conj` and
    :func:`disj` take it only when an operand is not restricted.
    """
    outer = (xa * ya, xa * yd, xd * ya, xd * yd)
    core = (xb * yb, xb * yc, xc * yb, xc * yc)
    return min(outer), min(core), max(core), max(outer)


def _finite(a, b, c, d) -> FuzzyTruth:
    """The value (a, b, c, d); OrderViolation when ``a`` or ``d`` is not finite."""
    if not (-inf < a and d < inf):  # a nan fails too
        raise OrderViolation(f"the result trfn({a!r},{b!r},{c!r},{d!r}) has a non-finite parameter")
    return FuzzyTruth(a, b, c, d)


def conj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """Product t-norm.

    The result is truncated exactly when its outer parameters leave [0, 1].
    Restricted operands take the componentwise products, bit-identical to
    :func:`_product`: ``a`` and ``b`` are the first and least of their
    cross products.  ``c`` and ``d`` are the greatest, and also the last,
    so when one is a zero, every product it is taken over is a zero and
    ``max`` keeps the first of them, which may differ in sign: ``c = 0.0``
    for ``tfn(0,0,1) & trfn(-0.0,0,-0.0,1)``, not ``xc * yc = -0.0``.
    """
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    if 0.0 <= xa and 0.0 <= ya and xd <= 1.0 and yd <= 1.0:
        # a zero c or d takes the first product of its max, as _product does
        return FuzzyTruth(xa * ya, xb * yb, xc * yc or xb * yb, xd * yd or xa * ya)
    return _finite(*_product(xa, xb, xc, xd, ya, yb, yc, yd))


def disj(x: FuzzyTruth, y: FuzzyTruth) -> FuzzyTruth:
    """De Morgan dual of :func:`conj`: ``negate(conj(negate(x), negate(y)))``.

    Computed on the reflected parameters directly, so no intermediate value
    is built; the result is bit-identical to the composed form.  Restricted
    operands take the componentwise products of the reflected parameters.
    These have no ``-0.0`` (``1 - x`` is ``0.0`` at ``x = 1``), so every
    tie in ``_product`` is between equal bits and no zero rule is needed.
    """
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    if 0.0 <= xa and 0.0 <= ya and xd <= 1.0 and yd <= 1.0:
        return FuzzyTruth(
            1.0 - (1.0 - xa) * (1.0 - ya),
            1.0 - (1.0 - xb) * (1.0 - yb),
            1.0 - (1.0 - xc) * (1.0 - yc),
            1.0 - (1.0 - xd) * (1.0 - yd),
        )
    a, b, c, d = _product(
        1.0 - xd, 1.0 - xc, 1.0 - xb, 1.0 - xa,
        1.0 - yd, 1.0 - yc, 1.0 - yb, 1.0 - ya,
    )
    return _finite(1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a)


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
