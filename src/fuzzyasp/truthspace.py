"""Trapezoidal truth values over the unit interval.

Every epistemic state is stored as one quadruple (a, b, c, d) with
a <= b <= c <= d and core b, c inside [0, 1].  Intervals and triangles are
derived classifications (a=b and c=d, respectively b=c), not separate
representations.  A value whose support leaves [0, 1] keeps its original
parameters and is read as their [0, 1]-truncation; ``truncated`` is derived
from the parameters, not stored beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import AlphaOutOfRange, CoreOutOfRange, OrderViolation

#: default absolute tolerance for parameter comparison
DEFAULT_EPS = 1e-9


class FuzzyTruth(NamedTuple):
    """One truth value: the quadruple (a, b, c, d) itself.

    Construct through :func:`make` / :func:`ifn` / :func:`tfn` / :func:`trfn`,
    which validate the parameters; connectives may build instances directly.
    """

    a: float
    b: float
    c: float
    d: float

    @property
    def truncated(self) -> bool:
        """The support leaves [0, 1]: the value reads as its truncation."""
        return self.a < 0.0 or self.d > 1.0

    @property
    def kind(self) -> str:
        """Derived class: 'ifn', 'tfn' or 'trfn'."""
        if self.a == self.b and self.c == self.d:
            return "ifn"
        if self.b == self.c:
            return "tfn"
        return "trfn"

    def render(self) -> str:
        """Canonical text form, re-emitting the derived class."""
        if self.kind == "ifn":
            return f"ifn({self.a!r},{self.d!r})"
        if self.kind == "tfn":
            return f"tfn({self.a!r},{self.b!r},{self.d!r})"
        return f"trfn({self.a!r},{self.b!r},{self.c!r},{self.d!r})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def make(a: float, b: float, c: float, d: float) -> FuzzyTruth:
    """Build a truth value from a trapezoidal quadruple.

    Raises OrderViolation unless -inf < a <= b <= c <= d < inf (so a nan
    parameter fails too) and CoreOutOfRange unless b, c lie in [0, 1].  The
    parameters are kept as given, also when the support leaves [0, 1].
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    if not (-math.inf < a <= b <= c <= d < math.inf):
        raise OrderViolation(f"parameters not finite and ordered: ({a}, {b}, {c}, {d})")
    if not (0.0 <= b <= 1.0 and 0.0 <= c <= 1.0):
        raise CoreOutOfRange(f"core [{b}, {c}] outside [0, 1]")
    return FuzzyTruth(a, b, c, d)


def ifn(a: float, d: float) -> FuzzyTruth:
    """Interval value [a, d]."""
    return make(a, a, d, d)


def tfn(a: float, b: float, c: float) -> FuzzyTruth:
    """Triangular value with peak b on support [a, c]."""
    return make(a, b, b, c)


def trfn(a: float, b: float, c: float, d: float) -> FuzzyTruth:
    """Trapezoidal value; alias of :func:`make`."""
    return make(a, b, c, d)


#: total ignorance [0,1] and the two certainties
UNKNOWN = ifn(0.0, 1.0)
TRUE = ifn(1.0, 1.0)
FALSE = ifn(0.0, 0.0)


def membership(x: FuzzyTruth, v: float) -> float:
    """Piecewise-linear membership of ``v`` in ``x``.

    Truncated values return 0 outside [0, 1] and the untruncated membership
    inside.  At a degenerate jump (a=b or c=d) the plateau value 1 wins.
    """
    if x.truncated and not (0.0 <= v <= 1.0):
        return 0.0
    a, b, c, d = x
    if b <= v <= c:
        return 1.0
    if a <= v < b:
        return (v - a) / (b - a)
    if c < v <= d:
        return (d - v) / (d - c)
    return 0.0


@dataclass(frozen=True)
class AlphaCut:
    """Horizontal slice of a value at level alpha."""

    lower: float
    upper: float
    alpha: float


def alpha_cut(x: FuzzyTruth, alpha: float) -> AlphaCut:
    """Cut at level alpha, computed on the untruncated quadruple."""
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha {alpha} outside [0, 1]")
    a, b, c, d = x
    return AlphaCut(a + alpha * (b - a), d - alpha * (d - c), alpha)


def equal(x: FuzzyTruth, y: FuzzyTruth, eps: float = DEFAULT_EPS) -> bool:
    """Parameter-wise comparison within ``eps``.

    Values that straddle the [0, 1] boundary by at most ``eps`` count as
    equal, though only one of them is truncated.  Unrolled: the solver
    calls it in every round of a cyclic component.
    """
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        abs(xa - ya) <= eps
        and abs(xb - yb) <= eps
        and abs(xc - yc) <= eps
        and abs(xd - yd) <= eps
    )
