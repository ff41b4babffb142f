"""Independent numeric checks: quadrature, Monte Carlo, operator closure.

The quadrature and Monte Carlo checks are the correctness yardstick for the
closed-form measures and the solver's brute-force tests.  The operator
closure is also on the solve path: on every program with a cycle through
naf whose naf values the well-founded bounds do not pin, the solver draws
its naf guess domain from :func:`closure_levels`, the level-by-level
stream that :func:`closure_enumerate` collects, and stops it once the
domain is too large.  The closure builds every value by calling the
connectives ``negate``, ``naf``, ``conj`` and ``disj``, so it holds no
copy of their arithmetic.  numpy and scipy are imported inside the numeric
checks only, so the solver's use of the closure (and importing the CLI)
does not load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

from .connectives import conj, disj, naf, negate
from .errors import ClosureTooLarge, OracleArgumentError, OrderViolation, QuadratureFailure
from .measures import density, uncertainty_degree
from .truthspace import FuzzyTruth

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 1729


def integrate_density_mean(x: FuzzyTruth, tol: float = 1e-8) -> float:
    """Adaptive quadrature of v * density(x, v) over [0, 1]."""
    from scipy.integrate import quad

    if uncertainty_degree(x) <= 0.0:
        raise OracleArgumentError("point values have a Dirac density; no quadrature")
    breakpoints = sorted({p for p in x if 0.0 < p < 1.0})
    value, errest = quad(
        lambda v: v * density(x, v),
        0.0,
        1.0,
        points=breakpoints or None,
        limit=200,
        epsabs=tol,
        epsrel=0.0,
    )
    if errest > tol:
        raise QuadratureFailure(f"error estimate {errest} above {tol}")
    return value


def _segments(x: FuzzyTruth):
    """Clipped support, density height and the three piece masses."""
    a, b, c, d = x
    h = 1.0 / uncertainty_degree(x)
    lo, hi = max(0.0, a), min(1.0, d)
    m1 = h * ((b - a) ** 2 - (lo - a) ** 2) / (2.0 * (b - a)) if b > lo else 0.0
    m2 = h * (c - b)
    m3 = h * ((d - c) ** 2 - (d - hi) ** 2) / (2.0 * (d - c)) if hi > c else 0.0
    return lo, hi, h, m1, m2, m3


def sample_density(x: FuzzyTruth, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates by closed-form inversion of the piecewise CDF."""
    import numpy as np

    a, b, c, d = x
    lo, hi, h, m1, m2, m3 = _segments(x)
    u = rng.random(n) * (m1 + m2 + m3)
    v = np.empty(n)
    in1 = u < m1
    in2 = ~in1 & (u < m1 + m2)
    in3 = ~(in1 | in2)
    if in1.any():
        v[in1] = a + np.sqrt((lo - a) ** 2 + 2.0 * (b - a) * u[in1] / h)
    if in2.any():
        v[in2] = b + (u[in2] - m1) / h
    if in3.any():
        radicand = (d - c) ** 2 - 2.0 * (d - c) * (u[in3] - m1 - m2) / h
        v[in3] = d - np.sqrt(np.maximum(radicand, 0.0))
    return np.clip(v, lo, hi)


class ProbEstimate(NamedTuple):
    estimate: float
    stderr: float
    samples: int


def prob_leq(
    x: FuzzyTruth, y: FuzzyTruth, samples: int = 100_000, seed: int = DEFAULT_SEED
) -> ProbEstimate:
    """Monte Carlo estimate of Prob(actual(x) <= actual(y)) for independent draws."""
    import numpy as np

    if samples < 10_000:
        raise OracleArgumentError("need at least 10^4 samples")
    if seed < 0:
        raise OracleArgumentError("the seed must be non-negative")
    if uncertainty_degree(x) <= 0.0 or uncertainty_degree(y) <= 0.0:
        raise OracleArgumentError("both operands need a non-degenerate density")
    rng = np.random.default_rng(seed)
    xs = sample_density(x, samples, rng)
    ys = sample_density(y, samples, rng)
    p = float(np.mean(xs <= ys))
    return ProbEstimate(p, float(np.sqrt(p * (1.0 - p) / samples)), samples)


def closure_enumerate(
    weights, depth: int, *, cap: int = 100_000
) -> tuple[FuzzyTruth, ...]:
    """Close a value set under the five connectives up to operator depth.

    Each level applies ``negate`` and ``naf`` to every value and ``conj``,
    ``disj`` and ``kagg`` to every ordered pair, and keeps the first value
    produced for each key: the four parameters rounded to 9 digits, then
    whether the value is truncated.  A ``conj`` or ``disj`` that overflows
    (OrderViolation) and an aggregation tie are skipped (that pair simply
    has no such combination).  The loop, :func:`closure_levels`, leaves out
    results that cannot enter the closure, so its values, their order and
    their bits are those of the full loop:

    - ``kagg`` returns one of its operands, which is stored under its own
      key already, so it never runs.
    - ``conj`` and ``disj`` are commutative up to the sign of a tied zero
      in ``_product``'s min/max, which the key ignores, so ``(w, v)`` is
      skipped once ``(v, w)`` has run.
    - A level that adds no value ends the loop: the next would repeat it.

    Every value it keeps is the return value of a call of ``negate``,
    ``naf``, ``conj`` or ``disj`` (or a seed).

    Raises OracleArgumentError unless 0 <= depth <= 4 and cap >= 1, and
    ClosureTooLarge past ``cap`` values.
    """
    return tuple(v for _, v in closure_levels(weights, depth, cap))


def check_depth(depth: int) -> None:
    """Raise OracleArgumentError unless 0 <= depth <= 4."""
    if depth < 0:
        raise OracleArgumentError("depth must be non-negative")
    if depth > 4:
        raise OracleArgumentError("depth must be at most 4")


def closure_levels(
    weights, depth: int, cap: int = 100_000
) -> Iterator[tuple[int, FuzzyTruth]]:
    """Yield ``(level, value)`` for each value of the closure, as it is keyed.

    Level 0 is the seeds, level n what the n-th round of connectives adds;
    the values come in the order of :func:`closure_enumerate`, which
    collects them, and a run to depth d is the first part of a run to any
    greater depth.  ClosureTooLarge is raised after the pair that takes the
    closure past ``cap`` values, once the values keyed before it were
    yielded.

    Each value comes from a call of ``negate``, ``naf``, ``conj`` or
    ``disj``.  A value met before, bit for bit or up to the sign of a zero,
    is skipped before its key is rounded: a closure repeats its values far
    more often than it makes new ones.

    Raises OracleArgumentError unless 0 <= depth <= 4 and cap >= 1, as the
    first value is asked for.
    """
    check_depth(depth)
    if cap < 1:
        raise OracleArgumentError("the cap must be at least 1")
    values: dict[tuple, FuzzyTruth] = {}  # key -> the first value with it
    met: set[FuzzyTruth] = set()  # every value produced, whose key is in values

    def new(p: FuzzyTruth) -> bool:
        """Whether ``p`` is the first value with its key; stores it if so."""
        if p in met:
            return False
        met.add(p)
        a, b, c, d = p
        k = (round(a, 9), round(b, 9), round(c, 9), round(d, 9), a < 0.0 or d > 1.0)
        if k in values:
            return False
        values[k] = p
        return True

    for w in weights:
        if new(w):
            yield 0, w
    for level in range(1, depth + 1):
        current = list(values.values())
        for v in current:
            for p in (negate(v), naf(v)):
                if new(p):
                    yield level, p
        for i, v in enumerate(current):
            for w in current[i:]:
                for op in (conj, disj):
                    try:
                        p = op(v, w)
                    except OrderViolation:
                        continue
                    if new(p):
                        yield level, p
                if len(values) > cap:
                    raise ClosureTooLarge(f"closure exceeded {cap} values")
        if len(values) == len(current):
            break
