"""Independent numeric checks: quadrature, Monte Carlo, operator closure.

The quadrature and Monte Carlo checks are the correctness yardstick for the
closed-form measures and the solver's brute-force tests.  The operator
closure is also on the solve path: on every program with a cycle through
naf the solver draws its naf guess domain from :func:`closure_levels`, the
level-by-level stream that :func:`closure_enumerate` collects, and stops it
once the domain is too large.  So the closure is a float kernel, as the
solver's rule bodies are: a pair of restricted values is combined on its
parameters, and a value is built only when its key is new.  numpy and scipy
are imported inside the numeric checks only, so the solver's use of the
closure (and importing the CLI) does not load them.
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

    A pair of restricted values takes ``conj``'s and ``disj``'s
    componentwise products on its float parameters, bit for bit, and a pair
    with a truncated value calls them; a value is built only for a key not
    seen before.

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

    The pairs run on float parameters.  Each level unpacks its values once,
    with their reflected parameters ``1 - x``; a pair of restricted values
    takes the componentwise products of ``conj`` and ``disj`` in place, zero
    rule included, and a pair with a truncated value calls them.  A result
    is keyed on its parameters, and a FuzzyTruth is built only for a key
    not seen before.  Within one run the rounding of the key is memoised:
    a closure has far fewer distinct floats than parameters.

    Raises OracleArgumentError unless 0 <= depth <= 4 and cap >= 1, as the
    first value is asked for.
    """
    check_depth(depth)
    if cap < 1:
        raise OracleArgumentError("the cap must be at least 1")
    # round(x, 9) by float, so -0.0 shares 0.0's entry: a key may hold
    # either zero, which == does not tell apart
    rounded: dict[float, float] = {}

    def key(a: float, b: float, c: float, d: float) -> tuple:
        # the key of closure_enumerate, up to the sign of a zero
        for x in (a, b, c, d):
            if x not in rounded:
                rounded[x] = round(x, 9)
        return (rounded[a], rounded[b], rounded[c], rounded[d], a < 0.0 or d > 1.0)

    values: dict[tuple, FuzzyTruth] = {}
    for w in weights:
        k = key(*w)
        if k not in values:
            values[k] = w
            yield 0, w
    for level in range(1, depth + 1):
        current = list(values.values())
        for v in current:
            for p in (negate(v), naf(v)):
                k = key(*p)
                if k not in values:
                    values[k] = p
                    yield level, p
        # each value's parameters, reflected parameters and whether it is restricted
        rows = [
            (v, a, b, c, d, 1.0 - a, 1.0 - b, 1.0 - c, 1.0 - d, 0.0 <= a and d <= 1.0)
            for v in current
            for a, b, c, d in (v,)
        ]
        for i, (v, xa, xb, xc, xd, ra, rb, rc, rd, v_restricted) in enumerate(rows):
            for w, ya, yb, yc, yd, sa, sb, sc, sd, w_restricted in rows[i:]:
                if v_restricted and w_restricted:
                    # conj's restricted form, zero rule included, then disj's;
                    # both results are restricted, so their keys end in False
                    a = xa * ya
                    b = xb * yb
                    c = xc * yc or b
                    d = xd * yd or a
                    try:
                        k = (rounded[a], rounded[b], rounded[c], rounded[d], False)
                    except KeyError:
                        k = key(a, b, c, d)
                    if k not in values:
                        values[k] = p = FuzzyTruth(a, b, c, d)
                        yield level, p
                    a = 1.0 - ra * sa
                    b = 1.0 - rb * sb
                    c = 1.0 - rc * sc
                    d = 1.0 - rd * sd
                    try:
                        k = (rounded[a], rounded[b], rounded[c], rounded[d], False)
                    except KeyError:
                        k = key(a, b, c, d)
                    if k not in values:
                        values[k] = p = FuzzyTruth(a, b, c, d)
                        yield level, p
                else:
                    for op in (conj, disj):
                        try:
                            p = op(v, w)
                        except OrderViolation:
                            continue
                        k = key(*p)
                        if k not in values:
                            values[k] = p
                            yield level, p
                if len(values) > cap:
                    raise ClosureTooLarge(f"closure exceeded {cap} values")
        if len(values) == len(current):
            break
