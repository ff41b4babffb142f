"""Shared strategies and helpers for the test suite."""

import hypothesis.strategies as st
import pytest

from fuzzyasp import FuzzyTruth, make

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def restricted_values(draw) -> FuzzyTruth:
    params = sorted(draw(st.tuples(unit, unit, unit, unit)))
    return make(*params)


@st.composite
def any_values(draw) -> FuzzyTruth:
    """Restricted and truncated values: core in [0,1], support in [-2, 3]."""
    b, c = sorted(draw(st.tuples(unit, unit)))
    a = draw(st.floats(min_value=-2.0, max_value=b, allow_nan=False))
    d = draw(st.floats(min_value=c, max_value=3.0, allow_nan=False))
    return make(a, b, c, d)


def closure_key(x: FuzzyTruth) -> tuple:
    """The operator closure's key, which it keeps the first value of:
    parameters rounded to 9 digits, then the truncated flag."""
    a, b, c, d = x
    return (round(a, 9), round(b, 9), round(c, 9), round(d, 9), a < 0.0 or d > 1.0)


def approx_params(x: FuzzyTruth, params, tol=1e-9):
    __tracebackhide__ = True
    assert all(abs(p - q) <= tol for p, q in zip(x, params)), (
        f"{tuple(x)} != {tuple(params)}"
    )


@pytest.fixture
def tumor_source() -> str:
    return (
        "r1: tumor <- cin_on, tsg_off. [tfn(0.4,0.4,1.5)]\n"
        "r2: tumor <- tsg_off. [tfn(0.1,0.1,0.5)]\n"
        "r3: tsg_off <- cin_on. [ifn(0.6,1)]\n"
        "cin_on.\n"
    )
