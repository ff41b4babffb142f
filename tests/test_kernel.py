"""The solver's body kernel against the fold through ``conj`` and ``disj``.

``solver._body`` and ``solver._contribution`` fold a head's rules on float
parameters, taking the restricted forms of ``conj`` and ``disj`` in place.
The reference below is that fold written with the connectives themselves;
the kernel must match it bit for bit, and raise where it raises.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzyasp import (
    TRUE,
    AggregationTie,
    FuzzyTruth,
    OrderViolation,
    conj,
    disj,
    kagg,
    naf,
    negate,
    tfn,
    trfn,
)
from fuzzyasp.program import LIT, NAF, VALUE
from fuzzyasp.solver import _body, _contribution, _target

from conftest import any_values, restricted_values
from test_connectives import HUGE, bits, edge_values

EPS = 1e-9


def reference_body(values, body, weight, naf_values):
    """Left-to-right ``conj`` fold of a compiled body, then the weight."""
    acc = None
    for kind, x in body:
        if kind == LIT:
            v = values[x]
        elif kind == NAF:
            v = naf(values[x]) if naf_values is None else naf_values[x]
        else:
            v = x
        acc = v if acc is None else conj(acc, v)
    return conj(TRUE if acc is None else acc, weight)


def reference_contribution(values, rules, naf_values):
    """``disj`` fold, in program order, of the rules' body values."""
    acc = None
    for body, weight in rules:
        v = reference_body(values, body, weight, naf_values)
        acc = v if acc is None else disj(acc, v)
    return acc


def reference_target(values, own, against, naf_values, eps):
    value = reference_contribution(values, own, naf_values)
    if against:
        return kagg(value, negate(reference_contribution(values, against, naf_values)), eps)
    return value


def outcome(fn, *args):
    """The result's type and parameter bits, or the exception type raised."""
    try:
        result = fn(*args)
    except (OrderViolation, AggregationTie) as exc:
        return type(exc)
    return type(result), bits(result)


truth_values = restricted_values() | any_values() | edge_values() | st.sampled_from(
    [tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1), tfn(0.4, 0.4, 1.5), trfn(-1e300, 0, 1, 1e300)]
)
SLOTS = 4  # literal ids 0-3


@st.composite
def rules(draw):
    """One head's compiled rules: bodies of 0-4 LIT/NAF/VALUE items."""
    items = st.tuples(st.sampled_from([LIT, NAF]), st.integers(0, SLOTS - 1)) | st.tuples(
        st.just(VALUE), truth_values
    )
    bodies = st.lists(items, max_size=4).map(tuple)
    return tuple(draw(st.lists(st.tuples(bodies, truth_values), min_size=1, max_size=3)))


@st.composite
def states(draw):
    """Literal values, and a frozen naf assignment or None."""
    values = draw(st.lists(truth_values, min_size=SLOTS, max_size=SLOTS))
    naf_values = draw(
        st.none()
        | st.lists(truth_values.map(naf), min_size=SLOTS, max_size=SLOTS).map(
            lambda points: dict(enumerate(points))
        )
    )
    return values, naf_values


SIGNED_ZEROS = (
    [tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1), trfn(-0.0, 0, -0.0, 1), TRUE],
    None,
)
ZERO_RULES = (
    (((LIT, 0), (LIT, 1)), trfn(-0.0, 0, -0.0, 1)),
    (((VALUE, trfn(-0.0, 0, -0.0, 1)), (VALUE, tfn(0, 0, 1))), tfn(0, 0, 1)),
)
OVERFLOW = ([trfn(-HUGE, 0, 1, HUGE), trfn(-1e300, 0, 1, 1e300), TRUE, TRUE], None)
OVERFLOW_RULES = ((((LIT, 0), (LIT, 1)), TRUE),)
TRUNCATED_RULES = (
    (((VALUE, tfn(0.1, 0.6, 1.2)), (NAF, 2)), tfn(0.4, 0.4, 1.5)),
    ((), trfn(-0.0, 0, -0.0, 1)),
)


class TestKernelBits:
    @settings(max_examples=250, deadline=None)
    @given(states(), rules())
    @example(SIGNED_ZEROS, ZERO_RULES)
    @example(OVERFLOW, OVERFLOW_RULES)
    @example(([TRUE] * SLOTS, {i: naf(TRUE) for i in range(SLOTS)}), TRUNCATED_RULES)
    def test_body_matches_reference_fold(self, state, rules):
        values, naf_values = state
        for body, weight in rules:
            expected = outcome(reference_body, values, body, weight, naf_values)
            got = outcome(_body, values, body, weight, naf_values)
            if isinstance(expected, tuple):  # a plain tuple: compare parameters only
                expected, got = expected[1], got[1]
            assert got == expected

    @settings(max_examples=250, deadline=None)
    @given(states(), rules())
    @example(SIGNED_ZEROS, ZERO_RULES)
    @example(OVERFLOW, OVERFLOW_RULES)
    def test_contribution_matches_reference_fold(self, state, rules):
        values, naf_values = state
        expected = outcome(reference_contribution, values, rules, naf_values)
        assert outcome(_contribution, values, rules, naf_values) == expected

    @settings(max_examples=250, deadline=None)
    @given(states(), rules(), rules() | st.just(()))
    @example(SIGNED_ZEROS, ZERO_RULES, ZERO_RULES[::-1])
    @example(OVERFLOW, ZERO_RULES, OVERFLOW_RULES)
    def test_target_matches_reference_fold(self, state, own, against):
        values, naf_values = state
        expected = outcome(reference_target, values, own, against, naf_values, EPS)
        assert outcome(_target, values, own, against, naf_values, EPS) == expected

    def test_signed_zero_keeps_the_first_product(self):
        # tfn(0,0,1) & trfn(-0.0,0,-0.0,1): c is max(0.0, -0.0, ...) = +0.0,
        # while a is 0.0 * -0.0
        values, naf_values = SIGNED_ZEROS
        body = ((LIT, 0), (LIT, 1))
        assert bits(_body(values, body, TRUE, naf_values)) == bits((-0.0, 0.0, 0.0, 1.0))
        assert bits(_body(values, (), values[1], naf_values)) == bits((-0.0, 0.0, 0.0, 1.0))

    def test_overflow_raises_order_violation(self):
        values, naf_values = OVERFLOW
        with pytest.raises(OrderViolation, match="non-finite parameter"):
            _contribution(values, OVERFLOW_RULES, naf_values)

    def test_one_value_built_per_head(self):
        values, naf_values = SIGNED_ZEROS
        assert type(_body(values, ZERO_RULES[0][0], TRUE, naf_values)) is tuple
        assert type(_contribution(values, ZERO_RULES, naf_values)) is FuzzyTruth
