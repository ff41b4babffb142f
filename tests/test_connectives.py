import math
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzyasp import (
    FALSE,
    FuzzyTruth,
    TRUE,
    UNKNOWN,
    AggregationTie,
    OrderViolation,
    conj,
    disj,
    equal,
    ifn,
    kagg,
    make,
    naf,
    negate,
    tfn,
    trfn,
    truth_degree,
    uncertainty_degree,
)

from fuzzyasp.connectives import _product

from conftest import any_values, approx_params, closure_key, restricted_values

core_params = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0) | st.floats(0.0, 1e-300)
HUGE = 1.7976931348623157e308  # the largest finite float


@st.composite
def edge_values(draw) -> FuzzyTruth:
    """Valid values with edge cases: signed zeros, 1.0 and subnormals in
    the core, and supports reaching past [0, 1] up to the largest finite
    float, so that products of two of them can overflow."""
    b, c = sorted(draw(st.tuples(core_params, core_params)))
    a = draw(
        st.sampled_from([b, 0.0, -0.0, -1e300, -HUGE])
        | st.floats(max_value=b, allow_infinity=False)
    )
    d = draw(
        st.sampled_from([c, 1.0, 1e300, HUGE])
        | st.floats(min_value=c, allow_infinity=False)
    )
    return make(a, b, c, d)


def overflows(params) -> bool:
    """An outer parameter of a general product is inf or nan."""
    return not (math.isfinite(params[0]) and math.isfinite(params[3]))


def bits(params) -> bytes:
    return struct.pack(f"{len(params)}d", *params)


def flat_minmax_conj(x, y):
    """Independent re-derivation of the cross-product rule for tests."""
    outer = (x.a * y.a, x.a * y.d, x.d * y.a, x.d * y.d)
    core = (x.b * y.b, x.b * y.c, x.c * y.b, x.c * y.c)
    return (min(outer), min(core), max(core), max(outer))


class TestNegate:
    def test_printed_triangle(self):
        approx_params(negate(tfn(0.2, 0.6, 0.7)), (0.3, 0.4, 0.4, 0.8), tol=1e-12)

    def test_printed_truncated_trapezoid(self):
        x = negate(trfn(-2, 0.3, 0.9, 3))
        approx_params(x, (-2, 0.1, 0.7, 3), tol=1e-12)
        assert x.truncated

    def test_reflection_inside_the_unit_interval_is_not_truncated(self):
        # 1 - (-1e-17) rounds to 1.0: the reflected parameters lie in [0, 1]
        x = negate(trfn(-1e-17, 0.0, 0.5, 0.5))
        assert x == (0.5, 0.5, 1.0, 1.0)
        assert not x.truncated

    @given(any_values())
    def test_involution(self, x):
        assert equal(negate(negate(x)), x, 1e-12)

    @given(any_values())
    def test_preserves_uncertainty(self, x):
        assert uncertainty_degree(negate(x)) == pytest.approx(
            uncertainty_degree(x), abs=1e-9
        )

    @given(restricted_values())
    def test_reflects_truth(self, x):
        assert truth_degree(negate(x)) == pytest.approx(1 - truth_degree(x), abs=1e-9)


class TestNaf:
    def test_unknown_fails(self):
        assert naf(UNKNOWN) == TRUE

    def test_certain_truth_fails_to_fail(self):
        assert naf(TRUE) == FALSE

    def test_truncated_uses_stored_peak(self):
        assert naf(tfn(0.4, 0.4, 1.5)) == ifn(0.6, 0.6)

    @given(restricted_values())
    def test_interval_rule(self, x):
        # not ifn(a,b) = ifn(1-a, 1-a); a is the second quadruple slot
        assert equal(naf(ifn(x.a, x.d)), ifn(1 - x.a, 1 - x.a), 1e-12)

    @given(any_values())
    def test_general_rule_and_zero_uncertainty(self, x):
        assert equal(naf(x), ifn(1 - x.b, 1 - x.b), 1e-12)
        assert uncertainty_degree(naf(x)) == 0


class TestConj:
    def test_interval_products(self):
        assert conj(ifn(0.5, 1), ifn(0.5, 1)) == ifn(0.25, 1)

    @given(restricted_values())
    def test_identity(self, x):
        assert conj(x, TRUE) == x
        assert conj(TRUE, x) == x

    @given(restricted_values())
    def test_annihilator(self, x):
        assert conj(x, FALSE) == FALSE

    def test_mixed_truncated(self):
        v = conj(ifn(0.6, 1), tfn(0.4, 0.4, 1.5))
        approx_params(v, (0.24, 0.24, 0.4, 1.5), tol=1e-12)
        assert v.truncated

    @given(restricted_values(), restricted_values())
    def test_restricted_componentwise(self, x, y):
        v = conj(x, y)
        assert v == (x.a * y.a, x.b * y.b, x.c * y.c, x.d * y.d)
        assert not v.truncated

    @given(any_values(), any_values())
    def test_matches_flat_derivation(self, x, y):
        assert conj(x, y) == flat_minmax_conj(x, y)

    @given(any_values(), any_values())
    def test_commutative_and_ordered(self, x, y):
        v = conj(x, y)
        assert v == conj(y, x)
        assert v.a <= v.b <= v.c <= v.d
        assert v.truncated == (v.a < 0 or v.d > 1)

    @given(restricted_values(), restricted_values(), restricted_values())
    def test_associative_restricted(self, x, y, z):
        assert equal(conj(conj(x, y), z), conj(x, conj(y, z)), 1e-9)

    @settings(max_examples=500)
    @given(edge_values(), edge_values())
    @example(tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1))
    @example(trfn(-1e308, 0, 1, 1e308), trfn(-1e308, 0, 1, 1e308))
    @example(trfn(-HUGE, 0, 0, 0), trfn(-HUGE, 1, 1, 1))
    def test_bit_identical_to_the_general_product(self, x, y):
        # the rule: OrderViolation exactly where the general product
        # overflows, and otherwise a value that make accepts
        expected = _product(*x, *y)
        if overflows(expected):
            with pytest.raises(OrderViolation, match="non-finite parameter"):
                conj(x, y)
        else:
            v = conj(x, y)
            assert bits(v) == bits(expected)
            assert make(*v) == v


class TestDisj:
    def test_identity_dual(self):
        x = trfn(0.1, 0.3, 0.5, 0.8)
        assert equal(disj(x, FALSE), x, 1e-12)

    def test_hand_expansion(self):
        assert equal(disj(ifn(0.5, 1), ifn(0.5, 1)), ifn(0.75, 1), 1e-12)

    def test_annihilator(self):
        assert equal(disj(TRUE, tfn(0.2, 0.4, 0.9)), TRUE, 1e-12)

    @settings(max_examples=500)
    @given(edge_values(), edge_values())
    @example(tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1))
    @example(trfn(-1e308, 0, 1, 1e308), trfn(-1e308, 0, 1, 1e308))
    @example(trfn(-HUGE, 0, 0, 0), trfn(-HUGE, 1, 1, 1))
    def test_bit_identical_to_the_composed_dual(self, x, y):
        if overflows(_product(*negate(x), *negate(y))):
            with pytest.raises(OrderViolation, match="non-finite parameter"):
                disj(x, y)
        else:
            v = disj(x, y)
            assert bits(v) == bits(negate(conj(negate(x), negate(y))))
            assert make(*v) == v

    @given(any_values(), any_values())
    def test_de_morgan_both_ways(self, x, y):
        assert equal(disj(x, y), negate(conj(negate(x), negate(y))), 1e-9)
        assert equal(conj(x, y), negate(disj(negate(x), negate(y))), 1e-9)


class TestKagg:
    def test_more_certain_wins(self):
        assert kagg(ifn(0.6, 1), ifn(0, 1)) == ifn(0.6, 1)
        assert kagg(ifn(0, 1), ifn(0.6, 1)) == ifn(0.6, 1)

    def test_idempotent(self):
        x = tfn(0.2, 0.5, 0.9)
        assert kagg(x, x) == x

    def test_tie_with_distinct_values(self):
        with pytest.raises(AggregationTie):
            kagg(TRUE, FALSE)

    @given(any_values(), any_values())
    def test_picks_an_argument_with_minimal_k(self, x, y):
        try:
            v = kagg(x, y)
        except AggregationTie:
            assert abs(uncertainty_degree(x) - uncertainty_degree(y)) <= 1e-9
            return
        assert v is x or v is y
        assert uncertainty_degree(v) == pytest.approx(
            min(uncertainty_degree(x), uncertainty_degree(y)), abs=1e-9
        )


class TestUnrolledKernels:
    @given(edge_values(), edge_values(), st.sampled_from([1e-9, 0.0, 0.5, math.inf]))
    @example(tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1), 0.0)
    def test_equal_matches_the_generator_form(self, x, y, eps):
        assert equal(x, y, eps) is all(abs(p - q) <= eps for p, q in zip(x, y))

    @given(edge_values())
    @example(trfn(-0.0, 0, -0.0, 1))
    def test_oracle_key_matches_the_tuple_form(self, x):
        expected = tuple(round(p, 9) for p in x) + (x.truncated,)
        key = closure_key(x)
        assert bits(key[:4]) == bits(expected[:4])
        assert key[4] is expected[4]
