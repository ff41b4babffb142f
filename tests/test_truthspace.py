import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzyasp import (
    AlphaOutOfRange,
    CoreOutOfRange,
    FuzzyTruth,
    OrderViolation,
    ParseError,
    alpha_cut,
    equal,
    ifn,
    make,
    membership,
    parse_value,
    tfn,
    trfn,
)

from conftest import any_values, approx_params, restricted_values, unit


class TestMake:
    def test_a_value_is_its_parameter_tuple(self):
        assert FuzzyTruth._fields == ("a", "b", "c", "d")
        assert not FuzzyTruth(0.2, 0.3, 0.4, 0.5).truncated
        assert FuzzyTruth(-0.1, 0.3, 0.4, 0.5).truncated
        assert FuzzyTruth(0.2, 0.3, 0.4, 1.5).truncated
        assert tuple(tfn(0.4, 0.4, 1.5)) == (0.4, 0.4, 0.4, 1.5)

    def test_truncated_triangle(self):
        x = make(0.4, 0.4, 0.4, 1.5)
        assert x.truncated
        assert x.kind == "tfn"
        assert x == (0.4, 0.4, 0.4, 1.5)

    def test_full_ignorance_interval(self):
        x = make(0, 0, 1, 1)
        assert not x.truncated
        assert x.kind == "ifn"

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            make(0.3, 0.2, 0.5, 0.7)

    @pytest.mark.parametrize(
        "params", [(0, 1, 1, math.inf), (-math.inf, 0, 1, 1), (0, 0.5, 0.5, math.nan)]
    )
    def test_non_finite_parameters(self, params):
        with pytest.raises(OrderViolation):
            make(*params)

    def test_core_out_of_range(self):
        with pytest.raises(CoreOutOfRange):
            make(0.0, 0.5, 1.2, 1.5)
        # negative core is rejected even though the support may dip below 0
        with pytest.raises(CoreOutOfRange):
            make(-0.5, -0.1, 0.5, 0.7)

    def test_convenience_constructors(self):
        assert ifn(0.2, 0.9) == (0.2, 0.2, 0.9, 0.9)
        assert tfn(0, 0.5, 1) == (0, 0.5, 0.5, 1)
        assert trfn(0, 0.25, 0.5, 1) == (0, 0.25, 0.5, 1)

    def test_doubly_semi_restricted_accepted(self):
        x = make(-2, 0.3, 0.9, 3)
        assert x.truncated

    @given(any_values())
    def test_round_trip_exact(self, x):
        assert make(*x) == x


class TestMembership:
    def test_left_ramp(self):
        assert membership(trfn(0.2, 0.4, 0.6, 0.8), 0.3) == pytest.approx(0.5)

    def test_peak_normalised(self):
        assert membership(tfn(0, 0.5, 1), 0.5) == 1

    def test_truncated_outside_unit(self):
        assert membership(tfn(0.4, 0.4, 1.5), 1.2) == 0
        assert membership(tfn(0.4, 0.4, 1.5), 1.0) == pytest.approx(0.5 / 1.1)

    def test_degenerate_jump_takes_plateau(self):
        assert membership(ifn(0.3, 0.7), 0.3) == 1
        assert membership(ifn(0.3, 0.7), 0.7) == 1
        assert membership(tfn(0.4, 0.4, 1.5), 0.4) == 1

    @given(any_values(), st.floats(min_value=-1, max_value=2, allow_nan=False))
    def test_range_and_support(self, x, v):
        mu = membership(x, v)
        assert 0.0 <= mu <= 1.0
        if v < max(x.a, 0 if x.truncated else x.a) or v > min(
            x.d, 1 if x.truncated else x.d
        ):
            assert mu == 0

    @given(any_values(), unit, unit, unit)
    @example(x=ifn(0.0, 0.96875), v1=0.96875, v2=0.96875, lam=0.24703600610192106)
    def test_convexity(self, x, v1, v2, lam):
        # the blend can round one ulp past both ends (0.96875 -> 0.9687500000000001)
        mid = min(max(lam * v1 + (1 - lam) * v2, min(v1, v2)), max(v1, v2))
        assert membership(x, mid) >= min(membership(x, v1), membership(x, v2)) - 1e-9

    @given(any_values())
    def test_normalisation_somewhere_in_core(self, x):
        assert membership(x, x.b) == 1
        assert membership(x, x.c) == 1


class TestAlphaCut:
    def test_triangle(self):
        cut = alpha_cut(tfn(0, 0.5, 1), 0.5)
        assert (cut.lower, cut.upper) == pytest.approx((0.25, 0.75))

    def test_interval_is_constant(self):
        cut = alpha_cut(ifn(0.2, 0.9), 0.7)
        assert (cut.lower, cut.upper) == (0.2, 0.9)

    @given(any_values())
    def test_alpha_zero_is_base_range(self, x):
        cut = alpha_cut(x, 0)
        assert (cut.lower, cut.upper) == (x.a, x.d)

    @given(any_values())
    def test_alpha_one_is_core(self, x):
        cut = alpha_cut(x, 1)
        assert cut.lower == pytest.approx(x.b)
        assert cut.upper == pytest.approx(x.c)

    @given(any_values(), unit, unit)
    def test_monotone_nesting(self, x, a1, a2):
        lo, hi = sorted((a1, a2))
        inner, outer = alpha_cut(x, hi), alpha_cut(x, lo)
        assert inner.lower >= outer.lower - 1e-9
        assert inner.upper <= outer.upper + 1e-9

    def test_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            alpha_cut(ifn(0, 1), 1.5)


class TestEqual:
    def test_canonical_identity(self):
        assert equal(ifn(0.3, 0.7), trfn(0.3, 0.3, 0.7, 0.7), 1e-9)

    def test_within_tolerance(self):
        assert equal(tfn(0, 0.5, 1), tfn(0, 0.5, 1 + 1e-12), 1e-9)

    def test_distinct(self):
        assert not equal(ifn(0, 1), ifn(1, 1), 1e-9)

    def test_boundary_straddle_counts_as_equal(self):
        # flags differ (one value is barely truncated) but parameters agree
        assert equal(tfn(0, 0.5, 1 + 1e-12), tfn(0, 0.5, 1), 1e-9)

    def test_truncated_vs_restricted_distinct(self):
        assert not equal(tfn(0.4, 0.4, 1.5), tfn(0.4, 0.4, 1.0), 1e-9)


class TestParseRender:
    @given(any_values())
    def test_render_parse_round_trip(self, x):
        assert parse_value(x.render()) == x

    def test_fractions(self):
        assert parse_value("tfn(0, 1/3, 1)") == tfn(0, 1 / 3, 1)

    def test_kind_display(self):
        assert parse_value("trfn(0.3,0.3,0.7,0.7)").render() == "ifn(0.3,0.7)"

    @pytest.mark.parametrize(
        "text", ["ifn(0.3)", "tfn(0,0.5,1,1)", "foo(1,2)", "ifn(a,b)", ""]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_value(text)

    def test_scientific_notation(self):
        assert parse_value("ifn(1e-1, 5e-1)") == ifn(0.1, 0.5)
        assert math.isclose(parse_value("ifn(0.25,.75)").d, 0.75)
