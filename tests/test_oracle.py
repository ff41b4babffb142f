import itertools
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad

from fuzzyasp import (
    FALSE,
    TRUE,
    UNKNOWN,
    AggregationTie,
    ClosureTooLarge,
    OrderViolation,
    conj,
    density,
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
)
from fuzzyasp import oracle
from fuzzyasp.oracle import (
    closure_enumerate,
    closure_levels,
    integrate_density_mean,
    prob_leq,
    sample_density,
)

from conftest import closure_key
from test_measures import random_values


class TestQuadratureMean:
    def test_uniform_mean(self):
        assert integrate_density_mean(ifn(0.3, 0.7)) == pytest.approx(0.5, abs=1e-8)

    def test_left_shouldered_trapezoid(self):
        assert integrate_density_mean(trfn(0.3, 0.3, 0.5, 0.7)) == pytest.approx(
            0.455, abs=1e-3
        )

    def test_truncated_triangle(self):
        assert integrate_density_mean(tfn(0.4, 0.4, 1.5)) == pytest.approx(
            53 / 80, abs=1e-8
        )

    def test_point_rejected(self):
        with pytest.raises(ValueError):
            integrate_density_mean(ifn(0.2, 0.2))

    def test_density_normalisation_tight(self):
        for x in random_values(25, 21) + random_values(25, 22, truncated=True):
            total, _ = quad(
                lambda v: density(x, v), 0, 1,
                points=sorted({p for p in x if 0 < p < 1}) or None, limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-8)


class TestSampling:
    def test_sample_support_and_mean(self):
        rng = np.random.default_rng(5)
        for x in (ifn(0.2, 0.6), tfn(0.1, 0.5, 0.9), tfn(0.4, 0.4, 1.5),
                  trfn(-0.5, 0.2, 0.7, 1.3)):
            draws = sample_density(x, 40_000, rng)
            lo, hi = max(0.0, x.a), min(1.0, x.d)
            assert draws.min() >= lo - 1e-12
            assert draws.max() <= hi + 1e-12
            assert draws.mean() == pytest.approx(truth_degree(x), abs=0.01)


class TestProbLeq:
    def test_printed_pair_above_half(self):
        est = prob_leq(ifn(0.3, 0.7), trfn(0.3, 0.5, 0.7, 0.7), samples=100_000)
        assert est.estimate == pytest.approx(0.617, abs=0.01)
        assert est.estimate > 0.5

    def test_printed_pair_below_half(self):
        est = prob_leq(ifn(0.3, 0.7), trfn(0.3, 0.3, 0.5, 0.7), samples=100_000)
        assert est.estimate == pytest.approx(0.388, abs=0.01)
        assert est.estimate < 0.5

    def test_self_comparison_is_symmetric(self):
        est = prob_leq(tfn(0.1, 0.4, 0.9), tfn(0.1, 0.4, 0.9), samples=100_000)
        assert abs(est.estimate - 0.5) <= 3 * est.stderr

    def test_equal_means_balance(self):
        # same truth degree 0.5 with different shapes
        est = prob_leq(tfn(0.2, 0.5, 0.8), ifn(0.3, 0.7), samples=100_000)
        assert abs(est.estimate - 0.5) <= 3 * est.stderr

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            prob_leq(ifn(0, 1), ifn(0, 1), samples=100)

    def test_requires_densities(self):
        with pytest.raises(ValueError):
            prob_leq(ifn(0.5, 0.5), ifn(0, 1))

    def test_deterministic_under_seed(self):
        a = prob_leq(ifn(0.2, 0.9), tfn(0.1, 0.5, 0.8), samples=10_000, seed=42)
        b = prob_leq(ifn(0.2, 0.9), tfn(0.1, 0.5, 0.8), samples=10_000, seed=42)
        assert a == b

    def test_sign_matches_truth_ordering(self):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 12:
            x = trfn(*sorted(rng.uniform(0, 1, 4)))
            y = trfn(*sorted(rng.uniform(0, 1, 4)))
            dt = truth_degree(y) - truth_degree(x)
            est = prob_leq(x, y, samples=50_000)
            if abs(dt) < max(0.02, 4 * est.stderr):
                continue
            assert (est.estimate > 0.5) == (dt > 0)
            checked += 1


class TestClosure:
    def test_certainty_seed(self):
        closure = closure_enumerate([TRUE], 1)
        assert len(closure) == 2
        assert any(equal(v, FALSE, 0) for v in closure)

    def test_unknown_yields_certainty(self):
        closure = closure_enumerate([UNKNOWN], 1)
        assert any(equal(v, TRUE, 0) for v in closure)

    def test_three_value_family_is_closed(self):
        closure = closure_enumerate([TRUE, UNKNOWN], 3)
        assert len(closure) == 3

    def test_tumor_weights_depth_two_finite(self):
        closure = closure_enumerate(
            [tfn(0.4, 0.4, 1.5), tfn(0.1, 0.1, 0.5), ifn(0.6, 1)], 2
        )
        assert 0 < len(closure) < 100_000

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            closure_enumerate([TRUE], 5)

    def test_size_cap(self):
        with pytest.raises(ClosureTooLarge):
            closure_enumerate(
                [tfn(0.4, 0.4, 1.5), tfn(0.1, 0.1, 0.5), ifn(0.6, 1)], 3, cap=1000
            )

    def test_saturated_level_ends_the_loop(self, monkeypatch):
        # level 1 adds FALSE, level 2 adds nothing, so level 3 never runs
        calls = []
        monkeypatch.setattr(oracle, "negate", lambda x: calls.append(x) or negate(x))
        assert len(closure_enumerate([TRUE, UNKNOWN], 3)) == 3
        assert len(calls) == 2 + 3

    def test_overflowing_products_leave_only_distinct_finite_values(self):
        # nan never equals itself, so a nan parameter would defeat closure_key
        seeds = [
            trfn(-1e200, -0.0, 0.23971710407934088, 1e308),
            tfn(0.04092567671562876, 0.1, 0.41669566917644174),
        ]
        closure = closure_enumerate(seeds, 3)
        assert all(make(*v) == v for v in closure)
        assert len({closure_key(v) for v in closure}) == len(closure)


def full_closure_loop(weights, depth, cap):
    """The closure loop before it skipped work, kept as the reference:
    every level applies all five connectives to every value and pair, and
    skips a conj or disj that overflows as it skips an aggregation tie.
    Returns the values and, for each, the round that first produced its
    key (0 for a seed)."""
    values = {}
    rounds = {}
    for w in weights:
        values.setdefault(closure_key(w), w)
        rounds.setdefault(closure_key(w), 0)
    for level in range(1, depth + 1):
        current = list(values.values())
        added = False
        for v in current:
            for produced in (negate(v), naf(v)):
                rounds.setdefault(closure_key(produced), level)
                if values.setdefault(closure_key(produced), produced) is produced:
                    added = True
        for v, w in itertools.product(current, current):
            produced = []
            for op in (conj, disj, kagg):
                try:
                    produced.append(op(v, w))
                except (OrderViolation, AggregationTie):
                    pass
            for p in produced:
                rounds.setdefault(closure_key(p), level)
                if values.setdefault(closure_key(p), p) is p:
                    added = True
            if len(values) > cap:
                raise ClosureTooLarge(f"closure exceeded {cap} values")
        if not added:
            break
    return tuple(values.values()), [rounds[closure_key(v)] for v in values.values()]


seed_core = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def seed_values(draw):
    """Valid seeds: signed zeros, 1.0, truncated supports, and outer
    parameters up to 1e300, whose products overflow."""
    b, c = sorted(draw(st.tuples(seed_core, seed_core)))
    a = draw(st.sampled_from([b, 0.0, -0.0, -1.0, -1e300]) | st.floats(-1e300, b))
    d = draw(st.sampled_from([c, 1.0, 2.0, 1e300]) | st.floats(c, 1e300))
    return make(a, b, c, d)


TUMOR_WEIGHTS = [tfn(0.4, 0.4, 1.5), tfn(0.1, 0.1, 0.5), ifn(0.6, 1)]


def packed(values):
    return [struct.pack("4d", *v) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(seed_values(), min_size=1, max_size=3),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from([1, 5, 60, 400, 3000]),
)
@example([tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1)], False, 3, 100_000)
# conj's zero rule decides a stored c: 0.0 * -0.0 is -0.0, and _product's
# max keeps its first core product, 0.0 * 0.0
@example([trfn(0, 0, 0, 0.5), trfn(0, 0, -0.0, 0.6)], False, 1, 100_000)
@example(TUMOR_WEIGHTS, False, 2, 100_000)
@example([trfn(-1e300, 0, 1, 1e300)], False, 3, 100_000)
@example([trfn(-1e300, 0.5, 0.5, 1e300)], True, 3, 3000)
@example(TUMOR_WEIGHTS, True, 3, 1000)
def test_closure_matches_the_full_loop(seeds, with_crisp, depth, cap):
    # same values in the same order, bit for bit, or the same cap error;
    # the 1e300 seeds overflow at depth 2 or 3, where a pair may have a
    # conj but no disj, or neither
    if with_crisp:
        seeds = [TRUE, UNKNOWN, *seeds]
    try:
        expected, rounds = full_closure_loop(seeds, depth, cap)
    except ClosureTooLarge as exc:
        with pytest.raises(ClosureTooLarge, match=str(exc)):
            closure_enumerate(seeds, depth, cap=cap)
    else:
        assert packed(closure_enumerate(seeds, depth, cap=cap)) == packed(expected)
        # the guess domain is cut back to the start of a level, so the
        # level tags decide it: each is the round that first made the key
        assert [level for level, _ in closure_levels(seeds, depth, cap)] == rounds
