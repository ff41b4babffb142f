import numpy as np
import pytest
from hypothesis import given
from scipy.integrate import quad

from fuzzyasp import (
    NotRestricted,
    Rel,
    compare,
    density,
    equal,
    equivalent_interval,
    ifn,
    leq_knowledge,
    leq_truth,
    measure,
    membership,
    negate,
    tfn,
    trfn,
    truth_degree,
    uncertainty_degree,
)
from fuzzyasp.oracle import integrate_density_mean

from conftest import any_values, restricted_values


def random_values(n, seed, truncated=False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        b, c = sorted(rng.uniform(0, 1, 2))
        if truncated:
            a = rng.uniform(-2, b)
            d = rng.uniform(c, 3)
            if a >= 0 and d <= 1:
                continue
        else:
            a = rng.uniform(0, b)
            d = rng.uniform(c, 1)
        out.append(trfn(a, b, c, d))
    return out


class TestTruthDegree:
    def test_triangle_lattice_value(self):
        assert truth_degree(tfn(0, 1 / 3, 1)) == pytest.approx(4 / 9, abs=1e-12)

    def test_trapezoid_lattice_value(self):
        assert truth_degree(trfn(0, 0, 1 / 3, 2 / 3)) == pytest.approx(7 / 27, abs=1e-12)

    def test_point_value(self):
        assert truth_degree(ifn(0.35, 0.35)) == 0.35

    def test_interval_midpoint(self):
        assert truth_degree(ifn(0.3, 0.7)) == pytest.approx(0.5)

    def test_truncated_against_oracle(self):
        # 53/80 by exact integration of the clipped density
        x = tfn(0.4, 0.4, 1.5)
        assert truth_degree(x) == pytest.approx(53 / 80, abs=1e-12)
        assert truth_degree(x) == pytest.approx(integrate_density_mean(x), abs=1e-8)

    def test_trapezoid_mean_formula(self):
        # the closed form gives 49/90
        q2 = trfn(0.3, 0.5, 0.7, 0.7)
        assert truth_degree(q2) == pytest.approx(49 / 90, abs=1e-12)
        assert integrate_density_mean(q2) == pytest.approx(49 / 90, abs=1e-8)


class TestUncertaintyDegree:
    def test_full_ignorance(self):
        assert uncertainty_degree(ifn(0, 1)) == 1

    def test_truncated_corner_subtraction(self):
        assert uncertainty_degree(tfn(0.4, 0.4, 1.5)) == pytest.approx(0.436, abs=1e-3)
        assert uncertainty_degree(tfn(0.4, 0.4, 1.5)) == pytest.approx(24 / 55, abs=1e-12)

    def test_point_has_none(self):
        assert uncertainty_degree(ifn(0.4, 0.4)) == 0

    def test_trapezoid(self):
        assert uncertainty_degree(trfn(0, 1 / 3, 2 / 3, 1)) == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: (d+c-b-a)/2 minus the two clipped corners "
        "cancels every digit on a wide support; k reads 0.0 at +-1e100 and "
        "-inf at +-1e200",
    )
    def test_wide_truncated_support_keeps_its_clipped_area(self):
        # the membership is 1 on all of [0, 1]: a uniform density
        for width in (1e100, 1e200):
            m = measure(trfn(-width, 0, 1, width))
            assert (m.t, m.k) == pytest.approx((0.5, 1.0), abs=1e-12)

    @given(any_values())
    def test_equals_membership_area(self, x):
        area, _ = quad(
            lambda v: membership(x, v), 0, 1,
            points=sorted({p for p in x if 0 < p < 1}) or None, limit=200,
        )
        assert uncertainty_degree(x) == pytest.approx(area, abs=1e-8)


class TestDensity:
    def test_uniform(self):
        assert density(ifn(0.25, 0.75), 0.5) == pytest.approx(2.0)

    def test_truncated_height(self):
        # density of the truncated triangle is h*(1.5-v)/1.1 inside [0.4, 1]
        x = tfn(0.4, 0.4, 1.5)
        h = 1 / uncertainty_degree(x)
        assert h == pytest.approx(2.292, abs=5e-3)
        for v in (0.4, 0.7, 1.0):
            assert density(x, v) == pytest.approx(h * (1.5 - v) / 1.1)
        assert density(x, 1.2) == 0
        assert density(x, 0.2) == 0

    def test_point_density_is_zero(self):
        assert density(ifn(0.5, 0.5), 0.5) == 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_normalisation(self, seed):
        for x in random_values(20, seed) + random_values(20, seed + 10, truncated=True):
            total, _ = quad(
                lambda v: density(x, v), 0, 1,
                points=sorted({p for p in x if 0 < p < 1}) or None, limit=200,
            )
            assert total == pytest.approx(1.0, abs=1e-6)


class TestClosedFormVsOracle:
    def test_ten_thousand_random_values(self):
        values = random_values(5000, 11) + random_values(5000, 12, truncated=True)
        worst = 0.0
        for x in values:
            diff = abs(truth_degree(x) - integrate_density_mean(x))
            worst = max(worst, diff)
        assert worst <= 1e-6


class TestOrderings:
    def test_truth_example(self):
        assert leq_truth(trfn(0.3, 0.3, 0.5, 0.7), ifn(0.3, 0.7))
        assert not leq_truth(ifn(0.3, 0.7), trfn(0.3, 0.3, 0.5, 0.7))

    @given(any_values())
    def test_reflexive(self, x):
        assert leq_truth(x, x)
        assert leq_knowledge(x, x)

    def test_truth_derived(self):
        assert leq_truth(ifn(0.3, 0.7), trfn(0.3, 0.5, 0.7, 0.7))

    def test_knowledge_examples(self):
        assert leq_knowledge(ifn(0.1, 0.9), tfn(0.1, 0.4, 0.9))
        assert leq_knowledge(ifn(0, 1), tfn(0, 0.5, 1))
        assert leq_knowledge(ifn(0, 1), ifn(0.2, 0.2))
        # interval below trapezoid below triangle on a shared support
        assert leq_knowledge(ifn(0.1, 0.9), trfn(0.1, 0.3, 0.6, 0.9))
        assert leq_knowledge(trfn(0.1, 0.3, 0.6, 0.9), tfn(0.1, 0.4, 0.9))

    @given(restricted_values(), restricted_values(), restricted_values())
    def test_total_preorders(self, x, y, z):
        assert leq_truth(x, y) or leq_truth(y, x)
        assert leq_knowledge(x, y) or leq_knowledge(y, x)
        eps = 1e-9
        if (
            truth_degree(x) <= truth_degree(y) - eps
            and truth_degree(y) <= truth_degree(z) - eps
        ):
            assert leq_truth(x, z)
        if (
            uncertainty_degree(x) >= uncertainty_degree(y) + eps
            and uncertainty_degree(y) >= uncertainty_degree(z) + eps
        ):
            assert leq_knowledge(x, z)

    @given(restricted_values())
    def test_negation_truth_symmetry(self, x):
        assert truth_degree(x) + truth_degree(negate(x)) == pytest.approx(1.0, abs=1e-9)

    def test_compare(self):
        rel = compare(ifn(0.3, 0.7), trfn(0.3, 0.3, 0.5, 0.7))
        assert rel.truth is Rel.GREATER
        assert rel.knowledge is Rel.LESS
        same = compare(ifn(0.2, 0.4), ifn(0.2, 0.4))
        assert same.truth is Rel.EQUAL and same.knowledge is Rel.EQUAL


class TestEquivalentInterval:
    def test_midpoint(self):
        assert equal(equivalent_interval(ifn(0.3, 0.7)), ifn(0.5, 0.5), 1e-12)

    def test_triangle(self):
        assert equal(equivalent_interval(tfn(0, 1 / 3, 1)), ifn(4 / 9, 4 / 9), 1e-12)

    def test_trapezoid(self):
        assert equal(equivalent_interval(trfn(0, 1 / 3, 2 / 3, 1)), ifn(0.5, 0.5), 1e-12)

    def test_rejects_truncated(self):
        with pytest.raises(NotRestricted):
            equivalent_interval(tfn(0.4, 0.4, 1.5))

    @given(restricted_values())
    def test_same_truth_degree(self, x):
        assert truth_degree(equivalent_interval(x)) == pytest.approx(
            truth_degree(x), abs=1e-12
        )


def test_measure_pair():
    m = measure(tfn(0, 1 / 3, 1))
    assert (m.t, m.k) == (pytest.approx(4 / 9), pytest.approx(0.5))


@pytest.mark.parametrize("truncated", [False, True])
def test_measure_is_the_two_degrees_bit_for_bit(truncated):
    # exact points, signed zeros and a support whose clipped area overflows too
    edges = [ifn(0.3, 0.3), trfn(-0.0, 0, -0.0, 1), trfn(0, 0, 0, 1), trfn(-1e308, 0, 1, 1e308)]
    for x in random_values(2_000, 11 + truncated, truncated) + edges:
        m = measure(x)
        assert (m.t.hex(), m.k.hex()) == (truth_degree(x).hex(), uncertainty_degree(x).hex())
