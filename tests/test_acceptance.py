"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible even
without -s) with its runtime, and fails the build when its condition or
time budget is missed.
"""

import json
import pathlib
import time
from fractions import Fraction

import numpy as np
import pytest

from fuzzyasp import (
    FALSE,
    TRUE,
    UNKNOWN,
    conj,
    disj,
    equal,
    ground,
    ifn,
    interpretations_equal,
    naf,
    negate,
    parse,
    solve,
    tfn,
    trfn,
    truth_degree,
    uncertainty_degree,
)
from fuzzyasp.cli import main
from fuzzyasp.oracle import integrate_density_mean, prob_leq
from fuzzyasp.table import REFERENCE_THIRDS

from bruteforce_oracle import BruteForce, weight_closure

HERE = pathlib.Path(__file__).parent
TUMOR_PROGRAM = HERE.parent / "programs" / "tumor.fasp"


def report(capsys, name, ok, elapsed, extra=""):
    __tracebackhide__ = True
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({extra})" if extra else ""
        print(f"[{status}] {name} [{elapsed:.2f}s]{suffix}")
    assert ok, name


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["table", "--step", "1/3"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0

    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        kind, value, t_text, k_text = line.split()[:4]
        params = tuple(Fraction(p) for p in value[len(kind) + 1 : -1].split(","))
        rows[(kind, params)] = (Fraction(t_text), Fraction(k_text), line)

    matched = 0
    for key, (t_ref, k_ref) in REFERENCE_THIRDS.items():
        t_got, k_got, line = rows[key]
        assert abs(float(t_got) - float(t_ref)) <= 1e-12, line
        assert abs(float(k_got) - float(k_ref)) <= 1e-12, line
        assert (t_got, k_got) == (t_ref, k_ref), line
        assert "table-ref-mismatch" not in line
        matched += 1

    ok = matched == 29 and "table-ref-mismatch" not in out and elapsed < 1.0
    report(capsys, "criterion 1: table --step 1/3 reproduces all 29 rows",
           ok, elapsed, f"{matched}/29 rows, no formula/table conflicts")


def test_criterion_2_truncated_triangle_measures(capsys):
    t0 = time.perf_counter()
    x = tfn(0.4, 0.4, 1.5)
    k = uncertainty_degree(x)
    h = 1.0 / k
    t = truth_degree(x)
    oracle_t = integrate_density_mean(x)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(k - 0.436) <= 1e-3
        and abs(h - 2.292) <= 5e-3
        and abs(t - oracle_t) <= 1e-6
    )
    report(capsys, "criterion 2: truncated-triangle reference k and h, t vs oracle",
           ok, elapsed, f"k={k:.6f} h={h:.6f} t={t:.6f} oracle={oracle_t:.6f}")


def test_criterion_3_probability_example(capsys):
    t0 = time.perf_counter()
    p = ifn(0.3, 0.7)
    q1 = trfn(0.3, 0.3, 0.5, 0.7)
    q2 = trfn(0.3, 0.5, 0.7, 0.7)
    above = prob_leq(p, q2, samples=1_000_000)
    below = prob_leq(p, q1, samples=1_000_000)
    mean_q1 = truth_degree(q1)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(above.estimate - 0.617) <= 0.01
        and abs(below.estimate - 0.388) <= 0.01
        and abs(mean_q1 - 0.455) <= 1e-3
        and elapsed < 10.0
    )
    report(capsys, "criterion 3: Prob(p<=q2)~0.617, Prob(p<=q1)~0.388, E(q1)~0.455",
           ok, elapsed,
           f"{above.estimate:.4f} / {below.estimate:.4f} / {mean_q1:.4f}")


def test_criterion_4_truth_order_sign_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    agreements = 0
    pairs = 0
    while pairs < 200:
        x = trfn(*np.sort(rng.uniform(0, 1, 4)))
        y = trfn(*np.sort(rng.uniform(0, 1, 4)))
        dt = truth_degree(y) - truth_degree(x)
        if abs(dt) <= 0.02:
            continue
        pairs += 1
        est = prob_leq(x, y, samples=100_000, seed=pairs)
        if (est.estimate > 0.5) == (dt > 0):
            agreements += 1
    elapsed = time.perf_counter() - t0

    ok = agreements >= 198 and elapsed < 120.0
    report(capsys, "criterion 4: Monte Carlo sign matches truth ordering (200 pairs)",
           ok, elapsed, f"{agreements}/200 agree")


def test_criterion_5_connective_laws(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    n = 10_000

    def squash(params):
        b, c = sorted(params[1:3])
        a = min(params[0], b)
        d = max(params[3], c)
        return a, b, c, d

    mixed, restricted = [], []
    for _ in range(n):
        restricted.append(trfn(*np.sort(rng.uniform(0, 1, 4))))
        b, c = np.sort(rng.uniform(0, 1, 2))
        mixed.append(
            trfn(min(rng.uniform(-2, 1), b), b, c, max(rng.uniform(0, 3), c))
        )

    ok = True
    for x, y in zip(mixed, restricted):
        ok = ok and equal(negate(negate(x)), x, 1e-9)
        ok = ok and abs(uncertainty_degree(negate(x)) - uncertainty_degree(x)) <= 1e-9
        ok = ok and equal(conj(x, y), negate(disj(negate(x), negate(y))), 1e-9)
        ok = ok and equal(disj(x, y), negate(conj(negate(x), negate(y))), 1e-9)
        ok = ok and conj(y, TRUE) == y
        ok = ok and conj(y, FALSE) == FALSE
        ok = ok and equal(naf(x), ifn(1 - x.b, 1 - x.b), 1e-9)
        ok = ok and uncertainty_degree(naf(x)) == 0
        if not ok:
            break

    # failure-as-negation reference equalities
    ok = ok and naf(UNKNOWN) == TRUE
    ok = ok and equal(naf(trfn(0, 0, 1, 1)), TRUE, 0)
    ok = ok and all(
        equal(naf(ifn(a, d)), ifn(1 - a, 1 - a), 1e-9)
        for a, d in ((0.0, 1.0), (0.25, 0.5), (1.0, 1.0))
    )
    # reflection reference examples, exact up to float rounding
    ok = ok and equal(negate(tfn(0.2, 0.6, 0.7)), tfn(0.3, 0.4, 0.8), 1e-12)
    ok = ok and equal(negate(trfn(-2, 0.3, 0.9, 3)), trfn(-2, 0.1, 0.7, 3), 1e-12)
    elapsed = time.perf_counter() - t0

    report(capsys, "criterion 5: connective laws on 10^4 values plus reference examples",
           ok, elapsed)


def test_criterion_6_tumor_end_to_end(capsys):
    golden = json.loads((HERE / "fixtures" / "tumor_golden.json").read_text())

    # independent flat re-derivation of the golden values
    def mm(x, y):
        outer = (x[0] * y[0], x[0] * y[3], x[3] * y[0], x[3] * y[3])
        core = (x[1] * y[1], x[1] * y[2], x[2] * y[1], x[2] * y[2])
        return (min(outer), min(core), max(core), max(outer))

    def neg(x):
        return (1 - x[3], 1 - x[2], 1 - x[1], 1 - x[0])

    one = (1.0, 1.0, 1.0, 1.0)
    tsg = mm(mm(one, one), (0.6, 0.6, 1.0, 1.0))
    r1 = mm(mm(mm(one, one), tsg), (0.4, 0.4, 0.4, 1.5))
    r2 = mm(tsg, (0.1, 0.1, 0.1, 0.5))
    tumor_flat = neg(mm(neg(r1), neg(r2)))
    assert tumor_flat == tuple(golden["tumor"])

    t0 = time.perf_counter()
    report_obj = solve(parse(TUMOR_PROGRAM.read_text()))
    elapsed = time.perf_counter() - t0

    ok = len(report_obj.answer_sets) == 1 and elapsed < 1.0
    if ok:
        (model,) = report_obj.answer_sets
        by_name = {l.render(): v for l, v in model.items()}
        ok = by_name["tsg_off"] == (0.6, 0.6, 1.0, 1.0)
        ok = ok and by_name["cin_on"] == (1.0, 1.0, 1.0, 1.0)
        got = by_name["tumor"]
        ok = ok and all(
            abs(p - q) <= 1e-12 for p, q in zip(got, golden["tumor"])
        )
        ok = ok and got.truncated
    report(capsys, "criterion 6: tumor program has one answer set matching the fixture",
           ok, elapsed)


SUITE = [
    "a.",
    "a. [ifn(0,1)]",
    "a <- b.",
    "a <- b. b.",
    "a <- a.",
    "a <- not b.",
    "a <- not b. b <- not a.",
    "a <- not a.",
    "a <- not a. a.",
    "b. a <- b, not c.",
    "a. -a.",
    "a. -a <- not b.",
    "a. [ifn(0.6,1)] -a.",
    "a <- not b. b. [ifn(0.6,1)]",
    "a <- not b. [ifn(0.5,0.5)] b <- not a.",
    "a <- not b. b <- not a. c.",
    "a <- not b. b <- not c. c.",
    "a <- not b. b <- not c. c <- not a.",
    "a <- b, c. b. c.",
    "a <- ifn(0,1), b. b.",
    "a. a.",
    "a <- not b. a <- not c. b.",
    "a <- not b, not c. b. c.",
    "-a. a <- not b.",
]


def test_criterion_7_brute_force_equivalence(capsys):
    assert len(SUITE) >= 20
    assert "a <- not b. b <- not a." in SUITE  # even loop
    assert "a <- not a." in SUITE  # odd loop
    assert any("-a" in src for src in SUITE)  # complementary heads

    t0 = time.perf_counter()
    failures = []
    for src in SUITE:
        gp = ground(parse(src))
        expected = BruteForce(gp).answer_sets(weight_closure(gp, depth=3))
        got = solve(parse(src)).answer_sets
        same = len(expected) == len(got) and all(
            any(interpretations_equal(e, g, 1e-9) for g in got) for e in expected
        )
        if not same:
            failures.append(f"{src!r}: brute force {len(expected)} vs solve {len(got)}")
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 300.0
    report(capsys, "criterion 7: solve matches brute force on the program suite",
           ok, elapsed, f"{len(SUITE)} programs" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_8_no_full_scale_claims(capsys):
    # there are no large-scale experimental claims behind this package; every
    # reference number it must reproduce is desk-scale and covered above
    report(capsys, "criterion 8: no full-scale claims exist to reproduce", True, 0.0)
