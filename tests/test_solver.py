import functools
import itertools
import json
import logging
import math
import pathlib
import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import assume, event, example, given, settings

from fuzzyasp import (
    FALSE,
    TRUE,
    UNKNOWN,
    Atom,
    ClosureTooLarge,
    FuzzyAspError,
    FuzzyTruth,
    GroundProgram,
    GuessLimitExceeded,
    Inconsistent,
    Interpretation,
    Literal,
    Naf,
    NonConvergent,
    OracleArgumentError,
    Rule,
    Status,
    conj,
    disj,
    equal,
    ground,
    ifn,
    interpretations_equal,
    is_inconsistent,
    kmin_supported_model,
    measure,
    naf,
    oracle,
    parse,
    solve,
    solver,
    tfn,
    trfn,
    uncertainty_degree,
    verify_answer_set,
)
from fuzzyasp.program import VALUE
from fuzzyasp.solver import DEFAULT_MAX_ITER
from fuzzyasp.truthspace import DEFAULT_EPS

from bruteforce_oracle import joint_guess_domain, joint_solve, pairwise_distinct
from conftest import approx_params
from reference_semantics import eval_body, is_supported, reduct, satisfies
from test_engine import stratified_programs
from test_oracle import seed_values

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lit(name, negated=False):
    return Literal(Atom(name), negated)


def interp(**values):
    out = {}
    for name, v in values.items():
        negated = name.startswith("n_")
        out[lit(name[2:] if negated else name, negated)] = v
    return Interpretation(out)


class TestInconsistency:
    def test_both_certainly_true(self):
        i = interp(a=TRUE, n_a=TRUE)
        assert is_inconsistent(i) == Atom("a")

    def test_complementary_certainties(self):
        assert is_inconsistent(interp(a=TRUE, n_a=FALSE)) is None

    def test_equal_k_complementary_t(self):
        assert is_inconsistent(interp(a=ifn(0.6, 1), n_a=ifn(0, 0.4))) is None

    def test_equal_k_contradictory_t(self):
        i = interp(a=ifn(0.6, 1), n_a=ifn(0.1, 0.5))
        assert is_inconsistent(i) == Atom("a")

    def test_defaults_are_consistent(self):
        assert is_inconsistent(interp(a=UNKNOWN, n_a=UNKNOWN)) is None

    @pytest.mark.parametrize("names", [("n_a", "a"), ("a", "n_a")])
    def test_truth_sum_is_taken_from_the_positive_literal(self, names):
        # in floats 0.7 - (1 - 0.3) is 0 but 0.3 - (1 - 0.7) is -5.6e-17, so
        # at eps = 0 the test is not symmetric: it reads a's value first,
        # whichever polarity comes first in the interpretation
        values = {"a": ifn(0.7, 0.7), "n_a": ifn(0.3, 0.3)}
        assert is_inconsistent(interp(**{n: values[n] for n in names}), eps=0.0) is None


class TestEvalBody:
    def test_single_positive_literal_with_weight(self):
        (rule,) = parse("tsg_off <- cin_on. [ifn(0.6,1)]").rules
        body = eval_body(interp(cin_on=TRUE), rule)
        assert body == ifn(0.6, 1)

    def test_empty_body_gives_weight(self):
        (rule,) = parse("a. [tfn(0.2,0.5,0.9)]").rules
        assert eval_body(Interpretation(), rule) == tfn(0.2, 0.5, 0.9)

    def test_fold_matches_connectives(self):
        (rule,) = parse("tumor <- cin_on, tsg_off. [tfn(0.4,0.4,1.5)]").rules
        i = interp(cin_on=TRUE, tsg_off=ifn(0.6, 1))
        expected = conj(conj(TRUE, ifn(0.6, 1)), tfn(0.4, 0.4, 1.5))
        assert eval_body(i, rule) == expected

    def test_naf_items_read_through_failure(self):
        (rule,) = parse("a <- not b.").rules
        assert eval_body(interp(b=UNKNOWN), rule) == TRUE
        assert eval_body(interp(b=TRUE), rule) == FALSE

    def test_inline_constants_fold_in_order(self):
        (rule,) = parse("a <- ifn(0.5,1), b.").rules
        i = interp(b=ifn(0.5, 1))
        assert eval_body(i, rule) == conj(conj(ifn(0.5, 1), ifn(0.5, 1)), TRUE)


class TestSatisfies:
    def test_equality_branch(self):
        (rule,) = parse("a <- b. [ifn(0.6,1)]").rules
        i = interp(a=ifn(0.6, 1), b=TRUE)
        assert satisfies(i, rule)

    def test_knowledge_branch(self):
        (rule,) = parse("a <- b.").rules
        i = interp(a=ifn(0.9, 0.9), b=ifn(0.3, 0.7))
        assert satisfies(i, rule)

    def test_knowledge_branch_even_for_low_truth(self):
        # head k=0.2 beats body k=0.4, so the rule is satisfied despite the
        # head being far less true than the body value
        (rule,) = parse("a <- b.").rules
        i = interp(a=ifn(0, 0.2), b=ifn(0.6, 1))
        assert satisfies(i, rule)

    def test_truth_branch(self):
        (rule,) = parse("a <- b.").rules
        i = interp(a=ifn(0.6, 1), b=ifn(0, 0.2))
        assert satisfies(i, rule)

    def test_unsatisfied(self):
        # equal uncertainty, strictly lower truth, not equal: all branches fail
        (rule,) = parse("a <- b.").rules
        i = interp(a=ifn(0.2, 0.4), b=ifn(0.6, 0.8))
        assert not satisfies(i, rule)


class TestSupportedness:
    def test_single_fact(self):
        gp = ground(parse("a. [ifn(0.7,0.9)]"))
        assert is_supported(interp(a=ifn(0.7, 0.9)), gp) is None
        violation = is_supported(interp(a=TRUE), gp)
        assert violation is not None and violation.condition == 1

    def test_two_rules_disjunction(self):
        gp = ground(parse("a. [ifn(0.5,0.5)] a <- b. b. [ifn(0.5,0.5)]"))
        good = interp(a=ifn(0.75, 0.75), b=ifn(0.5, 0.5))
        assert is_supported(good, gp) is None
        bad = interp(a=ifn(0.5, 0.5), b=ifn(0.5, 0.5))
        violation = is_supported(bad, gp)
        assert violation is not None and violation.condition == 2

    def test_complementary_heads_orientation(self):
        gp = ground(parse("a <- b. [ifn(0.6,1)] -a <- c. [ifn(0,0.2)] b. c."))
        # aggregation keeps the more certain side: negate(ifn(0,0.2)) = ifn(0.8,1)
        good = interp(a=ifn(0.8, 1), n_a=ifn(0, 0.2), b=TRUE, c=TRUE)
        assert is_supported(good, gp) is None
        flipped = interp(a=ifn(0.6, 1), n_a=ifn(0, 0.4), b=TRUE, c=TRUE)
        violation = is_supported(flipped, gp)
        assert violation is not None and violation.condition == 3

    def test_aggregation_tie_is_a_violation(self):
        gp = ground(parse("a. -a."))
        violation = is_supported(interp(a=TRUE, n_a=TRUE), gp)
        assert violation is not None and violation.condition == 3


class TestReduct:
    def test_positive_program_fixed_point(self):
        gp = ground(parse("a <- b. b."))
        assert reduct(gp, Interpretation()).rules == gp.rules

    def test_naf_replaced_by_failure_value(self):
        gp = ground(parse("a <- not q."))
        red = reduct(gp, interp(q=UNKNOWN))
        assert red.rules[0].body == (TRUE,)
        red = reduct(gp, interp(q=TRUE))
        assert red.rules[0].body == (FALSE,)

    def test_idempotent(self):
        gp = ground(parse("a <- not q, b. b. q <- not a."))
        i = interp(a=TRUE, q=FALSE, b=TRUE)
        once = reduct(gp, i)
        assert reduct(once, i).rules == once.rules


class TestKMinimalModel:
    def test_single_fact(self):
        gp = ground(parse("a. [tfn(0,1/3,1)]"))
        fix = kmin_supported_model(gp)
        assert fix.value(lit("a")) == tfn(0, 1 / 3, 1)

    def test_empty_program(self):
        fix = kmin_supported_model(ground(parse("")))
        assert fix.assignment == {}

    def test_unruled_literal_stays_unknown(self):
        gp = ground(parse("a <- b."))
        fix = kmin_supported_model(gp)
        assert fix.value(lit("b")) == UNKNOWN

    def test_rejects_naf(self):
        with pytest.raises(ValueError):
            kmin_supported_model(ground(parse("a <- not b.")))

    def test_uncertainty_never_increases_along_iteration(self, tumor_source):
        report = solve(parse(tumor_source), collect_trace=True)
        (fix,) = report.answer_sets
        previous = {l: 1.0 for l in fix.table.literals}
        for snapshot in report.trace:
            for literal, value in snapshot.items():
                k = uncertainty_degree(value)
                assert k <= previous[literal] + 1e-9
                previous[literal] = k
        assert fix.value(lit("tsg_off")) == ifn(0.6, 1)


class TestVerifyAnswerSet:
    def test_positive_fixpoint_verifies(self, tumor_source):
        gp = ground(parse(tumor_source))
        fix = kmin_supported_model(gp)
        assert verify_answer_set(gp, fix).status is Status.ANSWER_SET

    def test_naf_candidate(self):
        gp = ground(parse("a <- not b."))
        good = interp(a=TRUE, b=UNKNOWN)
        assert verify_answer_set(gp, good).status is Status.ANSWER_SET
        # freezing b any lower is not reproduced by the reduct fixpoint
        bad = interp(a=TRUE, b=FALSE)
        assert verify_answer_set(gp, bad).status is not Status.ANSWER_SET

    def test_self_support_is_not_k_minimal(self):
        gp = ground(parse("a <- a."))
        result = verify_answer_set(gp, interp(a=TRUE))
        assert result.status is Status.NOT_K_MINIMAL
        assert verify_answer_set(gp, interp(a=UNKNOWN)).status is Status.ANSWER_SET

    def test_odd_loop_candidates_fail(self):
        gp = ground(parse("a <- not a."))
        for value in (TRUE, FALSE, UNKNOWN):
            assert verify_answer_set(gp, interp(a=value)).status is not Status.ANSWER_SET

    def test_not_model_names_the_first_failing_rule_in_program_order(self):
        # a's fact fails too, and a is the first head, but x <- y comes first
        gp = ground(parse("a <- c.\nx <- y.\na.\n"))
        result = verify_answer_set(gp, interp(a=FALSE, c=FALSE, x=FALSE, y=TRUE))
        assert result.status is Status.NOT_MODEL
        assert result.detail is gp.rules[1]

    def test_not_supported_condition_1(self):
        # TRUE is more certain than the fact's value: a model, not supported
        gp = ground(parse("a. [ifn(0.7,0.9)]"))
        result = verify_answer_set(gp, interp(a=TRUE))
        assert result.status is Status.NOT_SUPPORTED
        assert result.detail == solver.Violation(lit("a"), 1, ifn(0.7, 0.9), TRUE)

    def test_not_supported_condition_2(self):
        gp = ground(parse("a. [ifn(0.5,0.5)] a <- b. b. [ifn(0.5,0.5)]"))
        result = verify_answer_set(gp, interp(a=TRUE, b=ifn(0.5, 0.5)))
        assert result.status is Status.NOT_SUPPORTED
        assert result.detail == solver.Violation(lit("a"), 2, ifn(0.75, 0.75), TRUE)

    def test_not_supported_folds_the_rules_in_program_order(self):
        # the fold in reverse order gives a = 0.6220000000000001
        x, y, z = ifn(0.1, 0.8), ifn(0.3, 0.8), ifn(0.4, 0.5)
        gp = ground(parse(f"a. [{x.render()}] a. [{y.render()}] a. [{z.render()}]"))
        result = verify_answer_set(gp, interp(a=TRUE))
        assert result.status is Status.NOT_SUPPORTED
        assert result.detail == solver.Violation(lit("a"), 2, disj(disj(x, y), z), TRUE)
        assert result.detail.expected.a == 0.622

    def test_not_supported_condition_3(self):
        # aggregation keeps negate(ifn(0,0.2)) = ifn(0.8,1) for a
        gp = ground(parse("a <- b. [ifn(0.6,1)] -a <- c. [ifn(0,0.2)] b. c."))
        result = verify_answer_set(gp, interp(a=TRUE, n_a=FALSE, b=TRUE, c=TRUE))
        assert result.status is Status.NOT_SUPPORTED
        violation = result.detail
        assert (violation.literal, violation.condition, violation.actual) == (lit("a"), 3, TRUE)
        approx_params(violation.expected, (0.8, 0.8, 1.0, 1.0))

    def test_a_candidate_at_its_own_naf_values_is_not_compared_with_itself(self, monkeypatch):
        # each guess fixpoint of the even loop is its own reduct's fixpoint,
        # and the two have different keys in the dedup index
        def compared(*args):
            raise AssertionError("interpretations_equal called")

        monkeypatch.setattr(solver, "interpretations_equal", compared)
        report = solve(parse("a <- not b. b <- not a."))
        assert len(report.answer_sets) == 2

    def test_not_supported_aggregation_tie(self):
        # both sides are equally uncertain and disagree: no supported value
        gp = ground(parse("a. [ifn(0.5,1)] -a. [ifn(0.5,1)]"))
        i = interp(a=ifn(0.75, 0.75), n_a=ifn(0.25, 0.25))
        assert is_inconsistent(i) is None
        result = verify_answer_set(gp, i)
        assert result.status is Status.NOT_SUPPORTED
        assert result.detail == solver.Violation(lit("a"), 3)

    def test_inconsistent_reduct_fixpoint(self):
        # a supported model, but -a has no rules: the reduct's fixpoint
        # reads it as unknown, so b and -b are both ifn(0,0.8) there, which
        # is inconsistent at b
        gp = ground(parse("b <- -a. [ifn(0.6,0.8)] -b <- c, c. [ifn(0.6,0.8)]"))
        i = interp(b=ifn(0.6, 0.8), n_a=ifn(1, 1), n_b=ifn(0.2, 0.4), c=ifn(0, 1))
        assert is_inconsistent(i) is None
        for candidate in (Interpretation.of(gp.table, [i.value(l) for l in gp.literals]), i):
            result = verify_answer_set(gp, candidate)
            assert (result.status, result.detail) == (Status.INCONSISTENT, Atom("b"))
            assert _composed_verdict(gp, candidate, DEFAULT_EPS, DEFAULT_MAX_ITER) == (
                Status.INCONSISTENT,
                Atom("b"),
            )


class TestSolve:
    def test_tumor_end_to_end(self, tumor_source):
        golden = json.loads((FIXTURES / "tumor_golden.json").read_text())
        report = solve(parse(tumor_source))
        assert len(report.answer_sets) == 1
        (model,) = report.answer_sets
        assert model.value(lit("tsg_off")) == (0.6, 0.6, 1.0, 1.0)
        assert model.value(lit("cin_on")) == TRUE
        tumor = model.value(lit("tumor"))
        assert tumor == pytest.approx(tuple(golden["tumor"]), abs=1e-12)
        assert tumor.truncated

    def test_certain_complementary_facts(self):
        report = solve(parse("a. -a."))
        assert report.answer_sets == []
        assert report.candidates[0].status is Status.INCONSISTENT
        assert report.candidates[0].detail == Atom("a")

    def test_empty_program(self):
        report = solve(parse(""))
        assert len(report.answer_sets) == 1
        assert report.answer_sets[0].assignment == {}

    def test_even_loop_two_answer_sets(self):
        report = solve(parse("a <- not b. b <- not a."))
        assert len(report.answer_sets) == 2
        found = {
            (i.value(lit("a")), i.value(lit("b")))
            for i in report.answer_sets
        }
        assert found == {
            (TRUE, FALSE),
            (FALSE, TRUE),
        }
        assert any(c.status is Status.NON_CONVERGENT for c in report.candidates)

    def test_naf_only_literal_in_every_answer_set(self):
        # both answer sets come from naf guesses, whose frozen fixpoints
        # list x like the trajectory does
        report = solve(parse("a <- not b. b <- not a. c <- not x."))
        assert len(report.answer_sets) == 2
        for interp in report.answer_sets:
            assert interp.assignment[lit("x")] == UNKNOWN

    def test_odd_loop_none(self):
        report = solve(parse("a <- not a."))
        assert report.answer_sets == []

    def test_stratified_naf(self):
        report = solve(parse("b. a <- b, not c."))
        (model,) = report.answer_sets
        assert model.value(lit("a")) == TRUE
        assert model.value(lit("c")) == UNKNOWN

    def test_weighted_complementary_heads(self):
        report = solve(parse("a. [ifn(0.6,1)] -a. [ifn(0,0.2)]"))
        (model,) = report.answer_sets
        assert model.value(lit("a")) == ifn(0.8, 1)
        assert model.value(lit("a", True)) == ifn(0, 0.2)

    def test_convergent_weighted_even_loop(self):
        # self-consistency forces a.b = 0.8*a.b, so the loop contracts onto
        # the unique answer set a ~ false, b ~ true
        report = solve(parse("a <- not b. [ifn(0.8,1)] b <- not a."))
        (model,) = report.answer_sets
        assert equal(model.value(lit("a")), FALSE, 1e-8)
        assert equal(model.value(lit("b")), TRUE, 1e-8)
        assert measure(model.value(lit("b"))).k == pytest.approx(0, abs=1e-8)

    def test_rule_order_invariance_without_naf(self):
        src_rules = [
            "a <- b. [ifn(0.5,0.9)]",
            "a <- c. [tfn(0.2,0.4,0.8)]",
            "b. [ifn(0.7,1)]",
            "c. [trfn(0.1,0.3,0.5,0.6)]",
            "d <- b, c.",
        ]
        baseline = None
        rng = random.Random(7)
        for _ in range(12):
            rng.shuffle(src_rules)
            report = solve(parse("\n".join(src_rules)))
            assert len(report.answer_sets) == 1
            if baseline is None:
                baseline = report.answer_sets[0]
            else:
                assert interpretations_equal(baseline, report.answer_sets[0], 1e-9)

    def test_every_reported_answer_set_passes_all_four_checks(self, tumor_source):
        for src in (tumor_source, "a <- not b. b <- not a.", "b. a <- b, not c."):
            prog = parse(src)
            gp = ground(prog)
            for model in solve(prog).answer_sets:
                assert is_inconsistent(model) is None
                assert all(satisfies(model, r) for r in gp.rules)
                assert is_supported(model, gp) is None
                fix = kmin_supported_model(reduct(gp, model))
                assert interpretations_equal(fix, model, 1e-9)

    def test_positive_program_verification_reuses_the_solve_fixpoint(
        self, monkeypatch, tumor_source
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("kmin_supported_model called")

        monkeypatch.setattr(solver, "kmin_supported_model", refuse)
        report = solve(parse(tumor_source))
        assert [c.status for c in report.candidates] == [Status.ANSWER_SET]

    def test_crisp_even_loop_verification_recomputes_no_guess_fixpoint(self, monkeypatch):
        # the guess search evaluates components itself, and verification
        # reuses each candidate's fixpoint: nothing calls kmin_supported_model
        calls = []
        kmin = solver.kmin_supported_model

        def counting_kmin(*args, **kwargs):
            calls.append(1)
            return kmin(*args, **kwargs)

        monkeypatch.setattr(solver, "kmin_supported_model", counting_kmin)
        report = solve(parse("a <- not b. b <- not a."))
        assert len(report.answer_sets) == 2
        assert calls == []

    @pytest.mark.parametrize(
        "source",
        [
            (FIXTURES.parent.parent / "programs" / "flying.fasp").read_text(),
            # the shape of the benchmark's closure programs
            "node(v0). node(v1). node(v2).\n"
            "edge(v0,v1). edge(v1,v2). edge(v2,v0). blocked(v1,v0).\n"
            "path(X,Y) <- edge(X,Y).\n"
            "path(X,Y) <- edge(X,Z), path(Z,Y). [ifn(0.9,1)]\n"
            "reach(X,Y) <- path(X,Y), not blocked(X,Y). [ifn(0.8,1)]\n",
        ],
        ids=["flying", "closure"],
    )
    def test_stratified_verification_reuses_the_trajectory(self, monkeypatch, source):
        # without a naf cycle the trajectory is the frozen fixpoint at its
        # own naf values, so verifying it needs no second fixpoint
        expected = solve(parse(source))
        (model,) = expected.answer_sets

        def refuse(*args, **kwargs):
            raise AssertionError("kmin_supported_model called")

        monkeypatch.setattr(solver, "kmin_supported_model", refuse)
        report = solve(parse(source))
        assert [c.status for c in report.candidates] == [Status.ANSWER_SET]
        (again,) = report.answer_sets
        assert again.table.literals == model.table.literals
        assert again.values == model.values

    def test_returned_answer_sets_vouch_for_nothing(self):
        # a <- a. is supported by any value of a; only unknown is k-minimal
        gp = ground(parse("a <- a."))
        (model,) = solve(gp).answer_sets
        model.values[gp.table.ids[lit("a")]] = TRUE
        assert verify_answer_set(gp, model).status is Status.NOT_K_MINIMAL

    @pytest.mark.xfail(
        strict=True,
        reason="a cyclic component stops once a round moves no value by more "
        "than eps, here at p2 = ifn(0,2.3e-9) on its way to ifn(0,0), and the "
        "model check with the same eps then rejects the rule",
    )
    def test_geometric_convergence_to_zero_is_an_answer_set(self):
        report = solve(parse(
            "p2 <- p2, not p0. [ifn(0.25,0.75)]\n"
            "p2 <- not p0, p2. [ifn(0.25,0.75)]\n"
            "p0. [ifn(0.5,1)]\n"
        ))
        assert [c.status for c in report.candidates] == [Status.ANSWER_SET]
        (model,) = report.answer_sets
        assert equal(model.value(lit("p2")), FALSE, 1e-8)

    def test_trace_collection(self, tumor_source):
        report = solve(parse(tumor_source), collect_trace=True)
        assert report.trace
        assert report.iterations == len(report.trace)

    def test_monotonicity_error_in_a_guess_skips_only_that_guess(self):
        # Every guess with `not b` at 1 makes a = 1, and p <- p, a then
        # widens p's support by 1.5 each round (d = 1.5, 2.25, 3.375, ...):
        # 216 of the 576 depth-2 guesses raise MonotonicityError.
        report = solve(parse("a <- not b. b <- not a. p <- p, a. [tfn(0.4,0.4,1.5)]"))
        assert report.guess_depth == 2
        assert len(report.answer_sets) == 7
        expected = {lit("a"): FALSE, lit("b"): TRUE, lit("p"): FALSE}
        assert any(
            all(equal(model.value(l), v) for l, v in expected.items())
            for model in report.answer_sets
        )


    def test_non_finite_parameters_stop_the_trajectory(self, caplog):
        # The outer parameters of p0, p1 and -p2 grow without bound while
        # their cores converge; p0's reach -inf and inf in round 34.  The
        # trajectory stops there, instead of running max_iter rounds on inf
        # and nan parameters with a product ordering repair in each.
        program = parse(
            "p0 <- not p0, -p2. [ifn(0.5,1)]\n"
            "p1. [tfn(0.4,0.4,1.5)]\n"
            "p1 <- p0. [ifn(0.5,1)]\n"
            "-p2 <- p1, not p0. [ifn(0.5,1)]\n"
            "p0 <- -p0, not p1. [ifn(0.5,1)]\n"
            "p1. [tfn(0.4,0.4,1.5)]\n"
            "p0 <- -p2, p2, p1. [tfn(0.4,0.4,1.5)]\n"
        )
        with caplog.at_level(logging.WARNING, logger="fuzzyasp"):
            report = solve(program, guess_depth=1)
        assert report.iterations <= 34
        assert [c.status for c in report.candidates] == [Status.NON_CONVERGENT]
        assert not report.answer_sets
        assert caplog.records == []


class TestOrderDependentResults:
    """Dependency-order result; semantics undecided.

    On a cycle through a complement-coupled pair or through a truncated
    weight the operator is not monotone, so the eps-limit it reaches, and
    with it the interpretation ``verify_answer_set`` accepts as k-minimal,
    depends on the order of evaluation.  These tests pin what
    component-ordered evaluation gives, so that a change to the order shows
    up; which answer the paper's semantics picks is not decided.
    """

    def test_complement_coupled_cycle(self):
        report = solve(parse(
            "-p1. [tfn(0.4,0.4,1.5)]\n"
            "p4 <- -p1, not p1, not p1. [ifn(0.5,1)]\n"
            "-p4 <- p4. [tfn(0.2,0.5,0.9)]\n"
        ))
        (model,) = report.answer_sets
        assert equal(model.value(lit("p4")), trfn(0.2, 0.2, 0.4, 1.5))

    def test_cycle_through_a_truncated_weight(self):
        report = solve(parse(
            "p1. [ifn(0.5,1)]\n"
            "p1. [tfn(0.4,0.4,1.5)]\n"
            "p0 <- p0, p1. [trfn(0.1,0.3,0.6,0.8)]\n"
        ))
        (model,) = report.answer_sets
        p0 = model.value(lit("p0"))
        assert p0.a == p0.b == 0.0
        assert p0.d == 1.0


class TestGuessLimits:
    # naf guess domain of this loop: 5, 15 and 131 values at depths 1, 2
    # and 3, so 25, 225 and 17161 guesses for its two naf literals.  The
    # complement-coupled pair z, -z adds no seed (its weights are TRUE and
    # UNKNOWN) and keeps the loop on the guessing path: without it the
    # well-founded bounds pin a and b, and no domain is built.
    WEIGHTED_LOOP = "a <- not b. [ifn(0.5,0.5)] b <- not a. z. -z. [ifn(0,1)]"

    def test_requested_depth_is_kept_when_it_fits(self):
        report = solve(parse(self.WEIGHTED_LOOP), guess_depth=2)
        assert report.guess_depth == 2
        assert len(report.answer_sets) == 1

    def test_default_depth(self):
        assert solve(parse(self.WEIGHTED_LOOP)).guess_depth == 3

    @pytest.mark.parametrize("max_guesses, depth", [(17161, 3), (17160, 2), (225, 2), (224, 1), (25, 1)])
    def test_depth_is_lowered_until_the_guesses_fit(self, max_guesses, depth):
        report = solve(parse(self.WEIGHTED_LOOP), max_guesses=max_guesses)
        assert report.guess_depth == depth
        assert len(report.answer_sets) == 1

    def test_error_when_depth_one_does_not_fit(self):
        # the search guesses one of the two naf literals and filters the
        # other, so depth 1 counts 5 guesses, not 5**2
        with pytest.raises(GuessLimitExceeded, match="5 naf guesses exceed max_guesses=4"):
            solve(parse(self.WEIGHTED_LOOP), max_guesses=4)
        # existing callers that catch ValueError keep working
        assert issubclass(GuessLimitExceeded, ValueError)

    def test_no_guessing_without_a_naf_cycle(self):
        assert solve(parse("b. a <- b, not c."), max_guesses=0).guess_depth is None

    # five distinct weights: the depth-3 closure exceeds the closure cap,
    # and the 1471 naf values of the depth-2 one give 1471**2 guesses; z,
    # -z keeps the loop guessed, as in WEIGHTED_LOOP
    FIVE_WEIGHTS = (
        "a <- not b. [ifn(0.11,0.11)] b <- not a. [ifn(0.13,0.13)] "
        "c. [ifn(0.17,0.17)] d. [ifn(0.19,0.19)] e. [ifn(0.23,0.23)] "
        "z. -z. [ifn(0,1)]"
    )

    def test_closure_cap_lowers_the_depth(self):
        # the guess limit cuts level 2, so level 3 never reaches the cap
        report = solve(parse(self.FIVE_WEIGHTS))
        assert report.guess_depth == 1
        # a = 0.11 (1 - b) and b = 0.13 (1 - a)
        a = 0.11 * (1 - 0.13) / (1 - 0.11 * 0.13)
        b = 0.13 * (1 - a)
        (model,) = report.answer_sets
        for name, v in dict(a=a, b=b, c=0.17, d=0.19, e=0.23).items():
            assert equal(model.value(lit(name)), ifn(v, v))

    def test_closure_cap_alone_lowers_the_depth(self):
        # 1471**2 guesses fit 10**7, so only the cap keeps depth 3 out
        gp = ground(parse(self.FIVE_WEIGHTS))
        with pytest.raises(ClosureTooLarge):
            oracle.closure_enumerate(guess_seeds(gp), 3)
        assert len(oracle.closure_enumerate(guess_seeds(gp), 2)) == 2222
        domain, depth = solver._naf_guess_domain(gp, 3, 2, 10**7)
        assert (len(domain), depth) == (1471, 2)

    def test_closure_cap_in_level_one_guesses_the_seeds(self, monkeypatch):
        # TRUE, UNKNOWN and FALSE are closed under the connectives, so level
        # 1 keys no value before its first pair passes the cap of 2
        capped = functools.partial(oracle.closure_levels, cap=2)
        monkeypatch.setattr(oracle, "closure_levels", capped)
        gp = ground(parse("a <- not a. [ifn(0,0)]"))
        assert solver._naf_guess_domain(gp, 3, 1, 100) == ([FALSE, TRUE], 0)

    @pytest.mark.parametrize("depth, message", [(-1, "non-negative"), (5, "at most 4")])
    def test_depth_out_of_range(self, depth, message):
        # checked on every program with a naf cycle, also where the
        # well-founded bounds pin every naf literal and no domain is built
        pinned = self.WEIGHTED_LOOP.partition(" z.")[0]
        for source in (self.WEIGHTED_LOOP, pinned):
            with pytest.raises(OracleArgumentError, match=f"depth must be {message}"):
                solve(parse(source), guess_depth=depth)

    def test_depth_zero_guesses_the_seeds(self):
        # the bare seeds TRUE and UNKNOWN give the crisp naf values 0 and 1
        report = solve(parse("a <- not b. b <- not a."), guess_depth=0)
        assert report.guess_depth == 0
        found = {(m.value(lit("a")), m.value(lit("b"))) for m in report.answer_sets}
        assert found == {(TRUE, FALSE), (FALSE, TRUE)}


def guess_seeds(gp):
    """TRUE, UNKNOWN and each rule's weight and inline values, in program order."""
    seeds = dict.fromkeys((TRUE, UNKNOWN))
    for _, body, weight in gp.compiled:
        seeds[weight] = None
        for kind, x in body:
            if kind == VALUE:
                seeds[x] = None
    return seeds


def retry_guess_domain(gp, depth, slots, max_guesses):
    """The guess domain loop before it read the closure level by level,
    kept as the reference: one ``closure_enumerate`` call per depth tried,
    from ``depth`` down, below 1 only when depth 1 exceeds the cap."""
    seeds = guess_seeds(gp)
    while True:
        if depth >= 1:
            try:
                closure = oracle.closure_enumerate(seeds, depth)
            except ClosureTooLarge:
                depth -= 1
                continue
        else:
            closure = tuple(seeds)
        domain = {}
        for v in closure:
            domain.setdefault(round(1.0 - v.b, 9), naf(v))
        guesses = len(domain) ** slots
        if guesses <= max_guesses:
            return list(domain.values()), depth
        if depth <= 1:
            raise GuessLimitExceeded(f"{guesses} naf guesses exceed max_guesses={max_guesses}")
        depth -= 1


def _domain_outcome(run):
    """The depth and packed domain values, or the error's type and message."""
    try:
        domain, depth = run()
    except FuzzyAspError as exc:
        return type(exc).__name__, str(exc)
    return depth, [struct.pack("4d", *v) for v in domain]


def _seeded_loop(weights):
    """A naf loop whose rule weights and one inline value are ``weights``."""
    a, b = lit("a"), lit("b")
    rules = [Rule(a, (Naf(b),), weights[0]), Rule(b, (Naf(a), *weights[1:2]))]
    rules += [Rule(lit(f"c{i}"), (), w) for i, w in enumerate(weights[2:])]
    return GroundProgram(rules)


_FIVE_WEIGHTS = [rule.weight for rule in parse(TestGuessLimits.FIVE_WEIGHTS).rules]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(seed_values(), min_size=1, max_size=3),
    st.integers(0, 4),
    st.integers(1, 3),
    st.sampled_from([0, 1, 24, 25, 224, 225, 17160, 17161, 100_000]),
)
@example([ifn(0.5, 0.5)], 3, 2, 17161)
@example([ifn(0.5, 0.5)], 3, 2, 17160)
@example([ifn(0.5, 0.5)], 4, 2, 224)
@example([ifn(0.5, 0.5)], 3, 2, 24)
@example([tfn(0, 0, 1), trfn(-0.0, 0, -0.0, 1)], 4, 1, 100_000)
@example([trfn(-1e300, 0.5, 0.5, 1e300)], 4, 3, 100_000)
@example(_FIVE_WEIGHTS, 3, 2, 100_000)  # the guess limit cuts level 2
@example(_FIVE_WEIGHTS, 3, 1, 100_000)  # the cap ends level 3
def test_guess_domain_matches_the_retry_loop(weights, depth, slots, max_guesses):
    # same values in the same order, bit for bit, and the same depth, or
    # the same error once the joint guesses are counted
    gp = _seeded_loop(weights)
    assert _domain_outcome(
        lambda: joint_guess_domain(gp, depth, slots, max_guesses)
    ) == _domain_outcome(lambda: retry_guess_domain(gp, depth, slots, max_guesses))


# restricted and truncated weights; "" is none, and is drawn most often
_WEIGHTS = ("", "", "", " [ifn(0.6,0.6)]", " [ifn(0.3,0.7)]", " [tfn(0.4,0.4,1.5)]",
            " [trfn(-0.0,0,-0.0,1)]", " [tfn(0.1,0.6,1.2)]", " [ifn(0.5,1)]")
_CYCLES = (
    ("c0 <- not c1.", "c1 <- not c0."),  # even
    ("c0 <- not c0.",),  # odd
    ("c0 <- c1.", "c1 <- not c0."),  # through a positive edge
    ("c0 <- not c1.", "c1 <- not c0.", "-c0 <- c1."),  # through a complement pair
)
# q's read the cycle and may form positive cycles, z has no rules, and -c0
# and -q0 pair with c0 and q0
_BODY_ITEMS = ("c0", "c1", "not c0", "not c1", "q0", "q1", "not q0", "not z", "-c0",
               "ifn(0.3,0.7)", "tfn(0.1,0.6,1.2)")
_HEADS = ("q0", "q1", "-q0", "c0")
# what takes a program out of the class of solve's well-founded bounds
_OUTSIDE = (" [tfn(0.4,0.4,1.5)]", " [tfn(0.1,0.6,1.2)]", "tfn(0.1,0.6,1.2)", "-q0",
            _CYCLES[3])


@st.composite
def layered_naf_programs(draw, monotone=False) -> str:
    """A naf cycle on c0 and c1, and strata above it that read ``not`` of it.

    With ``monotone``, only programs in the class where ``solve`` takes
    well-founded bounds: no complement head and no truncated value.
    """

    def pick(options):
        return st.sampled_from([x for x in options if not (monotone and x in _OUTSIDE)])

    rules = [r + draw(pick(_WEIGHTS)) for r in draw(pick(_CYCLES))]
    for _ in range(draw(st.integers(1, 4))):
        head = draw(pick(_HEADS))
        body = draw(st.lists(pick(_BODY_ITEMS), max_size=3))
        rule = f"{head} <- {', '.join(body)}." if body else f"{head}."
        rules.append(rule + draw(pick(_WEIGHTS)))
    return "\n".join(draw(st.permutations(rules)))


# the guess limits of the joint-search properties: a non-convergent guess
# stops at 200 rounds, the joint loop at about 2,000 fixpoints, and a
# depth-2 closure is quick to enumerate
_LIMITS = dict(max_iter=200, guess_depth=2, max_guesses=2_000)


def _pinned(gp):
    """Whether solve's well-founded bounds pin every naf literal of ``gp``."""
    return solver._pinned_domains(gp, DEFAULT_EPS, _LIMITS["max_iter"]) is not None


def _bits(x):
    """``x`` with every float as its hex form, so -0.0 differs from 0.0."""
    if isinstance(x, Interpretation):
        return [literal.render() for literal in x.table.literals], _bits(x.values)
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    return x


def _outcome(run):
    try:
        results, depth = run()
    except FuzzyAspError as exc:
        return type(exc).__name__, str(exc)
    return depth, [
        (r.status, _bits(r.interpretation), _bits(r.detail), repr(r.detail)) for r in results
    ]


def _loops(k):
    """``k`` independent crisp even loops."""
    return " ".join(f"a{i} <- not b{i}. b{i} <- not a{i}." for i in range(k))


class TestGuessSearch:
    """The component-at-a-time naf search against the joint guess loop."""

    @settings(max_examples=100, deadline=None)
    @given(layered_naf_programs())
    # a cyclic frozen component that each branch must start from unknown
    @example("c0 <- not c1.\nc1 <- not c0.\nq0 <- c0, q0.")
    def test_same_candidates_as_the_joint_guess_loop(self, source):
        # a program whose naf literals are all pinned guesses nothing; see
        # test_pinned_programs_keep_every_joint_answer_set
        gp = ground(parse(source))
        assume(not _pinned(gp))

        def searched():
            report = solve(gp, **_LIMITS)
            return report.candidates, report.guess_depth

        found, joint = _outcome(searched), _outcome(lambda: joint_solve(gp, **_LIMITS))
        if joint[0] == "GuessLimitExceeded":
            # the joint loop counts len(domain) ** len(naf_ids) guesses, the
            # search only len(domain) ** g, g the naf literals it guesses
            slots, count = len(gp.naf_ids), int(joint[1].split()[0])
            size = round(count ** (1 / slots))
            assert size**slots == count
            guessed = sum(g for block in solver._search_blocks(gp) for _, reads, _ in block
                          for _, g in reads)
            if found[0] == "GuessLimitExceeded":
                event("both exceed max_guesses")
                limit = _LIMITS["max_guesses"]
                assert found[1] == f"{size**guessed} naf guesses exceed max_guesses={limit}"
                return
            event("only the joint loop exceeds max_guesses")
            if count > 25_000:
                # too many to rerun: the search is held, bit for bit, to the
                # unsplit walk, the same search over one block of them all
                event("the unsplit walk is the reference")
                blocks = solver._search_blocks(gp)
                domain, _ = solver._naf_guess_domain(
                    gp, _LIMITS["guess_depth"], slots, _LIMITS["max_guesses"]
                )
                domains = dict.fromkeys(gp.naf_ids, domain)

                def walk(blocks):
                    kept = solver._self_consistent_guesses(
                        gp, blocks, domains, DEFAULT_EPS, _LIMITS["max_iter"]
                    )
                    return _bits([(fix, list(guess.items())) for fix, guess in kept])

                assert walk(blocks) == walk([sum(blocks, [])])
                return
            # the search fits: the joint loop at its depth, with only its cap lifted
            lifted = dict(_LIMITS, guess_depth=found[0], max_guesses=count)
            joint = _outcome(lambda: joint_solve(gp, **lifted))
        assert found == joint

    @settings(max_examples=60, deadline=None)
    @given(layered_naf_programs(monotone=True))
    # c1 converges to 1 and q0 doubles its distance from it: the joint loop
    # reports the first fixpoint, q0 = 1.6e-9, and the guess c1 = 1, q0 = 0,
    # which the bounds reach only by taking c1 as exactly 1 (solver.SNAP)
    @example("c0 <- not c1. [ifn(0.6,0.6)]\nc1 <- not c0.\nq0 <- not c1.\nq0 <- not c1.")
    def test_pinned_programs_keep_every_joint_answer_set(self, source):
        # the joint loop's answer sets are all reported, and an answer set
        # it does not report (its naf values lie outside the guess domain)
        # passes verify_answer_set
        gp = ground(parse(source))
        assume(_pinned(gp))
        report = solve(gp, **_LIMITS)
        assert report.guess_depth is None
        try:
            joint, _ = joint_solve(gp, **_LIMITS)
        except GuessLimitExceeded:
            joint = []
        joint = [r.interpretation for r in joint if r.status is Status.ANSWER_SET]
        for i in joint:
            assert any(interpretations_equal(i, m) for m in report.answer_sets)
        for m in report.answer_sets:
            if not any(interpretations_equal(m, i) for i in joint):
                result = verify_answer_set(gp, m, max_iter=_LIMITS["max_iter"])
                assert result.status is Status.ANSWER_SET

    def test_a_literal_off_every_naf_cycle_is_filtered_not_guessed(self, monkeypatch):
        # a reads not c, and c's rule comes later, but no naf cycle runs
        # through c: c is evaluated first, and a once per guess of b alone
        gp = ground(parse("a <- not b, not c. b <- not a. c."))
        domain, _ = solver._naf_guess_domain(gp, 3, len(gp.naf_ids), 100_000)
        domains = dict.fromkeys(gp.naf_ids, domain)
        evaluated = []
        evaluate = solver._evaluate

        def spy(gp, component, *args):
            evaluated.append(component.heads)
            return evaluate(gp, component, *args)

        monkeypatch.setattr(solver, "_evaluate", spy)
        found = solver._self_consistent_guesses(gp, solver._search_blocks(gp), domains, 1e-9, 100)
        assert len(domain) > 1 and len(found) == 1
        assert evaluated.count((gp.table.ids[lit("a")],)) == len(domain)

    @pytest.mark.parametrize("k", [1, 2, 6, 10])
    def test_independent_loops_cost_four_evaluations_each(self, monkeypatch, k):
        # a block per loop: its first component is evaluated once per value
        # guessed for the other's naf literal, the second once per branch,
        # so 4 calls per loop.  A walk over the whole program re-evaluates
        # each loop once per choice made in the loops before it, 2 * (2 + 4
        # + ... + 2**k) calls.
        gp = ground(parse(_loops(k)))
        blocks = solver._search_blocks(gp)
        domain, _ = solver._naf_guess_domain(gp, 3, len(gp.naf_ids), 100_000)
        assert len(blocks) == k and len(domain) == 2
        calls = 0
        evaluate = solver._evaluate

        def spy(*args):
            nonlocal calls
            calls += 1
            return evaluate(*args)

        monkeypatch.setattr(solver, "_evaluate", spy)
        domains = dict.fromkeys(gp.naf_ids, domain)
        found = solver._self_consistent_guesses(gp, blocks, domains, DEFAULT_EPS, 100)
        assert len(found) == 2**k
        assert calls == 4 * k

    def test_readers_of_one_literal_without_rules_share_a_block(self):
        # c0 and q0 both read not z, and only the first reader chooses z's
        # value; q1 comes before c0, so a block of q1 and q0 alone would be
        # searched before z had a value
        gp = ground(parse("a <- not b. b <- not a. q1. c0 <- not z. q0 <- q1, not z."))
        ids = gp.table.ids
        (block,) = [
            b for b in solver._search_blocks(gp)
            if any(c.heads == (ids[lit("q0")],) for c, _, _ in b)
        ]
        heads = [c.heads for c, _, _ in block]
        assert heads == [(ids[lit("q1")],), (ids[lit("c0")],), (ids[lit("q0")],)]
        report = solve(gp)
        assert len(report.answer_sets) == 2
        searched = _outcome(lambda: (report.candidates, report.guess_depth))
        assert searched == _outcome(lambda: joint_solve(gp))

    def test_twelve_independent_loops(self):
        assert len(solve(parse(_loops(12))).answer_sets) == 4096

    def test_deep_program_is_searched_without_recursion(self):
        # over 1,000 frozen components below an even loop; the chain changes
        # neither the guess domain nor the loop's answer sets
        loop = "a <- not b. b <- not a. c0 <- a. c1 <- c0. [ifn(0.99,1)] "
        chain = " ".join(f"c{i} <- c{i - 1}. [ifn(0.99,1)]" for i in range(2, 1201))
        gp = ground(parse(loop + chain))
        assert len(gp.frozen_components) > 1_000
        deep, short = solve(gp), solve(parse(loop))
        assert [c.status for c in deep.candidates] == [c.status for c in short.candidates]

        def loop_values(report):
            return [(m.value(lit("a")), m.value(lit("b"))) for m in report.answer_sets]

        assert loop_values(deep) == loop_values(short)
        assert len(deep.answer_sets) == 10
        end = {m.value(lit("a")): m.value(lit("c1200")) for m in deep.answer_sets}
        assert equal(end[TRUE], ifn(0.99**1200, 1))
        assert equal(end[FALSE], FALSE)


class TestWellFoundedBounds:
    """The alternating-fixpoint bounds that replace guessing when they pin every naf literal."""

    # Each fixpoint stops once a round moves no value by more than eps = 1e-9,
    # so it lies within eps * r / (1 - r) of its limit on a component that
    # contracts by r per round, and the bounds and the answer sets are such
    # fixpoints: 1e-7 covers r up to 0.99.
    SLACK = 1e-7

    DRIFT = "q0 <- c1. c1 <- not c0. q1. c0 <- not c1. [ifn(0.5,1)] c0 <- not c1, c0, not q0."

    @settings(max_examples=100, deadline=None)
    @given(layered_naf_programs(monotone=True))
    @example(DRIFT)
    def test_every_answer_set_lies_within_the_bounds(self, source):
        # ROADMAP item 11's hypothesis: in the class, every fixpoint b is
        # monotone in every naf value, so the alternation brackets each
        # answer set's naf literals
        gp = ground(parse(source))
        assert solver._monotone(gp)
        bounds = solver._naf_bounds(gp, DEFAULT_EPS, _LIMITS["max_iter"])
        assume(bounds is not None)
        try:
            results, _ = joint_solve(gp, **_LIMITS)
        except GuessLimitExceeded:
            assume(False)
        for r in results:
            if r.status is Status.ANSWER_SET:
                for b, lo, hi in zip(gp.naf_ids, *bounds):
                    assert lo - self.SLACK <= r.interpretation.values[b].b <= hi + self.SLACK

    def test_a_fixpoint_that_only_nears_1_does_not_pin_an_even_loop(self):
        # c0's own cycle stops at b = 1 - 9.3e-10.  Fed back as it is, that
        # error doubles with each alternation, until the bounds pin c0 at 0
        # and c1 at 1 and lose the answer set with c0 at 1.
        gp = ground(parse(self.DRIFT))
        assert solver._naf_bounds(gp, DEFAULT_EPS, 10_000) == ([0.0] * 3, [1.0] * 3)
        report = solve(gp)
        assert report.guess_depth == 2
        found = sorted(round(m.value(lit("c0")).b) for m in report.answer_sets)
        assert found == [0, 1]

    def test_a_complement_head_stays_on_the_guessing_path(self):
        # outside the class: the bounds, taken anyway, pin c0 and c1 near
        # 0.375, yet the guesses find an answer set with c0 at 1 and c1 at 0
        gp = ground(parse(
            "c0 <- not c1. [tfn(0.1,0.6,1.2)] c1 <- not c0. [tfn(0.1,0.6,1.2)] "
            "-c0 <- c1. [tfn(0.1,0.6,1.2)] q0. [tfn(0.4,0.4,1.5)]"
        ))
        assert not solver._monotone(gp)
        lo, hi = solver._naf_bounds(gp, DEFAULT_EPS, 10_000)
        assert all(h - l <= DEFAULT_EPS and abs(l - 0.375) <= DEFAULT_EPS for l, h in zip(lo, hi))
        report = solve(gp)
        assert report.guess_depth == 2
        assert [c.status for c in report.candidates] == [Status.NON_CONVERGENT, Status.ANSWER_SET]
        (model,) = report.answer_sets
        expected = {"c0": TRUE, "c1": FALSE, "n_c0": FALSE, "q0": tfn(0.4, 0.4, 1.5)}
        assert interpretations_equal(model, interp(**expected))

    def test_a_pinned_guess_that_fails_its_check_is_no_candidate(self):
        # the bounds pin p0 at b = 0, its b of 5e-7 lying within SNAP of 0,
        # and p1 at b = 0.999.  The frozen fixpoint there gives p0 a b of
        # 5e-7 again, so the search over the pinned values keeps nothing, and
        # the one candidate is the first fixpoint, the operator trajectory's.
        gp = ground(parse((FIXTURES / "pinned_rejected.fasp").read_text()))
        domains = solver._pinned_domains(gp, DEFAULT_EPS, DEFAULT_MAX_ITER)
        p0, p1 = (gp.table.ids[lit(name)] for name in ("p0", "p1"))
        assert domains[p0] == [TRUE]
        (point,) = domains[p1]
        assert equal(point, ifn(0.001, 0.001), 1e-8)
        blocks = solver._search_blocks(gp)
        found = solver._self_consistent_guesses(gp, blocks, domains, DEFAULT_EPS, DEFAULT_MAX_ITER)
        assert found == []
        report = solve(gp)
        assert report.guess_depth is None
        (candidate,) = report.candidates
        assert candidate.status is Status.ANSWER_SET
        first = solver._fixpoint(gp, DEFAULT_EPS, DEFAULT_MAX_ITER)
        assert _bits(candidate.interpretation) == _bits(first)
        assert abs(first.values[p0].b - 5e-7) <= 1e-9

    @pytest.mark.parametrize("w", [0.5, 0.6, 0.8])
    def test_a_pinned_weighted_loop_builds_no_guess_domain(self, monkeypatch, w):
        def refuse(*args, **kwargs):
            raise AssertionError("_naf_guess_domain called")

        monkeypatch.setattr(solver, "_naf_guess_domain", refuse)
        report = solve(parse(f"c <- not d. [ifn({w},{w})] d <- not c. [ifn({w},{w})]"))
        assert report.guess_depth is None
        (model,) = report.answer_sets
        for name in "cd":
            assert equal(model.value(lit(name)), ifn(w / (1 + w), w / (1 + w)), 1e-8)

    def test_a_crisp_loop_leaves_after_one_alternation(self, monkeypatch):
        # lo stays 0 and hi stays 1: two frozen fixpoints, then guessing
        calls = []
        fixpoint = solver._fixpoint

        def counting(gp, eps, max_iter, **kwargs):
            calls.append(kwargs.get("naf_values") is not None)
            return fixpoint(gp, eps, max_iter, **kwargs)

        monkeypatch.setattr(solver, "_fixpoint", counting)
        gp = ground(parse("a <- not b. b <- not a."))
        assert solver._naf_bounds(gp, DEFAULT_EPS, 100) == ([0.0, 0.0], [1.0, 1.0])
        assert calls == [True, True]


# k = 1.0 and t = 0.5000000000000001: at eps = 0 it contradicts the
# unknown value of its complement, which has no rules
NEAR_UNKNOWN = "trfn(1e-17,1.1102230246251565e-16,0.9999999999999999,1.0)"


class TestFailureBranches:
    """Checks that only particular inputs reach, each held by a program."""

    def test_an_acyclic_head_can_contradict_its_complement(self):
        # a's complement has no rules, so a is an acyclic component and its
        # own contradiction check raises
        with pytest.raises(Inconsistent) as exc:
            kmin_supported_model(ground(parse(f"a. [{NEAR_UNKNOWN}] b <- -a.")), eps=0.0)
        assert exc.value.atom == Atom("a")

    def test_a_guess_with_an_acyclic_contradiction_is_no_candidate(self):
        # the guess a = 1 gives c the near-unknown weight, which the acyclic
        # check rejects in the search; at the default eps it is an answer set
        source = (FIXTURES / "acyclic_contradiction.fasp").read_text()
        report = solve(parse(source), eps=0.0)
        assert [c.status for c in report.candidates] == [Status.NON_CONVERGENT, Status.ANSWER_SET]
        assert report.answer_sets[0].value(lit("c")) == FALSE
        report = solve(parse(source))
        assert [c.status for c in report.candidates] == [
            Status.NON_CONVERGENT, Status.ANSWER_SET, Status.ANSWER_SET,
        ]

    REDUCT = (FIXTURES / "reduct_non_convergent.fasp").read_text()

    def test_too_few_rounds_leave_the_bounds_and_the_reduct_unfinished(self):
        # at 20 rounds a bound fixpoint does not converge, so the domain is
        # guessed, and the one candidate, the operator trajectory's fixpoint,
        # has a reduct whose fixpoint does not converge either
        gp = ground(parse(self.REDUCT))
        assert solver._naf_bounds(gp, DEFAULT_EPS, 20) is None
        report = solve(gp, max_iter=20)
        assert report.guess_depth == 2
        (candidate,) = report.candidates
        assert candidate.status is Status.NON_CONVERGENT
        assert candidate.interpretation is not None
        assert report.answer_sets == []

    def test_more_rounds_verify_the_guessed_answer_set(self):
        report = solve(parse(self.REDUCT), max_iter=50)
        assert report.guess_depth == 2
        assert [c.status for c in report.candidates] == [Status.ANSWER_SET]

    def test_the_default_rounds_pin_the_answer_set(self):
        report = solve(parse(self.REDUCT))
        assert report.guess_depth is None
        assert [c.status for c in report.candidates] == [Status.ANSWER_SET]


class TestKnownDefects:
    """The search defects the ROADMAP tracks: item 4's as strict xfails, item 3's mended."""

    TWO_LOOPS = (
        "a <- not b. b <- not a. "
        "c <- not d. [ifn(0.5,0.5)] d <- not c. [ifn(0.5,0.5)]"
    )

    @pytest.mark.parametrize("a, b", [(TRUE, FALSE), (FALSE, TRUE)])
    def test_answer_sets_outside_the_guess_domain_verify(self, a, b):
        # c = 0.5 (1 - d) and d = 0.5 (1 - c) meet at 1/3
        third = ifn(1 / 3, 1 / 3)
        i = interp(a=a, b=b, c=third, d=third)
        assert verify_answer_set(ground(parse(self.TWO_LOOPS)), i).status is Status.ANSWER_SET

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: c = d = 1/3 is no naf image of the weight "
        "closure, so no guess reaches either answer set; 0 are reported",
    )
    def test_every_answer_set_is_found(self):
        report = solve(parse(self.TWO_LOOPS))
        assert len(report.answer_sets) == 2
        third = ifn(1 / 3, 1 / 3)
        for model in report.answer_sets:
            assert equal(model.value(lit("c")), third)
            assert equal(model.value(lit("d")), third)

    def test_independent_loops_are_solved_apart(self):
        # ROADMAP item 3: the search guesses one naf literal per loop, so
        # 2**10 guesses, not the 2**20 joint ones, fit max_guesses
        assert len(solve(parse(_loops(10))).answer_sets) == 1024


@st.composite
def crisp_naf_programs(draw, prefix: str) -> str:
    """One to four rules over the atoms ``prefix`` 0 to 2, without weights or ``-``."""
    atoms = [f"{prefix}{i}" for i in range(3)]
    items = atoms + [f"not {a}" for a in atoms]
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.sampled_from(atoms))
        body = draw(st.lists(st.sampled_from(items), max_size=3))
        rules.append(f"{head} <- {', '.join(body)}." if body else f"{head}.")
    return " ".join(rules)


def _answer_maps(source: str) -> set:
    """Each answer set of ``source`` as a frozenset of (literal, value) renderings."""
    report = solve(parse(source), **_LIMITS)
    return {
        frozenset(zip(m.table.names, (v.render() for v in m.values)))
        for m in report.answer_sets
    }


class TestSplitting:
    """ROADMAP item 22: over disjoint atoms, P ∪ Q's answer sets are P's times Q's.

    Lifschitz and Turner's splitting theorem, the ground the product search
    stands on.
    """

    @staticmethod
    def products(p: str, q: str) -> set:
        return {x | y for x in _answer_maps(p) for y in _answer_maps(q)}

    @settings(max_examples=150, deadline=None)
    @given(crisp_naf_programs("p"), crisp_naf_programs("q"))
    @example("p0 <- not p1. p1 <- not p0.", "q0 <- not q1. q1 <- not q0. q2 <- q0, not q2.")
    def test_crisp_programs(self, p, q):
        assert _answer_maps(f"{p} {q}") == self.products(p, q)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: P gives the union's guess domain 0.5, and Q's odd "
        "loop then has a half-true answer set, which Q alone does not",
    )
    def test_a_weighted_program_beside_an_odd_loop(self):
        p = "p1 <- not p0. p1. [ifn(0.5,0.5)] p1. [ifn(0.5,0.5)]"
        q = "q1. q0 <- not q0, not q2."
        assert _answer_maps(f"{p} {q}") == self.products(p, q)


def _composed_verdict(gp, i, eps, max_iter):
    """``verify_answer_set``'s (status, detail), composed from the reference checks.

    ``satisfies``, ``is_supported`` and ``reduct`` come from
    ``reference_semantics``, which folds through the public connectives and
    shares no kernel with the solver; ``is_inconsistent`` and
    ``kmin_supported_model`` are the solver's own.
    """
    atom = is_inconsistent(i, eps)
    if atom is not None:
        return Status.INCONSISTENT, atom
    for rule in gp.rules:
        if not satisfies(i, rule, eps):
            return Status.NOT_MODEL, rule
    violation = is_supported(i, gp, eps)
    if violation is not None:
        return Status.NOT_SUPPORTED, violation
    try:
        fix = kmin_supported_model(reduct(gp, i), eps=eps, max_iter=max_iter)
    except Inconsistent as exc:
        return Status.INCONSISTENT, exc.atom
    except NonConvergent:
        return Status.NON_CONVERGENT, None
    if not interpretations_equal(fix, i, eps):
        return Status.NOT_K_MINIMAL, fix
    return Status.ANSWER_SET, None


def _verdict_bits(status, detail):
    """``(status, detail)`` with floats as bits.

    An interpretation is compared by literal, leaving out the unknown ones:
    the reduct has no literal that only ``not`` reads.
    """
    if isinstance(detail, Interpretation):
        unknown = _bits(UNKNOWN)
        return status, {l: _bits(v) for l, v in detail.items() if _bits(v) != unknown}
    return status, _bits(detail), repr(detail)


_PERTURBED = (TRUE, FALSE, UNKNOWN, ifn(0.3, 0.7), ifn(0.6, 0.6), tfn(0.1, 0.6, 1.2),
              trfn(-0.0, 0, -0.0, 1))


class TestVerdictOrder:
    """``verify_answer_set`` reports what the reference checks report, in their order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_verdict_as_the_composed_checks(self, data):
        if data.draw(st.booleans()):
            source = data.draw(stratified_programs())[0]
        else:
            source = data.draw(layered_naf_programs())
        gp = ground(parse(source))
        eps, max_iter = 1e-9, 200
        try:
            report = solve(gp, max_iter=max_iter, guess_depth=1)
            bases = [c.interpretation for c in report.candidates if c.interpretation is not None]
        except FuzzyAspError:
            bases = []
        values = list(data.draw(st.sampled_from(bases)).values) if bases else [UNKNOWN] * len(gp.literals)
        # a perturbed value is new, another literal's, or a step of 1e-6 off
        for _ in range(data.draw(st.integers(0, 2)) if values else 0):
            at = data.draw(st.integers(0, len(values) - 1))
            how = data.draw(st.sampled_from(("new", "copy", "step")))
            if how == "new":
                values[at] = data.draw(st.sampled_from(_PERTURBED))
            elif how == "copy":
                values[at] = values[data.draw(st.integers(0, len(values) - 1))]
            else:
                a, b, c, d = values[at]
                values[at] = FuzzyTruth(a, b, c, d + 1e-6)
        if data.draw(st.booleans()):
            i = Interpretation.of(gp.table, values)
        else:  # a table of its own
            i = Interpretation(dict(zip(gp.literals, values)))

        def outcome(check):
            try:
                return _verdict_bits(*check())
            except FuzzyAspError as exc:
                return type(exc).__name__, str(exc)

        def verified():
            result = verify_answer_set(gp, i, eps=eps, max_iter=max_iter)
            return result.status, result.detail

        got = outcome(verified)
        event(str(got[0]))
        assert got == outcome(lambda: _composed_verdict(gp, i, eps, max_iter)), source


def _near_values(eps):
    """b values around 0, 0.5 and 1 that tie, or sit eps apart or just inside or outside it."""
    out = []
    for x in (0.0, -0.0, 0.5, 1.0):
        out += [x, x + eps, x - eps]
        out += [math.nextafter(x + eps, math.inf), math.nextafter(x + eps, -math.inf)]
    return out


@st.composite
def candidate_lists(draw, eps):
    """(naf_ids, rows): value rows on one table of up to 4 literals.

    Some literals are naf ids, and a row often copies an earlier one with
    one value redrawn, so rows agree at every naf id yet differ elsewhere,
    at another literal or at a parameter other than b.
    """
    n = draw(st.integers(1, 4))
    naf_ids = tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, n))])
    pool = st.sampled_from(_near_values(eps))
    value = st.builds(lambda b, d: FuzzyTruth(b, b, d, d), pool, pool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if rows and draw(st.booleans()):
            row = list(draw(st.sampled_from(rows)))
            row[draw(st.integers(0, n - 1))] = draw(value)
        else:
            row = [draw(value) for _ in range(n)]
        rows.append(row)
    return naf_ids, rows


class TestCandidateDedup:
    """``solver._distinct`` keeps what the pairwise rule of ``pairwise_distinct`` keeps."""

    @staticmethod
    def found(rows):
        table = Interpretation({lit(f"p{k}"): UNKNOWN for k in range(len(rows[0]))}).table
        return [Interpretation.of(table, list(row)) for row in rows]

    def assert_same_as_pairwise(self, naf_ids, rows, eps):
        frozen = [object() for _ in rows]

        def kept(distinct):
            found = self.found(rows)
            out = distinct(list(zip(found, frozen)))
            positions = [next(k for k, f in enumerate(found) if f is c) for c in out]
            assert all(found[k]._frozen_at is frozen[k] for k in positions)
            assert all(f._frozen_at is None for k, f in enumerate(found) if k not in positions)
            return positions

        got = kept(lambda found: solver._distinct(found, naf_ids, eps))
        assert got == kept(lambda found: pairwise_distinct(found, eps))
        return got

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_candidates_as_the_pairwise_rule(self, eps, data):
        naf_ids, rows = data.draw(candidate_lists(eps))
        if rows:
            self.assert_same_as_pairwise(naf_ids, rows, eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
    def test_without_naf_literals(self, eps):
        # every candidate has the empty key; -0.0 and 0.0 tie
        zero, signed = FuzzyTruth(0.0, 0.0, 1.0, 1.0), FuzzyTruth(-0.0, -0.0, 1.0, 1.0)
        far = FuzzyTruth(0.0, 0.0, 1.0, 0.5)
        assert self.assert_same_as_pairwise((), [[zero], [signed], [far], [zero]], eps) == [0, 2]

    def test_worst_case_compares_with_every_kept_candidate(self, monkeypatch):
        # near b values at the first two naf ids make 3 * 3 keys for 6 kept
        # candidates, so the last one is compared with all 6 rather than
        # with the 3 whose third b is near too; the fourth literal keeps
        # every candidate apart
        eps, bs = 1e-3, (0.5, 0.5004, 0.5008)
        rows = [
            [ifn(b, b), ifn(b, b), ifn(z, z), FuzzyTruth(k, k, k, k)]
            for k, (z, b) in enumerate(itertools.product((0.0, 0.9), bs))
        ]
        rows.append([ifn(0.5004, 0.5004), ifn(0.5004, 0.5004), FALSE, FuzzyTruth(9, 9, 9, 9)])
        assert self.assert_same_as_pairwise((0, 1, 2), rows, eps) == list(range(7))
        compared = []
        equal_within = solver.interpretations_equal

        def counted(x, y, eps):
            compared.append(y)
            return equal_within(x, y, eps)

        monkeypatch.setattr(solver, "interpretations_equal", counted)
        found = self.found(rows)
        solver._distinct([(f, None) for f in found], (0, 1, 2), eps)
        assert compared[-6:] == found[:6]


class TestTrajectoryRevisits:
    """The operator trajectory of a naf cycle stops at a state it has visited."""

    @pytest.mark.parametrize(
        "source, iterations, answer_sets",
        [
            ("a <- not a.", 3, 0),
            ("a <- not b. b <- not c. c <- not a.", 3, 0),
            ("a <- not b. b <- not a.", 3, 2),
            ("p0 <- not p0. [ifn(0.99,0.99)]", 2_062, 1),
        ],
    )
    def test_rounds_and_answer_sets(self, source, iterations, answer_sets):
        report = solve(parse(source))
        assert (report.iterations, len(report.answer_sets)) == (iterations, answer_sets)

    @staticmethod
    def verdicts(states):
        """``_revisited`` of each state, against a set of rounded states."""
        seen, rounded, out = {}, set(), []
        for state in states:
            key = tuple(round(p, 12) for v in state for p in v)
            expected = key in rounded
            rounded.add(key)
            assert solver._revisited(seen, state) is expected
            out.append(expected)
        return out

    def test_parameters_that_round_alike(self):
        v, w = ifn(0.1, 0.3), ifn(0.1 + 4e-14, 0.3 - 4e-14)
        assert v != w
        assert self.verdicts([[v, UNKNOWN], [w, UNKNOWN], [w, TRUE]]) == [False, True, False]

    def test_same_first_b_different_elsewhere(self):
        x, y, z = ifn(0.3, 0.3), ifn(0.4, 0.4), ifn(0.3, 0.9)
        states = [[x, y], [x, z], [z, y], [x, x], [z, y], [x, z]]
        assert self.verdicts(states) == [False, False, False, False, True, True]

    def test_period_three_cycle(self):
        cycle = [[ifn(0.2, 0.2), FALSE], [ifn(0.5, 0.5), TRUE], [ifn(0.7, 0.7), UNKNOWN]]
        assert self.verdicts([[UNKNOWN, UNKNOWN]] + cycle * 2) == [False] * 4 + [True] * 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([FALSE, TRUE, UNKNOWN, ifn(0.5, 0.5), ifn(0.5 - 1e-13, 0.5),
                                 ifn(0.5, 0.7), ifn(-0.0, 1.0)]),
                min_size=2, max_size=2,
            ),
            max_size=10,
        )
    )
    def test_same_verdicts_as_a_set_of_rounded_states(self, states):
        self.verdicts(states)
