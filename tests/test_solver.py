import functools
import json
import logging
import pathlib
import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

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

from bruteforce_oracle import joint_solve
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

    def test_not_supported_aggregation_tie(self):
        # both sides are equally uncertain and disagree: no supported value
        gp = ground(parse("a. [ifn(0.5,1)] -a. [ifn(0.5,1)]"))
        i = interp(a=ifn(0.75, 0.75), n_a=ifn(0.25, 0.25))
        assert is_inconsistent(i) is None
        result = verify_answer_set(gp, i)
        assert result.status is Status.NOT_SUPPORTED
        assert result.detail == solver.Violation(lit("a"), 3)


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
    # and 3, so 25, 225 and 17161 guesses for its two naf literals
    WEIGHTED_LOOP = "a <- not b. [ifn(0.5,0.5)] b <- not a."

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
        with pytest.raises(GuessLimitExceeded, match="25 naf guesses exceed max_guesses=24"):
            solve(parse(self.WEIGHTED_LOOP), max_guesses=24)
        # existing callers that catch ValueError keep working
        assert issubclass(GuessLimitExceeded, ValueError)

    def test_no_guessing_without_a_naf_cycle(self):
        assert solve(parse("b. a <- b, not c."), max_guesses=0).guess_depth is None

    # five distinct weights: the depth-3 closure exceeds the closure cap,
    # and the 1471 naf values of the depth-2 one give 1471**2 guesses
    FIVE_WEIGHTS = (
        "a <- not b. [ifn(0.11,0.11)] b <- not a. [ifn(0.13,0.13)] "
        "c. [ifn(0.17,0.17)] d. [ifn(0.19,0.19)] e. [ifn(0.23,0.23)]"
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
        with pytest.raises(OracleArgumentError, match=f"depth must be {message}"):
            solve(parse(self.WEIGHTED_LOOP), guess_depth=depth)

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
    # the same error
    gp = _seeded_loop(weights)
    assert _domain_outcome(
        lambda: solver._naf_guess_domain(gp, depth, slots, max_guesses)
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


@st.composite
def layered_naf_programs(draw) -> str:
    """A naf cycle on c0 and c1, and strata above it that read ``not`` of it."""
    rules = [r + draw(st.sampled_from(_WEIGHTS)) for r in draw(st.sampled_from(_CYCLES))]
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.sampled_from(_HEADS))
        body = draw(st.lists(st.sampled_from(_BODY_ITEMS), max_size=3))
        rule = f"{head} <- {', '.join(body)}." if body else f"{head}."
        rules.append(rule + draw(st.sampled_from(_WEIGHTS)))
    return "\n".join(draw(st.permutations(rules)))


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


class TestGuessSearch:
    """The component-at-a-time naf search against the joint guess loop."""

    @settings(max_examples=100, deadline=None)
    @given(layered_naf_programs())
    # a cyclic frozen component that each branch must start from unknown
    @example("c0 <- not c1.\nc1 <- not c0.\nq0 <- c0, q0.")
    def test_same_candidates_as_the_joint_guess_loop(self, source):
        # a non-convergent guess stops at 200 rounds, the joint loop at about
        # 2,000 fixpoints, and a depth-2 closure is quick to enumerate
        gp = ground(parse(source))
        limits = dict(max_iter=200, guess_depth=2, max_guesses=2_000)

        def searched():
            report = solve(gp, **limits)
            return report.candidates, report.guess_depth

        assert _outcome(searched) == _outcome(lambda: joint_solve(gp, **limits))

    def test_a_literal_off_every_naf_cycle_is_filtered_not_guessed(self, monkeypatch):
        # a reads not c, and c's rule comes later, but no naf cycle runs
        # through c: c is evaluated first, and a once per guess of b alone
        gp = ground(parse("a <- not b, not c. b <- not a. c."))
        domain, _ = solver._naf_guess_domain(gp, 3, len(gp.naf_ids), 100_000)
        evaluated = []
        evaluate = solver._evaluate

        def spy(gp, component, *args):
            evaluated.append(component.heads)
            return evaluate(gp, component, *args)

        monkeypatch.setattr(solver, "_evaluate", spy)
        found = solver._self_consistent_guesses(gp, domain, 1e-9, 100)
        assert len(domain) > 1 and len(found) == 1
        assert evaluated.count((gp.table.ids[lit("a")],)) == len(domain)

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


class TestKnownDefects:
    """The two search defects the ROADMAP tracks, pinned as strict xfails."""

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

    @pytest.mark.xfail(
        strict=True,
        raises=GuessLimitExceeded,
        reason="ROADMAP item 3: the whole-program search guesses 2**20 naf "
        "assignments even at depth 1, past max_guesses",
    )
    def test_independent_loops_are_solved_apart(self):
        report = solve(parse(" ".join(f"a{i} <- not b{i}. b{i} <- not a{i}." for i in range(10))))
        assert len(report.answer_sets) == 1024


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
