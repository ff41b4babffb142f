import json
import pathlib
import random

import pytest

from fuzzyasp import (
    FALSE,
    TRUE,
    UNKNOWN,
    Atom,
    GuessLimitExceeded,
    Interpretation,
    Literal,
    Status,
    conj,
    equal,
    eval_body,
    ground,
    ifn,
    interpretations_equal,
    is_inconsistent,
    is_supported,
    kmin_supported_model,
    measure,
    naf,
    parse,
    reduct,
    satisfies,
    solve,
    tfn,
    uncertainty_degree,
    verify_answer_set,
)

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
        gp = ground(parse(tumor_source))
        trace = []
        fix = kmin_supported_model(gp, trace=trace)
        previous = {l: 1.0 for l in gp.literals}
        for snapshot in trace:
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


class TestSolve:
    def test_tumor_end_to_end(self, tumor_source):
        golden = json.loads((FIXTURES / "tumor_golden.json").read_text())
        report = solve(parse(tumor_source))
        assert len(report.answer_sets) == 1
        (model,) = report.answer_sets
        assert model.value(lit("tsg_off")).params == (0.6, 0.6, 1.0, 1.0)
        assert model.value(lit("cin_on")) == TRUE
        tumor = model.value(lit("tumor"))
        assert tumor.params == pytest.approx(tuple(golden["tumor"]), abs=1e-12)
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
            (i.value(lit("a")).params, i.value(lit("b")).params)
            for i in report.answer_sets
        }
        assert found == {
            (TRUE.params, FALSE.params),
            (FALSE.params, TRUE.params),
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
