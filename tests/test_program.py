import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fuzzyasp import (
    TRUE,
    Atom,
    DomainError,
    FuzzyTruth,
    GroundProgram,
    Literal,
    Naf,
    ParseError,
    Status,
    UnsafeRule,
    Var,
    ground,
    ifn,
    parse,
    solve,
    tfn,
)
from fuzzyasp.program import LIT, NAF, VALUE, Const, _strongly_connected


def lit(name, *args, negated=False):
    return Literal(Atom(name, args), negated)


class TestParse:
    def test_weighted_rule(self):
        prog = parse("tumor <- cin_on, tsg_off. [tfn(0.4,0.4,1.5)]")
        (rule,) = prog.rules
        assert rule.head == lit("tumor")
        assert rule.positive_body == (lit("cin_on"), lit("tsg_off"))
        assert rule.naf_body == ()
        assert rule.weight == tfn(0.4, 0.4, 1.5)
        assert rule.weight.truncated

    def test_bare_fact_defaults(self):
        prog = parse("a.")
        (rule,) = prog.rules
        assert rule.head == lit("a")
        assert rule.body == ()
        assert rule.weight == TRUE

    def test_function_symbol_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("p(X) <- q(X,f(Y)).")
        assert "function symbol" in str(err.value)
        assert err.value.line == 1

    def test_labels_naf_and_classical_negation(self):
        prog = parse("r1: -a <- b, not c. [ifn(0.6,1)]")
        (rule,) = prog.rules
        assert rule.label == "r1"
        assert rule.head == lit("a", negated=True)
        assert rule.body == (lit("b"), Naf(lit("c")))
        assert rule.naf_body == (lit("c"),)
        assert rule.weight == ifn(0.6, 1)

    def test_inline_fuzzy_body_item(self):
        prog = parse("a <- ifn(0.5,1), b.")
        (rule,) = prog.rules
        assert rule.body[0] == ifn(0.5, 1)
        assert rule.body[1] == lit("b")

    def test_fuzzy_argument_is_inert_constant(self):
        prog = parse("weight_of(coin, ifn(0.4,0.6)).")
        (rule,) = prog.rules
        assert rule.head.atom.args[1] == ifn(0.4, 0.6)

    def test_comments_fractions_and_order(self):
        prog = parse(
            """
            % two rules, order preserved
            b. [tfn(0,1/3,1)]
            a <- b.
            """
        )
        assert [r.head.atom.predicate for r in prog.rules] == ["b", "a"]
        assert prog.rules[0].weight == tfn(0, 1 / 3, 1)

    def test_domain_error_on_bad_weight(self):
        with pytest.raises(DomainError) as err:
            parse("a. [tfn(0.5,0.2,0.9)]")
        assert err.value.line == 1

    def test_syntax_error_location(self):
        with pytest.raises(ParseError) as err:
            parse("a <- b\nc.")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text",
        ["a", "a <- .", "<- a.", "a <- not not b.", "a <- b,, c.", "ifn(0,1) <- a."],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_division_by_zero_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("a.\nb. [ifn(0,1/0)]")
        assert type(err.value) is ParseError
        assert (err.value.line, err.value.column) == (2, 13)

    @pytest.mark.parametrize("text", ["tfn(0,1,1e400)", "ifn(-1e400,1)", "ifn(0,1e400/1e400)"])
    def test_non_finite_parameters_are_domain_errors(self, text):
        with pytest.raises(DomainError) as err:
            parse(f"a. [{text}]")
        assert (err.value.line, err.value.column) == (1, 5)

    def test_prolog_neck_reads_as_a_label(self):
        # ``a :- b.`` is label ``a`` on the fact ``-b``, not a rule for ``a``
        (rule,) = parse("a :- b.").rules
        assert (rule.label, rule.head, rule.body) == ("a", lit("b", negated=True), ())
        assert parse("a :- b.").render() == "a: -b.\n"
        report = solve(parse("b. a :- b."))
        assert [c.status for c in report.candidates] == [Status.INCONSISTENT]

    def test_negative_parameters_in_fuzzy(self):
        prog = parse("a. [trfn(-2,0.3,0.9,3)]")
        assert prog.rules[0].weight == (-2, 0.3, 0.9, 3)


class TestRender:
    def test_round_trip_fixpoint(self):
        src = (
            "r1: tumor <- cin_on, tsg_off. [tfn(0.4,0.4,1.5)]\n"
            "a <- not b, ifn(0.25,0.75). [ifn(1,1)]\n"
            "-c <- p(X, d).\n"
            "p(d, e).\n"
        )
        once = parse(src)
        again = parse(once.render())
        assert again == once
        assert again.render() == once.render()

    def test_unit_weight_omitted(self):
        assert parse("a. [ifn(1,1)]").render() == "a.\n"


class TestGround:
    def test_propositional_identity(self):
        prog = parse("a <- b. b. -c <- not a.")
        gp = ground(prog)
        assert gp.rules == prog.rules

    def test_two_instances(self):
        gp = ground(parse("q(a). q(b). p(X) <- q(X)."))
        heads = [r.head for r in gp.rules if r.head.atom.predicate == "p"]
        assert heads == [lit("p", "a"), lit("p", "b")] or {
            h.atom.args[0].name for h in heads
        } == {"a", "b"}
        assert len(gp.rules) == 4

    def test_unsafe_naf_variable(self):
        with pytest.raises(UnsafeRule) as err:
            ground(parse("p(X) <- not q(X)."))
        assert err.value.variable == "X"

    def test_unsafe_head_variable(self):
        with pytest.raises(UnsafeRule):
            ground(parse("p(X, Y) <- q(X)."))

    def test_safe_rule_with_naf(self):
        gp = ground(parse("q(a). p(X) <- q(X), not r(X)."))
        assert any(r.naf_body for r in gp.rules)

    def test_every_rule_literal_in_program_literals(self):
        gp = ground(parse("a <- b, not c. -d <- a."))
        lits = set(gp.literals)
        for rule in gp.rules:
            assert rule.head in lits
            for item in rule.body:
                if isinstance(item, Naf):
                    assert item.literal in lits
                elif not isinstance(item, FuzzyTruth):
                    assert item in lits

    def test_ground_program_of_rules_with_variables_grounds_them(self):
        program = parse("p(X) <- q(X). q(a).")
        gp, grounded = GroundProgram(program.rules), ground(program)
        assert gp.literals == grounded.literals == (lit("p", Const("a")), lit("q", Const("a")))
        assert gp.compiled == grounded.compiled
        assert gp.rules == grounded.rules
        assert gp.components == grounded.components

    def test_ground_program_rejects_an_unsafe_rule(self):
        with pytest.raises(UnsafeRule) as err:
            GroundProgram(parse("p(X) <- not q(X).").rules)
        assert err.value.variable == "X"

    def test_grounding_with_fuzzy_constant_in_universe(self):
        gp = ground(parse("holds(ifn(0.5,0.5)). any(X) <- holds(X)."))
        assert len(gp.rules) == 2
        grounded = [r for r in gp.rules if r.head.atom.predicate == "any"]
        assert grounded[0].head.atom.args[0] == ifn(0.5, 0.5)


class TestCompiledForm:
    SOURCE = (
        "q(a). q(b). -p(b).\n"
        "p(X) <- q(X), not r(X), ifn(0.5,1).\n"
        "r(Y) <- q(Y), not p(Y). [tfn(0.2,0.5,0.9)]\n"
        "-r(a) <- q(a). [ifn(0.2,0.4)]\n"
        "s <- not r(b), not -p(b), not p(a).\n"
        "p(a) <- s.\n"
    )

    @pytest.fixture
    def gp(self):
        return ground(parse(self.SOURCE))

    def test_literal_ids_follow_first_occurrence(self, gp):
        order = {}
        for rule in gp.rules:
            order.setdefault(rule.head)
            for item in rule.body:
                if isinstance(item, Naf):
                    order.setdefault(item.literal)
                elif not isinstance(item, FuzzyTruth):
                    order.setdefault(item)
        assert gp.literals == tuple(order)
        assert all(gp.table.ids[l] == i for i, l in enumerate(gp.literals))

    def test_complement_ids_are_symmetric(self, gp):
        complement = gp.table.complement
        assert len(complement) == len(gp.literals)
        paired = 0
        for i, literal in enumerate(gp.literals):
            c = complement[i]
            if c < 0:
                assert literal.complement() not in gp.table.ids
                continue
            paired += 1
            assert complement[c] == i
            assert gp.literals[c] == literal.complement()
        assert paired == 4  # p(b) and r(a) with their complements

    def test_compiled_rules_match_a_scan_in_program_order(self, gp):
        def decompile(body):
            out = []
            for kind, x in body:
                if kind == LIT:
                    out.append(gp.literals[x])
                elif kind == NAF:
                    out.append(Naf(gp.literals[x]))
                else:
                    assert kind == VALUE
                    out.append(x)
            return tuple(out)

        assert set(gp.heads) == {gp.table.ids[r.head] for r in gp.rules}
        for h, literal in enumerate(gp.literals):
            scan = [(r.body, r.weight) for r in gp.rules if r.head == literal]
            compiled = [(decompile(body), weight) for body, weight in gp.rules_of[h]]
            assert compiled == scan
        assert [gp.literals[h] for h, _, _ in gp.compiled] == [r.head for r in gp.rules]

    def test_naf_ids_follow_first_occurrence(self, gp):
        scan = dict.fromkeys(b for rule in gp.rules for b in rule.naf_body)
        assert [gp.literals[b] for b in gp.naf_ids] == list(scan)
        assert len(gp.naf_ids) == 5

    def test_components_cover_each_head_once(self, gp):
        for order in (gp.components, gp.frozen_components):
            heads = [h for component in order for h in component.heads]
            assert sorted(heads) == sorted(gp.heads)
            for component in order:
                assert [step[0] for step in component.plan] == list(component.heads)


def reference_strongly_connected(deps: dict) -> list[tuple[tuple, bool]]:
    """Tarjan's algorithm, iterative, on dicts and a set: the condensation's reference.

    Returns (members in ``deps`` order, cyclic) per component, each
    component after those it depends on.
    """
    position = {node: i for i, node in enumerate(deps)}
    order: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    found: list[tuple[tuple, bool]] = []
    for root in deps:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(deps[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in order:
                    order[nxt] = low[nxt] = len(order)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(deps[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], order[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    members.sort(key=position.__getitem__)
                    cyclic = len(members) > 1 or node in deps[node]
                    found.append((tuple(members), cyclic))
    return found


@st.composite
def dependency_dicts(draw) -> dict:
    """0-12 nodes, not in sorted order, each with successors among them in any order."""
    nodes = draw(st.lists(st.integers(0, 99), unique=True, max_size=12))
    if not nodes:
        return {}
    successors = st.lists(st.sampled_from(nodes), max_size=6).map(tuple)
    return {node: draw(successors) for node in nodes}


class TestCondensation:
    @settings(max_examples=400, deadline=None)
    @given(dependency_dicts())
    def test_matches_the_dict_based_reference(self, deps):
        assert _strongly_connected(deps) == reference_strongly_connected(deps)

    def test_self_loops_and_cycles_are_cyclic(self):
        deps = {7: (3,), 3: (7, 3), 5: (5,), 1: ()}
        assert _strongly_connected(deps) == [((7, 3), True), ((5,), True), ((1,), False)]
