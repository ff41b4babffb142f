"""Syntax, parser and grounder for weighted rule programs.

Concrete grammar (no function symbols, comments start with ``%``)::

    rule    := [label ':'] literal ['<-' item (',' item)*] '.' ['[' fuzzy ']']
    item    := 'not' literal | literal | fuzzy
    literal := ['-'] ident ['(' term (',' term)* ')']
    term    := Variable | ident | fuzzy
    fuzzy   := ('ifn'|'tfn'|'trfn') '(' number (',' number)* ')'
    number  := ['-'] decimal ['/' decimal]
    decimal := digits ['.' [digits]] [exponent] | '.' digits [exponent]

Identifiers start lowercase, variables uppercase.  A missing weight means
ifn(1,1); an empty body is the fold unit ifn(1,1).  Fuzzy numbers may occur
as body items (inline evidence) and as inert constants in argument
positions.  The same tokenizer and ``fuzzy`` production read single values
(:func:`parse_value`) and the CLI's connective expressions, so every text
input reports errors with a line and column.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import CoreOutOfRange, DomainError, OrderViolation, ParseError, UnsafeRule
from .truthspace import TRUE, FuzzyTruth, ifn, tfn, trfn


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


Term = Var | Const | FuzzyTruth


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple = ()

    def render(self) -> str:
        if not self.args:
            return self.predicate
        inner = ",".join(_render_term(t) for t in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def render(self) -> str:
        return ("-" if self.negated else "") + self.atom.render()

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class Naf:
    """Negation-as-failure marker around a literal in a rule body."""

    literal: Literal

    def render(self) -> str:
        return f"not {self.literal.render()}"

    def __repr__(self):
        return self.render()


def _render_term(t) -> str:
    if isinstance(t, FuzzyTruth):
        return t.render()
    return t.name


@dataclass(frozen=True)
class Rule:
    """One weighted rule; body kept in written order (folding is ordered)."""

    head: Literal
    body: tuple = ()
    weight: FuzzyTruth = TRUE
    label: str | None = None

    @property
    def positive_body(self) -> tuple:
        """Literals and inline fuzzy constants, in written order."""
        return tuple(x for x in self.body if not isinstance(x, Naf))

    @property
    def naf_body(self) -> tuple:
        return tuple(x.literal for x in self.body if isinstance(x, Naf))

    def render(self) -> str:
        parts = []
        if self.label:
            parts.append(f"{self.label}: ")
        parts.append(self.head.render())
        items = [x.render() for x in self.body]
        if items:
            parts.append(" <- " + ", ".join(items))
        parts.append(".")
        if self.weight != TRUE:
            parts.append(f" [{self.weight.render()}]")
        return "".join(parts)

    def __repr__(self):
        return self.render()


@dataclass(frozen=True)
class Program:
    rules: tuple = ()

    def render(self) -> str:
        return "\n".join(r.render() for r in self.rules) + ("\n" if self.rules else "")


#: kinds of a compiled body item: ``(LIT, id)`` reads literal ``id``,
#: ``(NAF, id)`` reads ``not`` literal ``id``, ``(VALUE, v)`` is the inline constant v
LIT, NAF, VALUE = 0, 1, 2


class LiteralTable:
    """Ground literals numbered by their position in ``literals``.

    ``complement[i]`` is the number of literal i's complement, or -1 when
    the table does not hold it; a ground program passes the complements it
    found through its own literal keys, other callers let the table look
    them up.  ``ids`` maps a literal to its number and ``names`` renders
    each literal once, for output; both are built on first use.
    """

    def __init__(self, literals, complement=None):
        self.literals = tuple(literals)
        if complement is None:
            complement = tuple(self.ids.get(l.complement(), -1) for l in self.literals)
        self.complement = complement

    @cached_property
    def ids(self) -> dict:
        return {literal: i for i, literal in enumerate(self.literals)}

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(literal.render() for literal in self.literals)


class Component(NamedTuple):
    """Head ids that depend on one another, in head order, with their evaluation plan."""

    heads: tuple
    cyclic: bool  # some head depends, directly or not, on a head in here
    naf_inside: bool  # some head reads ``not`` of a head in here: a naf cycle
    plan: tuple  # per head: (head id, its rules, its complement's rules or ())


class GroundProgram:
    """Variable-free program compiled to integer literal ids.

    Every ground literal gets an id, its position in ``literals``
    (first-occurrence order, head before body); ``table`` holds them with
    their complement ids.  ``compiled`` has one ``(head id, body, weight)``
    per rule in program order, the body a tuple of ``(kind, payload)`` items
    (:data:`LIT`, :data:`NAF`, :data:`VALUE`); ``rules_of[h]`` lists head
    h's rules as ``(body, weight)`` pairs in program order, ``heads`` the
    head ids in first-occurrence order and ``naf_ids`` the ids under
    ``not`` in first-occurrence order.  The dependency condensations and
    their evaluation plans are built once, on first use.  This form is the
    program's only interface: the solver evaluates it over lists of values
    indexed by id, and literals are rendered only for output, once each,
    through ``table.names``.  The program is immutable.

    ``GroundProgram(rules)`` compiles rules that are ground already (every
    argument is a constant); :func:`ground` compiles the instances of rules
    with variables through the same routine, without building them.
    ``rules`` is a view, built on first use, for the definitional checks,
    error details and ``parse-only``: the ground rules in program order,
    each written as its instance, so a constant keeps the form it was
    written in (``-0.0`` stays ``-0.0``) even where its literal's id was
    first given to an equal literal written otherwise.
    """

    def __init__(self, rules=()):
        self._compile(tuple(rules), None)

    @classmethod
    def _instances(cls, rules: tuple, universe: dict) -> GroundProgram:
        """The program of every instance of ``rules`` over ``universe``."""
        self = cls.__new__(cls)
        self._compile(rules, universe)
        return self

    def _compile(self, rules: tuple, universe: dict | None):
        """Give every ground literal its id and compile each rule instance.

        Without a ``universe`` every argument is a constant and each rule is
        one instance.  With one (term -> index, in first-occurrence order)
        each rule has an instance per binding of its variables (sorted by
        name) to the universe's terms, in :func:`itertools.product` order.
        Where each variable and constant of a rule sits is worked out once
        per rule; each ground literal is then looked up under the key
        ``(predicate, negated, indices of its arguments)``, which hashes
        without calling back into Python, and its Literal is built only the
        first time its key turns up.
        """
        constants: dict = {} if universe is None else universe
        terms = tuple(constants)
        ids: dict = {}
        literals: list = []
        compiled: list = []
        templates: list = []
        for rule in rules:
            variables = () if universe is None else _rule_variables(rule)
            slot = {name: i for i, name in enumerate(variables)}
            k = len(variables)
            const_ids: list = []
            const_terms: list = []
            # per item: (kind, literal or value, key when it has no variable,
            # picker of its arguments out of a binding followed by the constants)
            specs = []
            for kind, x in _items(rule):
                if kind == VALUE:
                    specs.append((kind, x, None, None))
                    continue
                positions, args = [], []
                for t in x.atom.args:
                    if k and isinstance(t, Var):
                        positions.append(slot[t.name])
                    else:
                        positions.append(k + len(const_ids))
                        args.append(constants.setdefault(t, len(constants)))
                        const_ids.append(args[-1])
                        const_terms.append(t)
                if len(args) == len(positions):  # no variable: one key for every binding
                    specs.append((kind, x, (x.atom.predicate, x.negated, tuple(args)), None))
                else:
                    specs.append((kind, x, None, _picker(positions)))
            const_ids, const_terms = tuple(const_ids), tuple(const_terms)
            templates.append((rule, k, specs, const_terms))
            weight = rule.weight
            for combo in itertools.product(range(len(terms)), repeat=k):
                at = combo + const_ids
                instance = None  # the binding's terms, once a new literal needs them
                items = []
                for kind, x, key, pick in specs:
                    if kind != VALUE:
                        if pick is not None:
                            key = (x.atom.predicate, x.negated, pick(at))
                        i = ids.get(key)
                        if i is None:
                            i = ids[key] = len(literals)
                            if pick is not None and instance is None:
                                instance = tuple(terms[j] for j in combo) + const_terms
                            literals.append(_instance(x, pick, instance))
                        x = i
                    items.append((kind, x))
                compiled.append((items[0][1], tuple(items[1:]), weight))
        self._templates, self._terms = tuple(templates), terms
        self.table = LiteralTable(
            literals, tuple(ids.get((p, not n, a), -1) for p, n, a in ids)
        )
        self.compiled = tuple(compiled)
        rules_of: dict[int, list] = {}
        for head, body, weight in compiled:
            rules_of.setdefault(head, []).append((body, weight))
        self.heads = tuple(rules_of)
        self.rules_of = tuple(tuple(rules_of.get(i, ())) for i in range(len(literals)))
        self.naf_ids = tuple(
            dict.fromkeys(x for _, body, _ in compiled for kind, x in body if kind == NAF)
        )

    @cached_property
    def rules(self) -> tuple:
        """The ground rules in program order; a rule without variables is itself."""
        rules = []
        for rule, k, specs, const_terms in self._templates:
            if not k:
                rules.append(rule)
                continue
            for combo in itertools.product(self._terms, repeat=k):
                instance = combo + const_terms
                head, *body = (
                    x if kind == VALUE
                    else Naf(_instance(x, pick, instance)) if kind == NAF
                    else _instance(x, pick, instance)
                    for kind, x, _, pick in specs
                )
                rules.append(Rule(head, tuple(body), rule.weight, rule.label))
        return tuple(rules)

    @property
    def literals(self) -> tuple:
        """All ground literals occurring anywhere, in id order."""
        return self.table.literals

    @property
    def has_naf(self) -> bool:
        return bool(self.naf_ids)

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """Strongly connected components of the head ids, dependencies first.

        A head depends on the literals in its rules' bodies, positive and
        naf, and on its complement when that has rules too (their values
        aggregate each other).  Literals without rules are constants and
        carry no edge.
        """
        return self._condense(naf_edges=True)

    @cached_property
    def frozen_components(self) -> tuple[Component, ...]:
        """The same condensation without naf edges: the order once naf values are fixed."""
        if not self.has_naf:
            return self.components
        return self._condense(naf_edges=False)

    def _condense(self, naf_edges: bool) -> tuple[Component, ...]:
        complement, rules_of = self.table.complement, self.rules_of
        is_head = [False] * len(rules_of)
        for head in self.heads:
            is_head[head] = True
        follow = (LIT, NAF) if naf_edges else (LIT,)
        deps: dict[int, tuple] = {}
        for head in self.heads:
            out: dict[int, None] = {}
            for body, _ in rules_of[head]:
                for kind, x in body:
                    if kind in follow and is_head[x]:
                        out.setdefault(x)
            comp = complement[head]
            if comp >= 0 and is_head[comp]:
                out.setdefault(comp)
            deps[head] = tuple(out)
        components = []
        where = [-1] * len(rules_of)
        for n, (members, cyclic) in enumerate(_strongly_connected(deps)):
            for h in members:
                where[h] = n
            naf_inside = naf_edges and cyclic and self.has_naf and any(
                kind == NAF and where[x] == n
                for h in members
                for body, _ in rules_of[h]
                for kind, x in body
            )
            components.append(Component(members, cyclic, naf_inside, tuple(
                (h, rules_of[h], rules_of[complement[h]] if complement[h] >= 0 else ())
                for h in members
            )))
        return tuple(components)


def _picker(positions: list):
    """A function taking the entries at ``positions`` out of a tuple, as a tuple."""
    if len(positions) == 1:
        (p,) = positions
        return lambda at: (at[p],)
    return itemgetter(*positions)


def _instance(literal: Literal, pick, terms: tuple) -> Literal:
    """``literal`` with the arguments ``pick(terms)``, or itself when ``pick`` is None."""
    if pick is None:
        return literal
    return Literal(Atom(literal.atom.predicate, pick(terms)), literal.negated)


def _strongly_connected(deps: dict) -> list[tuple[tuple, bool]]:
    """Tarjan's algorithm, iterative; each component comes after those it depends on.

    Returns (members in ``deps`` order, cyclic) per component.
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


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<arrow><-)
  | (?P<ident>[a-z]\w*)
  | (?P<var>[A-Z]\w*)
  | (?P<punct>[().,\[\]:/!&|-])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            col = pos - line_start + 1
            if kind == "punct" or kind == "arrow":
                kind = text
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_FUZZY_NAMES = {"ifn": (ifn, 2), "tfn": (tfn, 3), "trfn": (trfn, 4)}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the current token when its text is ``text``."""
        if self.cur.text == text:
            self.pos += 1
            return True
        return False

    def _expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text!r}",
                self.cur.line,
                self.cur.column,
            )
        return self._advance()

    def _error(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.column)

    def parse_all(self, read):
        """``read()`` over the whole input: nothing may follow what it reads."""
        value = read()
        self._expect("eof")
        return value

    def parse_program(self) -> Program:
        rules = []
        while self.cur.kind != "eof":
            rules.append(self._rule())
        return Program(tuple(rules))

    def _rule(self) -> Rule:
        label = None
        if (
            self.cur.kind == "ident"
            and self.tokens[self.pos + 1].kind == ":"
        ):
            label = self._advance().text
            self._advance()
        head = self._literal()
        body: list = []
        if self._accept("<-"):
            body.append(self._body_item())
            while self._accept(","):
                body.append(self._body_item())
        self._expect(".")
        weight = TRUE
        if self._accept("["):
            weight = self._fuzzy_value()
            self._expect("]")
        return Rule(head, tuple(body), weight, label)

    def _body_item(self):
        if self._accept("not"):
            return Naf(self._literal())
        if self.cur.text in _FUZZY_NAMES:
            return self._fuzzy_value()
        return self._literal()

    def _literal(self) -> Literal:
        negated = self._accept("-")
        if self.cur.kind != "ident":
            self._error(f"expected a literal, found {self.cur.text!r}")
        if self.cur.text in _FUZZY_NAMES:
            self._error(f"{self.cur.text!r} is reserved for fuzzy literals")
        name = self._advance().text
        args: list = []
        if self._accept("("):
            args.append(self._term())
            while self._accept(","):
                args.append(self._term())
            self._expect(")")
        return Literal(Atom(name, tuple(args)), negated)

    def _term(self):
        if self.cur.kind == "var":
            return Var(self._advance().text)
        if self.cur.kind == "ident":
            if self.cur.text in _FUZZY_NAMES:
                return self._fuzzy_value()
            tok = self._advance()
            if self.cur.kind == "(":
                raise ParseError(
                    f"function symbol {tok.text!r} is not allowed", tok.line, tok.column
                )
            return Const(tok.text)
        self._error(f"expected a term, found {self.cur.text!r}")

    def _fuzzy_value(self) -> FuzzyTruth:
        if self.cur.text not in _FUZZY_NAMES:
            self._error(f"expected ifn, tfn or trfn, found {self.cur.text!r}")
        tok = self._advance()
        ctor, arity = _FUZZY_NAMES[tok.text]
        self._expect("(")
        args = [self._number()]
        while self._accept(","):
            args.append(self._number())
        self._expect(")")
        if len(args) != arity:
            raise ParseError(
                f"{tok.text} takes {arity} parameters, got {len(args)}",
                tok.line,
                tok.column,
            )
        try:
            return ctor(*args)
        except (OrderViolation, CoreOutOfRange) as exc:
            raise DomainError(str(exc), tok.line, tok.column) from exc

    def _number(self) -> float:
        sign = -1.0 if self._accept("-") else 1.0
        value = sign * float(self._expect("number").text)
        if self._accept("/"):
            tok = self._expect("number")
            divisor = float(tok.text)
            if divisor == 0.0:
                raise ParseError("division by zero", tok.line, tok.column)
            value /= divisor
        return value


def parse(source: str) -> Program:
    """Parse program text; raises ParseError/DomainError with location."""
    return _Parser(source).parse_program()


def parse_value(text: str) -> FuzzyTruth:
    """Parse one ``ifn(a,d)`` / ``tfn(a,b,c)`` / ``trfn(a,b,c,d)`` value.

    Parameters are numbers of the program grammar: decimals with optional
    exponent, a leading ``-`` and ``p/q`` fractions.  Raises ParseError, or
    DomainError for parameters :func:`~fuzzyasp.truthspace.make` rejects,
    with the column of the fault.
    """
    parser = _Parser(text)
    return parser.parse_all(parser._fuzzy_value)


# --------------------------------------------------------------------------
# Grounding
# --------------------------------------------------------------------------


def _items(rule: Rule):
    """(kind, literal or value) of the head, then of each body item in order."""
    yield LIT, rule.head
    for item in rule.body:
        if isinstance(item, FuzzyTruth):
            yield VALUE, item
        elif isinstance(item, Naf):
            yield NAF, item.literal
        else:
            yield LIT, item


def _rule_literals(rule: Rule):
    yield rule.head
    for item in rule.body:
        if isinstance(item, Naf):
            yield item.literal
        elif isinstance(item, Literal):
            yield item


def _variables(literal: Literal) -> set[str]:
    return {t.name for t in literal.atom.args if isinstance(t, Var)}


def _rule_variables(rule: Rule) -> list[str]:
    return sorted(
        {t.name for lit in _rule_literals(rule) for t in lit.atom.args if isinstance(t, Var)}
    )


def _check_safety(rule: Rule):
    positive = set()
    for item in rule.positive_body:
        if isinstance(item, Literal):
            positive |= _variables(item)
    needed = _variables(rule.head)
    for lit in rule.naf_body:
        needed |= _variables(lit)
    for var in sorted(needed - positive):
        raise UnsafeRule(var, rule)


def ground(program: Program) -> GroundProgram:
    """Herbrand grounding over the program's constants.

    The universe is every constant and fuzzy constant in an argument
    position, in first-occurrence order; a rule with variables has one
    instance per binding of them to the universe.  The instances are
    compiled straight into literal ids (see :class:`GroundProgram`), not
    built as rules.  Raises UnsafeRule when a head or naf variable has no
    positive body occurrence.  Propositional programs ground to themselves.
    """
    universe: dict = {}
    for rule in program.rules:
        for literal in _rule_literals(rule):
            for term in literal.atom.args:
                if not isinstance(term, Var):
                    universe.setdefault(term, len(universe))
    for rule in program.rules:
        _check_safety(rule)
    return GroundProgram._instances(program.rules, universe)
