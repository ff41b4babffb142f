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
input reports errors with a line and column.  A token is a plain
``(kind, text, offset)`` tuple; its line and column are worked out from the
offset only when an error is raised at it.

Grounding has one entry point, :class:`GroundProgram`, which checks safety,
collects the universe and compiles every rule instance into literal ids;
:func:`ground` applies it to a parsed program.
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
    # some head reads ``not`` of a head in here: a naf cycle.  A naf edge lies
    # on a dependency cycle exactly when both its ends share a component
    # (complement-coupled heads count as mutually dependent).  This alone
    # decides how the solver iterates the component: with it as an operator
    # trajectory, without it as with naf frozen, since every naf value it
    # reads is final.  Without such a component the program is stratified:
    # its naf values are determined bottom-up, and its fixpoint is its only
    # answer-set candidate, so no naf values need guessing.  Never set in
    # ``frozen_components``, which have no naf edges.
    naf_inside: bool
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

    ``GroundProgram(rules)`` is Herbrand grounding: it raises UnsafeRule
    when a head or naf variable has no positive body occurrence, collects
    the universe, every constant and fuzzy constant in an argument position
    in first-occurrence order, and compiles each instance of each rule (one
    per binding of its variables to the universe) straight into literal
    ids, without building it.  A rule without variables is one instance of
    itself.  ``rules`` is a view, built on first use, for the definitional
    checks, error details and ``parse-only``: the ground rules in program
    order, each written as its instance, so a constant keeps the form it
    was written in (``-0.0`` stays ``-0.0``) even where its literal's id was
    first given to an equal literal written otherwise.
    """

    def __init__(self, rules=()):
        rules = tuple(rules)
        universe: dict = {}
        for rule in rules:
            for literal in _rule_literals(rule):
                for term in literal.atom.args:
                    if not isinstance(term, Var):
                        universe.setdefault(term, len(universe))
        for rule in rules:
            _check_safety(rule)
        self._compile(rules, universe)

    def _compile(self, rules: tuple, universe: dict):
        """Give every ground literal its id and compile each rule instance.

        ``universe`` maps each term to its index, in first-occurrence order.
        Each rule has an instance per binding of its variables (sorted by
        name) to the universe's terms, in :func:`itertools.product` order.
        Where each variable and constant of a rule sits is worked out once
        per rule; each ground literal is then looked up under the key
        ``(predicate, negated, indices of its arguments)``, which hashes
        without calling back into Python, and its Literal is built only the
        first time its key turns up.
        """
        terms = tuple(universe)
        ids: dict = {}
        literals: list = []
        compiled: list = []
        templates: list = []
        for rule in rules:
            variables = _rule_variables(rule)
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
                    if isinstance(t, Var):
                        positions.append(slot[t.name])
                    else:
                        positions.append(k + len(const_ids))
                        args.append(universe[t])
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
  | (?P<ident>[a-z]\w*)
  | (?P<var>[A-Z]\w*)
  | (?P<punct><-|[().,\[\]:/!&|-])
  | (?P<bad>.)
""",
    re.VERBOSE | re.DOTALL,
)


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``source``; lines end at ``\\n``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` per token, then ``("eof", "", len(source))``.

    The kind of a number, identifier or variable is ``number``, ``ident`` or
    ``var``; that of punctuation (``<-`` included) is its text.  Blanks and
    comments are dropped; any other character is a ParseError.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", *_position(source, m.start()))
        tokens.append((text if kind == "punct" else kind, text, m.start()))
    tokens.append(("eof", "", len(source)))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_FUZZY_NAMES = {"ifn": (ifn, 2), "tfn": (tfn, 3), "trfn": (trfn, 4)}


class _Parser:
    """Recursive descent over the token tuples of :func:`_tokenize`.

    ``kind`` and ``text`` are those of the current token.  A token carries
    only its offset; its line and column are worked out (:func:`_position`)
    when an error is raised at it.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    @property
    def text(self) -> str:
        return self.tokens[self.pos][1]

    def _advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the current token when its text is ``text``."""
        if self.text == text:
            self.pos += 1
            return True
        return False

    def _expect(self, kind: str) -> tuple[str, str, int]:
        if self.kind != kind:
            self._error(f"expected {kind!r}, found {self.text!r}")
        return self._advance()

    def _error(self, message: str, tok=None):
        """Raise a ParseError at ``tok``, by default the current token."""
        offset = (tok or self.tokens[self.pos])[2]
        raise ParseError(message, *_position(self.source, offset))

    def parse_all(self, read):
        """``read()`` over the whole input: nothing may follow what it reads."""
        value = read()
        self._expect("eof")
        return value

    def parse_program(self) -> Program:
        rules = []
        while self.kind != "eof":
            rules.append(self._rule())
        return Program(tuple(rules))

    def _rule(self) -> Rule:
        label = None
        if self.kind == "ident" and self.tokens[self.pos + 1][0] == ":":
            label = self._advance()[1]
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
        if self.text in _FUZZY_NAMES:
            return self._fuzzy_value()
        return self._literal()

    def _literal(self) -> Literal:
        negated = self._accept("-")
        if self.kind != "ident":
            self._error(f"expected a literal, found {self.text!r}")
        if self.text in _FUZZY_NAMES:
            self._error(f"{self.text!r} is reserved for fuzzy literals")
        if self.text == "not":
            self._error("'not' is reserved for negation as failure")
        name = self._advance()[1]
        args: list = []
        if self._accept("("):
            args.append(self._term())
            while self._accept(","):
                args.append(self._term())
            self._expect(")")
        return Literal(Atom(name, tuple(args)), negated)

    def _term(self):
        if self.kind == "var":
            return Var(self._advance()[1])
        if self.kind == "ident":
            if self.text in _FUZZY_NAMES:
                return self._fuzzy_value()
            tok = self._advance()
            if self.kind == "(":
                self._error(f"function symbol {tok[1]!r} is not allowed", tok)
            return Const(tok[1])
        self._error(f"expected a term, found {self.text!r}")

    def _fuzzy_value(self) -> FuzzyTruth:
        if self.text not in _FUZZY_NAMES:
            self._error(f"expected ifn, tfn or trfn, found {self.text!r}")
        tok = self._advance()
        ctor, arity = _FUZZY_NAMES[tok[1]]
        self._expect("(")
        args = [self._number()]
        while self._accept(","):
            args.append(self._number())
        self._expect(")")
        if len(args) != arity:
            self._error(f"{tok[1]} takes {arity} parameters, got {len(args)}", tok)
        try:
            return ctor(*args)
        except (OrderViolation, CoreOutOfRange) as exc:
            raise DomainError(str(exc), *_position(self.source, tok[2])) from exc

    def _number(self) -> float:
        sign = -1.0 if self._accept("-") else 1.0
        value = sign * float(self._expect("number")[1])
        if self._accept("/"):
            tok = self._expect("number")
            divisor = float(tok[1])
            if divisor == 0.0:
                self._error("division by zero", tok)
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
    """Herbrand grounding of ``program`` over its constants (see :class:`GroundProgram`)."""
    return GroundProgram(program.rules)
