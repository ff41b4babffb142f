"""Syntax, parser and grounder for weighted rule programs.

Concrete grammar (no function symbols, comments start with ``%``)::

    rule    := [label ':'] literal ['<-' item (',' item)*] '.' ['[' fuzzy ']']
    item    := 'not' literal | literal | fuzzy
    literal := ['-'] ident ['(' term (',' term)* ')']
    term    := Variable | ident | fuzzy
    fuzzy   := ('ifn'|'tfn'|'trfn') '(' number (',' number)* ')'
    number  := ['-'] decimal ['/' decimal]
    decimal := digits ['.' [digits]] [exponent] | '.' digits [exponent]

A comment runs from ``%`` to the end of its line; ``\\r\\n``, ``\\r`` and
``\\n`` each end a line, as in a file the CLI reads with universal
newlines.  Identifiers start lowercase, variables uppercase.  A missing
weight means ifn(1,1); an empty body is the fold unit ifn(1,1).  Fuzzy
numbers may occur as body items (inline evidence) and as inert constants in
argument positions.  The same tokenizer and ``fuzzy`` production read
single values (:func:`parse_value`) and the CLI's connective expressions,
so every text input reports errors with a line and column.

The tokenizer is one ``re.split`` pass, and a token is its text alone: its
kind follows from the text (:func:`_kind`), and where it starts
is found by scanning the source again only when an error is raised at it.
The parser's productions index the list of texts in place.

Grounding has one entry point, :class:`GroundProgram`, which walks each
rule once to check its safety, add its constants to the universe and plan
its instances, then compiles every rule instance into literal ids;
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
    itself.  ``rules`` is a view, built on first use, for error details,
    ``parse-only`` and the tests' rule-level checks: the ground rules in
    program order, each written as its instance, so a constant keeps the
    form it was written in (``-0.0`` stays ``-0.0``) even where its
    literal's id was first given to an equal literal written otherwise.
    """

    def __init__(self, rules=()):
        universe: dict = {}
        templates = tuple(_template(rule, universe) for rule in rules)
        self._compile(templates, universe)

    def _compile(self, templates: tuple, universe: dict):
        """Give every ground literal its id and compile each rule instance.

        ``universe`` maps each term to its index, in first-occurrence order,
        and ``templates`` holds what :func:`_template` worked out once per
        rule.  Each rule has an instance per binding of its variables
        (sorted by name) to the universe's terms, in
        :func:`itertools.product` order.  Each ground literal is looked up
        under the key ``(predicate, negated, indices of its arguments)``,
        which hashes without calling back into Python, and its Literal is
        built only the first time its key turns up.

        An item of a rule is the same for every instance that picks the
        same argument indices for it, so each item of a rule with variables
        keeps a memo from those indices (``None`` for an item without
        variables) to its compiled ``(kind, id)``: the key and the item are
        built once per distinct literal per rule, not once per instance.  A
        rule without variables has one instance, and its items keep none.
        Ids are still given in instance order, head first, as each key
        first turns up.
        """
        terms = tuple(universe)
        ids: dict = {}
        literals: list = []
        compiled: list = []
        for rule, k, specs, const_ids, const_terms in templates:
            weight = rule.weight
            plan = [(kind, x, key, pick, {}) for kind, x, key, pick, _ in specs] if k else specs
            for combo in itertools.product(range(len(terms)), repeat=k):
                at = combo + const_ids
                items = []
                for kind, x, key, pick, memo in plan:
                    if memo is not None:
                        picked = None if pick is None else pick(at)
                        item = memo.get(picked)
                        if item is not None:
                            items.append(item)
                            continue
                        if pick is not None:
                            key = (x.atom.predicate, x.negated, picked)
                    if kind != VALUE:
                        i = ids.get(key)
                        if i is None:
                            i = ids[key] = len(literals)
                            if pick is not None:
                                x = _instance(x, pick, tuple(terms[j] for j in combo) + const_terms)
                            literals.append(x)
                        x = i
                    item = (kind, x)
                    if memo is not None:
                        memo[picked] = item
                    items.append(item)
                compiled.append((items[0][1], tuple(items[1:]), weight))
        self._templates, self._terms = templates, terms
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
        for rule, k, specs, _, const_terms in self._templates:
            if not k:
                rules.append(rule)
                continue
            for combo in itertools.product(self._terms, repeat=k):
                instance = combo + const_terms
                head, *body = (
                    x if kind == VALUE
                    else Naf(_instance(x, pick, instance)) if kind == NAF
                    else _instance(x, pick, instance)
                    for kind, x, _, pick, _ in specs
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
        deps: dict[int, tuple] = {}
        naf_targets: dict[int, list] = {}  # per head, the heads its rules read under naf
        for head in self.heads:
            out: dict[int, None] = {}
            targets = naf_targets[head] = []
            for body, _ in rules_of[head]:
                for kind, x in body:
                    if kind == LIT:
                        if is_head[x]:
                            out.setdefault(x)
                    elif kind == NAF and naf_edges and is_head[x]:
                        out.setdefault(x)
                        targets.append(x)
            comp = complement[head]
            if comp >= 0 and is_head[comp]:
                out.setdefault(comp)
            deps[head] = tuple(out)
        components = []
        where = [-1] * len(rules_of)
        for n, (members, cyclic) in enumerate(_strongly_connected(deps)):
            for h in members:
                where[h] = n
            naf_inside = cyclic and any(where[x] == n for h in members for x in naf_targets[h])
            components.append(Component(members, cyclic, naf_inside, tuple(
                (h, rules_of[h], rules_of[complement[h]] if complement[h] >= 0 else ())
                for h in members
            )))
        return tuple(components)


def _template(rule: Rule, universe: dict) -> tuple:
    """One walk over ``rule``: ``(rule, k, specs, const_ids, const_terms)``.

    Each constant in an argument position that ``universe`` lacks gets the
    next index there, head first, then the body in written order.  Raises
    UnsafeRule, naming the first such variable in name order, when a head or naf
    variable has no positive body occurrence.  ``k`` counts the variables;
    a binding of them, sorted by name, followed by ``const_ids`` is what
    ``pick`` reads.  ``specs`` has per item (head first) ``(kind, literal
    or value, key, pick, None)``: a literal without variables has its one
    key, one with variables the picker of its arguments' indices.  The
    None stands where :meth:`GroundProgram._compile` puts an item's memo,
    which only the items of a rule with variables get.  The
    constants of those literals are at ``const_ids``, and as written in
    ``const_terms``.
    """
    specs: list = []
    with_variables = []  # (index in specs, kind, literal, universe index or None per argument)
    positive: set = set()  # variables of positive body literals
    needed: set = set()  # variables of the head and naf literals
    for n, x in enumerate((rule.head, *rule.body)):
        if isinstance(x, FuzzyTruth):
            specs.append((VALUE, x, None, None, None))
            continue
        kind, literal = (NAF, x.literal) if isinstance(x, Naf) else (LIT, x)
        atom = literal.atom
        indices = []
        for t in atom.args:
            if isinstance(t, Var):
                (positive if n and kind == LIT else needed).add(t.name)
                indices.append(None)
            else:
                indices.append(universe.setdefault(t, len(universe)))
        if None in indices:
            with_variables.append((len(specs), kind, literal, indices))
            specs.append(None)
        else:  # one key for every binding
            specs.append((kind, literal, (atom.predicate, literal.negated, tuple(indices)), None, None))
    if not with_variables:
        return rule, 0, specs, (), ()
    unsafe = needed - positive
    if unsafe:
        raise UnsafeRule(min(unsafe), rule)
    slot = {name: i for i, name in enumerate(sorted(positive))}
    k = len(slot)
    const_ids: list = []
    const_terms: list = []
    for at, kind, literal, indices in with_variables:
        positions = []
        for t, i in zip(literal.atom.args, indices):
            if i is None:
                positions.append(slot[t.name])
            else:
                positions.append(k + len(const_ids))
                const_ids.append(i)
                const_terms.append(t)
        specs[at] = (kind, literal, None, _picker(positions), None)
    return rule, k, specs, tuple(const_ids), tuple(const_terms)


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

    Returns (members in ``deps`` order, cyclic) per component.  Every
    successor must be a key of ``deps``.

    The walk runs on positions in ``deps``: each node's successors are
    translated as it is entered, and the visit order, low links and stack
    membership are lists indexed by position, so the members of a
    component sort as plain integers.
    """
    nodes = list(deps)
    index = {node: i for i, node in enumerate(nodes)}.__getitem__
    node_at = nodes.__getitem__
    order = [-1] * len(nodes)  # visit number, -1 before the visit
    low = [0] * len(nodes)
    on_stack = [False] * len(nodes)
    stack: list = []
    found: list[tuple[tuple, bool]] = []
    visited = 0
    for root in range(len(nodes)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, map(index, deps[nodes[root]]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if order[nxt] < 0:
                    order[nxt] = low[nxt] = visited
                    visited += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, map(index, deps[nodes[nxt]])))
                    break
                if on_stack[nxt] and order[nxt] < low[node]:
                    low[node] = order[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == order[node]:
                    head = nodes[node]
                    if stack[-1] == node:  # a component of one node, the common case
                        stack.pop()
                        on_stack[node] = False
                        found.append(((head,), head in deps[head]))
                        continue
                    members = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        members.append(member)
                        if member == node:
                            break
                    members.sort()
                    found.append((tuple(map(node_at, members)), True))
    return found


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

# Group 1 is a token, after any blanks, and group 2 a character that starts
# no token; any other match is blanks or a comment.  The token alternatives
# start with different characters, except that ``.`` starts a number when a
# digit follows and is punctuation otherwise, so only that order matters.
_TOKEN_RE = re.compile(
    r"""
    \s*(
        [a-z]\w*                                                  # identifier
      | \d+(?:\.\d*)?(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)?   # number
      | <- | [().,\[\]:/!&|-]                                     # punctuation
      | [A-Z]\w*                                                  # variable
    )
  | \s+
  | %[^\r\n]*
  | (.)
""",
    re.VERBOSE | re.DOTALL,
)

_PUNCTUATION = frozenset(["<-", "(", ")", ".", ",", "[", "]", ":", "/", "!", "&", "|", "-"])


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``source``.

    A line ends at ``\\r\\n``, ``\\r`` or ``\\n``, as in a file read with
    universal newlines.
    """
    head = source[:offset]
    line_ends = head.count("\n") + head.count("\r") - head.count("\r\n")
    return line_ends + 1, offset - max(head.rfind("\n"), head.rfind("\r"))


def _tokenize(source: str) -> list[str]:
    """The text of each token, then ``""`` for the end of input.

    Blanks and comments are dropped; any other character that starts no
    token is a ParseError, raised before any text is parsed.  A token is
    its text alone: its kind is :func:`_kind` of it, and where it starts
    is worked out (:func:`_token_offsets`) only for an error.
    """
    # every character is matched, so the pieces between matches are empty
    # and the groups of each match follow them: (between, token, bad) * n
    parts = _TOKEN_RE.split(source)
    if any(parts[2::3]):
        m = next(m for m in _TOKEN_RE.finditer(source) if m.lastindex == 2)
        raise ParseError(f"unexpected character {m[2]!r}", *_position(source, m.start()))
    tokens = list(filter(None, parts[1::3]))
    tokens.append("")
    return tokens


def _token_offsets(source: str) -> list[int]:
    """Where each token of :func:`_tokenize` starts; the end of input last."""
    offsets = [m.start(1) for m in _TOKEN_RE.finditer(source) if m.lastindex == 1]
    offsets.append(len(source))
    return offsets


def _kind(text: str) -> str:
    """The kind of a token: ``number``, ``ident``, ``var``, ``eof``, or for
    punctuation (``<-`` included) its text.

    Tokens of different kinds start differently (a number with a digit, or
    with ``.`` and a digit), so the text decides.  ``"a" <= text < "{"``
    holds exactly for the texts that start with ``a``-``z``.
    """
    if text in _PUNCTUATION:
        return text
    if not text:
        return "eof"
    if "a" <= text < "{":
        return "ident"
    if "A" <= text < "[":
        return "var"
    return "number"


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_FUZZY_NAMES = {"ifn": (ifn, 2), "tfn": (tfn, 3), "trfn": (trfn, 4)}
_RESERVED = frozenset(["not", *_FUZZY_NAMES])


class _Parser:
    """Recursive descent over the token texts of :func:`_tokenize`.

    ``texts[pos]`` is the current token.  The productions read and compare
    texts in place; where one must know a token's kind it tests the text's
    first character, as :func:`_kind` does.
    """

    def __init__(self, source: str):
        self.source = source
        self.texts = _tokenize(source)
        self.pos = 0

    def _accept(self, text: str) -> bool:
        """Consume the current token when its text is ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _expect(self, kind: str):
        """Consume the current token, which must be of ``kind``."""
        if _kind(self.texts[self.pos]) != kind:
            self._expected(kind, self.pos)
        self.pos += 1

    def _expected(self, kind: str, at: int):
        self._error(f"expected {kind!r}, found {self.texts[at]!r}", at)

    def _error(self, message: str, at: int | None = None):
        """Raise a ParseError at token ``at``, by default the current one."""
        raise ParseError(message, *self._where(self.pos if at is None else at))

    def _where(self, at: int) -> tuple[int, int]:
        """The (line, column) of token ``at``."""
        return _position(self.source, _token_offsets(self.source)[at])

    def parse_all(self, read):
        """``read()`` over the whole input: nothing may follow what it reads."""
        value = read()
        self._expect("eof")
        return value

    def parse_program(self) -> Program:
        rules = []
        end = len(self.texts) - 1
        while self.pos < end:
            rules.append(self._rule())
        return Program(tuple(rules))

    def _rule(self) -> Rule:
        texts, pos = self.texts, self.pos
        label = None
        if texts[pos + 1] == ":" and "a" <= texts[pos] < "{":
            label = texts[pos]
            self.pos = pos + 2
        head = self._literal()
        body: list = []
        if texts[self.pos] == "<-":
            while True:  # item := 'not' literal | literal | fuzzy
                self.pos += 1
                text = texts[self.pos]
                if text == "not":
                    self.pos += 1
                    body.append(Naf(self._literal()))
                elif text in _FUZZY_NAMES:
                    body.append(self._fuzzy_value())
                else:
                    body.append(self._literal())
                if texts[self.pos] != ",":
                    break
        pos = self.pos
        if texts[pos] != ".":
            self._expected(".", pos)
        if texts[pos + 1] != "[":
            self.pos = pos + 1
            return Rule(head, tuple(body), TRUE, label)
        self.pos = pos + 2
        weight = self._fuzzy_value()
        if texts[self.pos] != "]":
            self._expected("]", self.pos)
        self.pos += 1
        return Rule(head, tuple(body), weight, label)

    def _literal(self) -> Literal:
        texts, pos = self.texts, self.pos
        name = texts[pos]
        negated = name == "-"
        if negated:
            pos += 1
            name = texts[pos]
        if not "a" <= name < "{":
            self._error(f"expected a literal, found {name!r}", pos)
        if name in _RESERVED:
            if name == "not":
                self._error("'not' is reserved for negation as failure", pos)
            self._error(f"{name!r} is reserved for fuzzy literals", pos)
        if texts[pos + 1] != "(":
            self.pos = pos + 1
            return Literal(Atom(name), negated)
        self.pos = pos + 2
        args = [self._term()]
        while texts[self.pos] == ",":
            self.pos += 1
            args.append(self._term())
        if texts[self.pos] != ")":
            self._expected(")", self.pos)
        self.pos += 1
        return Literal(Atom(name, tuple(args)), negated)

    def _term(self):
        texts, pos = self.texts, self.pos
        text = texts[pos]
        if "A" <= text < "[":
            self.pos = pos + 1
            return Var(text)
        if not "a" <= text < "{":
            self._error(f"expected a term, found {text!r}")
        if text in _FUZZY_NAMES:
            return self._fuzzy_value()
        if texts[pos + 1] == "(":
            self._error(f"function symbol {text!r} is not allowed")
        self.pos = pos + 1
        return Const(text)

    def _fuzzy_value(self) -> FuzzyTruth:
        """``fuzzy``, its ``number`` parameters read in its loop."""
        texts, at = self.texts, self.pos
        name = texts[at]
        if name not in _FUZZY_NAMES:
            self._error(f"expected ifn, tfn or trfn, found {name!r}")
        pos = at + 1
        if texts[pos] != "(":
            self._expected("(", pos)
        args = []
        while True:  # number := ['-'] decimal ['/' decimal]
            pos += 1
            text = texts[pos]
            sign = 1.0
            if text == "-":
                sign = -1.0
                pos += 1
                text = texts[pos]
            if not "0" <= text < ":" and _kind(text) != "number":
                self._expected("number", pos)
            value = sign * float(text)
            pos += 1
            if texts[pos] == "/":
                pos += 1
                text = texts[pos]
                if not "0" <= text < ":" and _kind(text) != "number":
                    self._expected("number", pos)
                divisor = float(text)
                if divisor == 0.0:
                    self._error("division by zero", pos)
                value /= divisor
                pos += 1
            args.append(value)
            if texts[pos] != ",":
                break
        if texts[pos] != ")":
            self._expected(")", pos)
        self.pos = pos + 1
        ctor, arity = _FUZZY_NAMES[name]
        if len(args) != arity:
            self._error(f"{name} takes {arity} parameters, got {len(args)}", at)
        try:
            return ctor(*args)
        except (OrderViolation, CoreOutOfRange) as exc:
            raise DomainError(str(exc), *self._where(at)) from exc


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


def ground(program: Program) -> GroundProgram:
    """Herbrand grounding of ``program`` over its constants (see :class:`GroundProgram`)."""
    return GroundProgram(program.rules)
