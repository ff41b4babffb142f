"""The front end as it was before tokens became bare texts: the reference.

``_tokenize`` built one ``(kind, text, offset)`` tuple per regex match and
``_Parser`` read them through its ``kind``/``text`` properties and
``_accept``/``_expect``/``_advance`` calls.  The tests run the program,
value and eval parsers against these on random inputs: they must give
equal results or the same error, message, line and column.
"""

import re

from fuzzyasp.cli import MAX_PAREN_DEPTH
from fuzzyasp.connectives import conj, disj, kagg, naf, negate
from fuzzyasp.errors import CoreOutOfRange, DomainError, OrderViolation, ParseError
from fuzzyasp.program import Atom, Const, Literal, Naf, Program, Rule, Var
from fuzzyasp.truthspace import TRUE, FuzzyTruth, ifn, tfn, trfn

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\r\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[a-z]\w*)
  | (?P<var>[A-Z]\w*)
  | (?P<punct><-|[().,\[\]:/!&|-])
  | (?P<bad>.)
""",
    re.VERBOSE | re.DOTALL,
)


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``source``.

    A line ends at ``\\r\\n``, ``\\r`` or ``\\n``, as in a file read with
    universal newlines.
    """
    head = source[:offset]
    line_ends = head.count("\n") + head.count("\r") - head.count("\r\n")
    return line_ends + 1, offset - max(head.rfind("\n"), head.rfind("\r"))


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


class _EvalParser(_Parser):
    def __init__(self, text: str, eps: float):
        super().__init__(text)
        self.eps = eps
        self.depth = 0

    def _agg(self) -> FuzzyTruth:
        value = self._or()
        while self._accept("agg"):
            value = kagg(value, self._or(), self.eps)
        return value

    def _or(self) -> FuzzyTruth:
        value = self._and()
        while self._accept("|"):
            value = disj(value, self._and())
        return value

    def _and(self) -> FuzzyTruth:
        value = self._unary()
        while self._accept("&"):
            value = conj(value, self._unary())
        return value

    def _unary(self) -> FuzzyTruth:
        # a prefix chain is read in a loop and applied innermost first
        prefixes = []
        while self.text in ("!", "not"):
            prefixes.append(negate if self._advance()[1] == "!" else naf)
        if self.text == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self._error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            self._advance()
            self.depth += 1
            value = self._agg()
            self._expect(")")
            self.depth -= 1
        else:
            value = self._fuzzy_value()
        for op in reversed(prefixes):
            value = op(value)
        return value
