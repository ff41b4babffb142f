"""The tokenizer, which yields ``(kind, text, offset)`` tuples and locates a
token only on error, against the line-tracking tokenizer it replaced, and
the exact text of every kind of parse error.

``reference_tokenize`` is that tokenizer, kept as the reference: it matched
at every position and built a ``_Token`` with its line and column counted
as it went.
"""

import re
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzyasp import DomainError, ParseError, cli, parse, parse_value
from fuzzyasp.program import _position, _tokenize

_REFERENCE_RE = re.compile(
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


def reference_tokenize(source: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _REFERENCE_RE.match(source, pos)
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


PIECES = (
    "a", "tumor", "not", "ifn", "tfn", "trfn", "x_1", "X", "Var2",
    "0", "0.5", ".25", "5e-1", "1/3", "1e400", "12.", "<-", "<",
    "(", ")", ".", ",", "[", "]", ":", "/", "!", "&", "|", "-",
    " ", "\n", "\t", "\r\n", "\r", "% note", "%", "é", "\x00", "$", "٣",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
@example("")
@example("a.\n% a comment at end of input")
@example("a <- b.\r\n\tc. $")
def test_tokenizer_matches_the_line_tracking_reference(source):
    try:
        expected = reference_tokenize(source)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            _tokenize(source)
        assert (str(err.value), err.value.line, err.value.column) == (
            str(exc), exc.line, exc.column,
        )
        return
    tokens = _tokenize(source)
    assert [(kind, text) for kind, text, _ in tokens] == [(t.kind, t.text) for t in expected]
    assert [_position(source, offset) for _, _, offset in tokens] == [
        (t.line, t.column) for t in expected
    ]


def _eval(text: str):
    parser = cli._EvalParser(text, 1e-9)
    return parser.parse_all(parser._agg)


DEEP = "(" * 101 + "ifn(0,1)" + ")" * 101


@pytest.mark.parametrize(
    "read, text, error, message",
    [
        (parse, "a.\r\n% no newline before c\r\nb <- c $ d.", ParseError,
         "unexpected character '$' (line 3, column 8)"),
        (parse, "a <- b", ParseError, "expected '.', found '' (line 1, column 7)"),
        (parse, "p(X) <- q(X), r(f(X)).", ParseError,
         "function symbol 'f' is not allowed (line 1, column 17)"),
        (parse, "a. [tfn(0,1)]", ParseError, "tfn takes 3 parameters, got 2 (line 1, column 5)"),
        (parse, "a.\n  b <- a. [tfn(0,1.5,2)]", DomainError,
         "core [1.5, 1.5] outside [0, 1] (line 2, column 12)"),
        (parse, "a.\nb. [ifn(0,1/0)]", ParseError, "division by zero (line 2, column 13)"),
        (parse, "ifn(0,1) <- a.", ParseError,
         "'ifn' is reserved for fuzzy literals (line 1, column 1)"),
        (parse, "not.", ParseError,
         "'not' is reserved for negation as failure (line 1, column 1)"),
        (parse, "a <- -not.", ParseError,
         "'not' is reserved for negation as failure (line 1, column 7)"),
        (parse, "p(<-).", ParseError, "expected a term, found '<-' (line 1, column 3)"),
        (parse, "a.\n\n\t-.", ParseError, "expected a literal, found '.' (line 3, column 3)"),
        (parse, "p(X) <- q(Y(.", ParseError, "expected ')', found '(' (line 1, column 12)"),
        (parse_value, "tfn(0,1)", ParseError, "tfn takes 3 parameters, got 2 (line 1, column 1)"),
        (parse_value, "ifn(0,1/0)", ParseError, "division by zero (line 1, column 9)"),
        (parse_value, "tfn(0,1.5,2)", DomainError,
         "core [1.5, 1.5] outside [0, 1] (line 1, column 1)"),
        (parse_value, "ifn(0,1) x", ParseError, "expected 'eof', found 'x' (line 1, column 10)"),
        (parse_value, "ifn(0, é)", ParseError, "unexpected character 'é' (line 1, column 8)"),
        (parse_value, "", ParseError, "expected ifn, tfn or trfn, found '' (line 1, column 1)"),
        (_eval, "ifn(0,1) & tfn(0,1)", ParseError,
         "tfn takes 3 parameters, got 2 (line 1, column 12)"),
        (_eval, "(ifn(0,1) | ifn(0,1/0))", ParseError, "division by zero (line 1, column 21)"),
        (_eval, "ifn(0,1)\n& ifn(0.5,1.5)", DomainError,
         "core [0.5, 1.5] outside [0, 1] (line 2, column 3)"),
        (_eval, "ifn(0,1) $", ParseError, "unexpected character '$' (line 1, column 10)"),
        (_eval, "not (ifn(0,1)", ParseError, "expected ')', found '' (line 1, column 14)"),
        (_eval, DEEP, ParseError, "parentheses nested deeper than 100 (line 1, column 101)"),
    ],
)
def test_every_parse_error_site(read, text, error, message):
    with pytest.raises(ParseError) as err:
        read(text)
    assert type(err.value) is error
    assert str(err.value) == message
