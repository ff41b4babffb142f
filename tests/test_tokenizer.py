"""The front end against the ones it replaced, and the exact text of every
kind of parse error.

The tokenizer yields token texts and locates a token only on error.
``reference_tokenize`` is the line-tracking tokenizer it replaced: it
matched at every position and built a ``_Token`` with its line and column
counted as it went.  The program, value and eval parsers are checked on
random inputs against ``reference_parser``, the front end that read
``(kind, text, offset)`` tuples.
"""

import re
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import reference_parser
from fuzzyasp import DomainError, FuzzyAspError, FuzzyTruth, ParseError, cli, parse, parse_value
from fuzzyasp.program import _kind, _position, _token_offsets, _tokenize

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\r\n]*)
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
        newlines = text.count("\n") + text.count("\r") - text.count("\r\n")
        if newlines:
            line += newlines
            line_start = pos + max(text.rfind("\n"), text.rfind("\r")) + 1
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
    assert [(_kind(text), text) for text in tokens] == [(t.kind, t.text) for t in expected]
    assert [_position(source, offset) for offset in _token_offsets(source)] == [
        (t.line, t.column) for t in expected
    ]


FRAGMENTS = (
    "p(X)", "q(a, b)", "r(X,Y)", "-s", "- s", "not t", "not  t", "f(g(X))", "p()",
    "ifn(0,1)", "tfn(0.2,.5,1)", "trfn(0,0.25,0.5,1)", "ifn(-0.0,1/3)", "ifn(0.5,1.5)",
    "tfn(1,0,1)", "ifn(0,1/0)", "ifn(0,-1e400)", "p(ifn(0,1))", "[ifn(0.5,1)]", "[tfn(0,1)]",
    "r1: ", "lbl :", " <- ", ", ", ". ", ".\n", "agg", " & ", " | ", "!", "not (",
    "eof", "number", "ident", "var", "١", "aé", "1e5", "5.", "..5",
)


def _rule_text(draw) -> str:
    label = draw(st.sampled_from(["", "r1: ", "lbl : "]))
    head = draw(st.sampled_from(["a", "p(X)", "-q(a,X)", "aé", "r(ifn(0,1),b)", "ifn(0,1)"]))
    body = draw(st.lists(st.sampled_from([
        "b", "- c", "not  d", "p(X)", "q(X,Y)", "not r(X)", "tfn(0,.5,1)", "ifn(1/3,5e-1)",
    ]), max_size=3))
    weight = draw(st.sampled_from(["", " [ifn(0.5,1)]", "[tfn(-0.0,0.5,1)]", " [trfn(0,1/12.,.25,1)]"]))
    return label + head + (" <- " + ", ".join(body) if body else "") + "." + weight


def _expression_text(draw) -> str:
    values = ["ifn(0,1)", "ifn(.25,5e-1)", "tfn(0,0.5,1)", "trfn(0,1/4,1/2,1)", "ifn(-0.0,١)"]
    text = draw(st.sampled_from(values))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from([" & ", " | ", " agg ", "&", "|"]))
        prefix = draw(st.sampled_from(["", "!", "not ", "!not "]))
        text = draw(st.sampled_from(["{}{}{}", "({}{}{})"])).format(text, op, prefix)
        text += draw(st.sampled_from(values))
    return text


@st.composite
def front_end_inputs(draw) -> str:
    """A soup of tokens and fragments, or a program or an eval expression,
    with one piece spliced in or not."""
    pieces = PIECES + FRAGMENTS
    shape = draw(st.integers(0, 2))
    if shape == 0:
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=30)))
    if shape == 1:
        text = "\n".join(_rule_text(draw) for _ in range(draw(st.integers(0, 5))))
    else:
        text = _expression_text(draw)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(pieces)) + text[at + cut:]
    return text


def _outcome(read, text):
    """What ``read(text)`` gives: the value with its repr, or the error it raises."""
    try:
        value = read(text)
    except FuzzyAspError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    # repr tells -0.0 from 0.0, which compare equal
    return value, repr(value), repr(tuple(value)) if isinstance(value, FuzzyTruth) else None


def _eval(text: str):
    parser = cli._EvalParser(text, 1e-9)
    return parser.parse_all(parser._agg)


def _reference_eval(text: str):
    parser = reference_parser._EvalParser(text, 1e-9)
    return parser.parse_all(parser._agg)


@settings(max_examples=1000, deadline=None)
@given(front_end_inputs())
@example("a.\r\nr1: p(X) <- q(X), not  r, - s. [tfn(-0.0,1/3,1)]\r% end")
@example("ifn(0,1) eof")
@example("ifn(0,١) & !ifn(.25,5e-1) agg not (tfn(0,0.5,1) | ifn(0,1/1e1))")
@example("p(X) <- q(X), r(f(X)).")
def test_front_end_matches_the_reference(text):
    for read, reference in (
        (parse, reference_parser.parse),
        (parse_value, reference_parser.parse_value),
        (_eval, _reference_eval),
    ):
        assert _outcome(read, text) == _outcome(reference, text)


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
