"""Command-line interface.

Subcommands: solve, eval, order, measure, table, oracle, parse-only.
Exit codes for ``solve``: 0 when at least one answer set exists, 1 when
none does, 2 on parse/ground errors and other reported errors (such as too
many naf guesses).  Other subcommands use 0/2.  Every subcommand whose
reader closes stdout early stops writing and exits 141
(``EXIT_BROKEN_PIPE``), with no error message.

Every fuzzy value argument (of eval, measure, order and oracle) is read by
the program parser's grammar, so a malformed value or number is reported
with its column and exit code 2, as in a program file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import struct
import sys
from json.encoder import encode_basestring_ascii as _json_string

from . import oracle as oracle_mod
from .errors import FuzzyAspError, ParseError
from .connectives import conj, disj, kagg, naf, negate
from .measures import Rel, compare, measure
from .program import Program, _Parser, ground, parse, parse_value
from .solver import DEFAULT_MAX_ITER, solve
from .truthspace import DEFAULT_EPS, FuzzyTruth


def _quad_text(v: FuzzyTruth) -> str:
    return f"trfn({v.a!r},{v.b!r},{v.c!r},{v.d!r})"


def _measure_text(v: FuzzyTruth) -> str:
    m = measure(v)
    return f"(t={m.t!r}, k={m.k!r})"


# the exact bits of a value's parameters: 0.0 == -0.0, yet they print apart
_bits = struct.Struct("4d").pack


def _once_per_value(spell):
    """``spell``, called once per distinct value bits; for one output only."""
    spelled = {}

    def text(v: FuzzyTruth) -> str:
        key = _bits(*v)
        out = spelled.get(key)
        if out is None:
            out = spelled[key] = spell(v)
        return out

    return text


# --------------------------------------------------------------------------
# eval expressions: ! / not prefix, & over |, agg loosest; the operands are
# fuzzy values of the program grammar
# --------------------------------------------------------------------------

#: parentheses an eval expression may nest; each level takes four stack frames
MAX_PAREN_DEPTH = 100


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
        while self.texts[self.pos] in ("!", "not"):
            prefixes.append(negate if self.texts[self.pos] == "!" else naf)
            self.pos += 1
        if self.texts[self.pos] == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self._error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            self.pos += 1
            self.depth += 1
            value = self._agg()
            self._expect(")")
            self.depth -= 1
        else:
            value = self._fuzzy_value()
        for op in reversed(prefixes):
            value = op(value)
        return value


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _read_source(path: str) -> str:
    """The text of a program file; ParseError when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _cmd_solve(args) -> int:
    report = solve(
        parse(_read_source(args.path)),
        eps=args.tol,
        max_iter=args.max_iter,
        collect_trace=args.trace,
    )

    if args.json:
        print(_report_text(report, args.trace))
    else:
        value_text = _once_per_value(lambda v: f"{_quad_text(v)} {_measure_text(v)}")
        for n, interp in enumerate(report.answer_sets, 1):
            print(f"answer set {n}:")
            for name, v in _sorted_by_name(interp):
                print(f"  {name} : {value_text(v)}")
        statuses = ", ".join(c.status.value for c in report.candidates) or "none"
        print(f"candidates: {statuses}")
        print(f"iterations: {report.iterations}")
        if report.guess_depth is not None:
            print(f"guess depth: {report.guess_depth}")
        if args.trace:
            quad_text = _once_per_value(_quad_text)
            for passno, snapshot in enumerate(report.trace, 1):
                print(f"pass {passno}:")
                for name, v in _sorted_by_name(snapshot):
                    print(f"  {name} : {quad_text(v)}")
    return 0 if report.answer_sets else 1


def _sorted_by_name(interp) -> list:
    """(rendered literal, value) pairs of an interpretation, sorted by name."""
    return sorted(zip(interp.table.names, interp.values), key=lambda item: item[0])


def _float_text(x: float) -> str:
    """A float as ``json.dumps`` writes it: its repr, or NaN, Infinity or -Infinity."""
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_block(open_: str, close: str, items: list, indent: str) -> str:
    """A JSON object or array of rendered ``items``, closed at ``indent``."""
    if not items:
        return open_ + close
    inner = indent + "  "
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"


_JSON_BOOL = {False: "false", True: "true"}

# the indent at which an answer set, a candidate and a trace round close;
# their members sit one level deeper
_ENTRY = "    "
# the rest of one literal's member after its encoded name
_VALUE_MEMBER = ": " + _json_block(
    "{", "}", [f'"{key}": %s' for key in ("a", "b", "c", "d", "truncated", "t", "k")], _ENTRY + "  "
)
# the same with each float slot a %r, which spells a finite float as
# _float_text does
_FINITE_VALUE_MEMBER = _VALUE_MEMBER % ("%r", "%r", "%r", "%r", "%s", "%r", "%r")
# a trace literal's member: a %r per parameter, since every value's
# parameters are finite (make and the connectives require it)
_ROUND_MEMBER = ": " + _json_block("[", "]", ["%r"] * 4 + ["%s"], _ENTRY + "  ")


def _value_member(v: FuzzyTruth) -> str:
    """An answer-set literal's member after its name: the value and its measure."""
    a, b, c, d = v
    m = measure(v)
    t, k = m.t, m.k
    truncated = _JSON_BOOL[v.truncated]
    if -math.inf < a + b + c + d + t + k < math.inf:  # all six are finite
        return _FINITE_VALUE_MEMBER % (a, b, c, d, truncated, t, k)
    return _VALUE_MEMBER % (*map(_float_text, v), truncated, _float_text(t), _float_text(k))


def _round_member(v: FuzzyTruth) -> str:
    """A trace literal's member after its name: the value's parameters."""
    return _ROUND_MEMBER % (*v, _JSON_BOOL[v.truncated])


def _report_text(report, with_trace: bool) -> str:
    """The report as ``json.dumps(doc, indent=2)`` writes it, doc being

    ``{"answer_sets": [{name: {"a", "b", "c", "d", "truncated", "t", "k"}}],
    "candidates": [{"status", "detail"}], "iterations", "guess_depth"}``,
    with ``"trace": [{name: [a, b, c, d, truncated]}]`` after them when
    ``with_trace``.  Answer-set literals are sorted by name, trace literals
    are in id order.  The schema is fixed, so only the leaves are encoded:
    names by json's C string encoder, floats as :func:`_float_text` spells
    them.  Every answer set and trace round is on the ground program's one
    literal table, so its names are sorted and encoded once.  A value's
    member is spelled once per distinct bits of its parameters, as
    answer-set values and as trace values: a closure repeats a handful of
    values over hundreds of literals.
    """
    answer_sets = []
    if report.answer_sets:
        names = report.answer_sets[0].table.names
        by_name = [(i, _json_string(names[i])) for i in sorted(range(len(names)), key=names.__getitem__)]
        value_member = _once_per_value(_value_member)
        for interp in report.answer_sets:
            values = interp.values
            literals = [name + value_member(values[i]) for i, name in by_name]
            answer_sets.append(_json_block("{", "}", literals, _ENTRY))
    candidates = [
        _json_block("{", "}", [
            f'"status": {_json_string(c.status.value)}',
            f'"detail": {"null" if c.detail is None else _json_string(str(c.detail))}',
        ], _ENTRY)
        for c in report.candidates
    ]
    depth = report.guess_depth
    members = [
        f'"answer_sets": {_json_block("[", "]", answer_sets, "  ")}',
        f'"candidates": {_json_block("[", "]", candidates, "  ")}',
        f'"iterations": {report.iterations}',
        f'"guess_depth": {"null" if depth is None else depth}',
    ]
    if with_trace:
        rounds = []
        if report.trace:
            in_id_order = [_json_string(name) for name in report.trace[0].table.names]
            round_member = _once_per_value(_round_member)
            for snapshot in report.trace:
                rounds.append(_json_block("{", "}", [
                    name + round_member(v) for name, v in zip(in_id_order, snapshot.values)
                ], _ENTRY))
        members.append(f'"trace": {_json_block("[", "]", rounds, "  ")}')
    return _json_block("{", "}", members, "")


def _cmd_parse_only(args) -> int:
    print(Program(ground(parse(_read_source(args.path))).rules).render(), end="")
    return 0


def _cmd_eval(args) -> int:
    parser = _EvalParser(args.expression, args.tol)
    value = parser.parse_all(parser._agg)
    print(f"{value.render()} {_measure_text(value)}")
    return 0


def _cmd_measure(args) -> int:
    for text in args.values:
        v = parse_value(text)
        print(f"{v.render()} {_measure_text(v)}")
    return 0


def _cmd_order(args) -> int:
    x = parse_value(args.x)
    y = parse_value(args.y)
    print(f"x = {x.render()} {_measure_text(x)}")
    print(f"y = {y.render()} {_measure_text(y)}")
    rel = compare(x, y, args.tol)
    truth = {Rel.LESS: "x <=_t y", Rel.EQUAL: "x =_t y", Rel.GREATER: "y <=_t x"}
    knowledge = {Rel.LESS: "x <=_k y", Rel.EQUAL: "x =_k y", Rel.GREATER: "y <=_k x"}
    print(f"truth: {truth[rel.truth]}")
    print(f"knowledge: {knowledge[rel.knowledge]}")
    return 0


#: the finest lattice ``table --step 1/n`` builds: its rows grow as n**4, and
#: n = 24 gives 20,475 of them in about a second
MAX_STEP_DENOMINATOR = 24


def _parse_step(text: str) -> int:
    m = re.fullmatch(r"1\s*/\s*(\d+)", text.strip())
    # a long digit string is out of range whatever it reads, and int() of
    # one is slow or refused, so its length is checked first
    n = int(m.group(1)) if m and len(m.group(1)) <= 9 else 0
    if not 1 <= n <= MAX_STEP_DENOMINATOR:
        raise ParseError(
            f"step must be 1/n with integer n from 1 to {MAX_STEP_DENOMINATOR}, got {text!r}"
        )
    return n


def _cmd_table(args) -> int:
    # exact rationals (fractions, and with it decimal and numbers) serve this command alone
    from .table import lattice_table

    rows = lattice_table(_parse_step(args.step))
    widths = (5, 28, 12, 12)
    header = ("kind", "value", "t", "k")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        note = ""
        if row.flagged:
            rt, rk = row.reference
            note = f"  table-ref-mismatch: t={rt}, k={rk}"
        cells = (row.kind, row.value_text(), str(row.t), str(row.k))
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + note)
    return 0


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "closure":
        values = [parse_value(t) for t in args.values]
        closure = oracle_mod.closure_enumerate(values, args.depth, cap=args.cap)
        for v in closure:
            print(v.render())
        print(f"size: {len(closure)}")
        return 0
    try:  # mean and prob import numpy and scipy as they run
        if args.oracle_cmd == "mean":
            print(repr(oracle_mod.integrate_density_mean(parse_value(args.value))))
        else:
            est = oracle_mod.prob_leq(
                parse_value(args.x), parse_value(args.y), samples=args.samples, seed=args.seed
            )
            print(f"estimate={est.estimate!r} stderr={est.stderr!r} samples={est.samples}")
    except ImportError:
        extra = "pip install 'fuzzyasp[oracle]'"
        raise FuzzyAspError(f"oracle {args.oracle_cmd} needs numpy and scipy: {extra}") from None
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fuzzyasp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    # argparse reports a ValueError as "invalid <function name> value"
    def tolerance(text: str) -> float:
        value = float(text)
        if not 0.0 <= value < math.inf:  # nan fails too
            raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
        return value

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
        return value

    def add_tol(p):
        p.add_argument("--tol", type=tolerance, default=DEFAULT_EPS,
                       help=f"comparison tolerance (default {DEFAULT_EPS})")

    p = sub.add_parser("solve", help="compute answer sets of a program file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument("--trace", action="store_true",
                   help="assignments after each component evaluation round")
    p.add_argument("--max-iter", type=positive_int, default=DEFAULT_MAX_ITER,
                   help=f"rounds allowed per cyclic component (default {DEFAULT_MAX_ITER})")
    add_tol(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("parse-only", help="parse and ground, emit the ground program")
    p.add_argument("path")
    p.set_defaults(func=_cmd_parse_only)

    p = sub.add_parser("eval", help="evaluate a connective expression")
    p.add_argument("expression")
    add_tol(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("measure", help="truth and uncertainty degrees of literals")
    p.add_argument("values", nargs="+")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("order", help="compare two values in both preorders")
    p.add_argument("x")
    p.add_argument("y")
    add_tol(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("table", help="lattice table of (t, k) pairs")
    p.add_argument("--step", default="1/3",
                   help=f"lattice step 1/n, n from 1 to {MAX_STEP_DENOMINATOR} (default 1/3)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="numeric verification utilities")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("mean", help="quadrature mean of a value's density")
    q.add_argument("value")
    q = osub.add_parser("prob", help="Monte Carlo Prob(x <= y)")
    q.add_argument("x")
    q.add_argument("y")
    q.add_argument("--samples", type=int, default=100_000)
    q.add_argument("--seed", type=int, default=oracle_mod.DEFAULT_SEED)
    q = osub.add_parser("closure", help="operator closure of values")
    q.add_argument("values", nargs="+")
    q.add_argument("--depth", type=int, default=2)
    q.add_argument("--cap", type=int, default=100_000)
    p.set_defaults(func=_cmd_oracle)

    return top


# the status of a run whose reader closed stdout early: 128 + SIGPIPE, as a
# shell reports a process that signal ends
EXIT_BROKEN_PIPE = 141


def _drop_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that the
    flush at exit does not fail on the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except (FuzzyAspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
