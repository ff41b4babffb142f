"""Command-line interface.

Subcommands: solve, eval, order, measure, table, oracle, parse-only.
Exit codes for ``solve``: 0 when at least one answer set exists, 1 when
none does, 2 on parse/ground errors and other reported errors (such as too
many naf guesses).  Other subcommands use 0/2.

Every fuzzy value argument (of eval, measure, order and oracle) is read by
the program parser's grammar, so a malformed value or number is reported
with its column and exit code 2, as in a program file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import oracle as oracle_mod
from .errors import FuzzyAspError, ParseError
from .connectives import conj, disj, kagg, naf, negate
from .measures import Rel, compare, measure
from .program import _Parser, ground, parse, parse_value
from .solver import solve
from .table import lattice_table
from .truthspace import DEFAULT_EPS, FuzzyTruth


def _quad_text(v: FuzzyTruth) -> str:
    return f"trfn({v.a!r},{v.b!r},{v.c!r},{v.d!r})"


def _measure_text(v: FuzzyTruth) -> str:
    m = measure(v)
    return f"(t={m.t!r}, k={m.k!r})"


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
        while self.cur.text in ("!", "not"):
            prefixes.append(negate if self._advance().text == "!" else naf)
        if self.cur.text == "(":
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


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        source = fh.read()
    report = solve(
        parse(source),
        eps=args.tol,
        max_iter=args.max_iter,
        collect_trace=args.trace,
    )

    if args.json:
        print(json.dumps(_report_json(report, args.trace), indent=2))
    else:
        for n, interp in enumerate(report.answer_sets, 1):
            print(f"answer set {n}:")
            for name, v in _sorted_by_name(interp):
                print(f"  {name} : {_quad_text(v)} {_measure_text(v)}")
        statuses = ", ".join(c.status.value for c in report.candidates) or "none"
        print(f"candidates: {statuses}")
        print(f"iterations: {report.iterations}")
        if report.guess_depth is not None:
            print(f"guess depth: {report.guess_depth}")
        if args.trace:
            for passno, snapshot in enumerate(_named_trace(report.trace), 1):
                print(f"pass {passno}:")
                for name, v in sorted(snapshot, key=lambda item: item[0]):
                    print(f"  {name} : {_quad_text(v)}")
    return 0 if report.answer_sets else 1


def _sorted_by_name(interp) -> list:
    """(rendered literal, value) pairs of an interpretation, sorted by name."""
    return sorted(zip(interp.table.names, interp.values), key=lambda item: item[0])


def _named_trace(trace: list) -> list:
    """Trace snapshots as (rendered literal, value) lists; each literal is rendered once.

    Every snapshot of one solve holds the same literals in the same order.
    """
    if not trace:
        return []
    names = [literal.render() for literal in trace[0]]
    return [list(zip(names, snapshot.values())) for snapshot in trace]


def _value_json(v: FuzzyTruth) -> dict:
    m = measure(v)
    return {
        "a": v.a, "b": v.b, "c": v.c, "d": v.d,
        "truncated": v.truncated, "t": m.t, "k": m.k,
    }


def _report_json(report, with_trace: bool) -> dict:
    doc = {
        "answer_sets": [
            {name: _value_json(v) for name, v in _sorted_by_name(interp)}
            for interp in report.answer_sets
        ],
        "candidates": [
            {
                "status": c.status.value,
                "detail": None if c.detail is None else str(c.detail),
            }
            for c in report.candidates
        ],
        "iterations": report.iterations,
        "guess_depth": report.guess_depth,
    }
    if with_trace:
        doc["trace"] = [
            {name: [v.a, v.b, v.c, v.d, v.truncated] for name, v in snapshot}
            for snapshot in _named_trace(report.trace)
        ]
    return doc


def _cmd_parse_only(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        source = fh.read()
    print(ground(parse(source)).render(), end="")
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


def _parse_step(text: str) -> int:
    m = re.fullmatch(r"1\s*/\s*(\d+)", text.strip())
    if not m or int(m.group(1)) < 1:
        raise ParseError(f"step must be 1/n with integer n >= 1, got {text!r}")
    return int(m.group(1))


def _cmd_table(args) -> int:
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
    if args.oracle_cmd == "mean":
        print(repr(oracle_mod.integrate_density_mean(parse_value(args.value))))
    elif args.oracle_cmd == "prob":
        est = oracle_mod.prob_leq(
            parse_value(args.x), parse_value(args.y),
            samples=args.samples, seed=args.seed,
        )
        print(f"estimate={est.estimate!r} stderr={est.stderr!r} samples={est.samples}")
    else:
        values = [parse_value(t) for t in args.values]
        closure = oracle_mod.closure_enumerate(values, args.depth, cap=args.cap)
        for v in closure:
            print(v.render())
        print(f"size: {len(closure)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fuzzyasp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_EPS,
                       help="comparison tolerance (default 1e-9)")

    p = sub.add_parser("solve", help="compute answer sets of a program file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument("--trace", action="store_true",
                   help="assignments after each component evaluation round")
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="rounds allowed per cyclic component (default 10000)")
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
    p.add_argument("--step", default="1/3", help="lattice step 1/n (default 1/3)")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FuzzyAspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
