"""Expected answers for the benchmark programs, computed without fuzzyasp.

``check(case, code, doc)`` compares one `solve --json` result with what the
generator's parameters imply and returns None, or the reason it is wrong.
The expected values come from closed forms of each family:

* chain: the componentwise product of the weights along the chain;
* closure: p_xy = 1 - (1 - e_xy) * prod_z (1 - 0.9 e_xz p_zy), solved from
  p = 0 upward; path is ifn(p,1), unblocked reach ifn(0.8p,1), blocked
  reach ifn(0,0), and unmentioned edges and blocks stay ifn(0,1);
* loops: each crisp pair holds exact points a = 1 - b, each weighted pair
  c = d = w/(1+w), and all 2^k crisp choices are reported.
"""

from __future__ import annotations

import itertools
import math

# Chain values are products computed in the solver's own order; closure and
# weighted-loop values are limits the solver stops short of by its 1e-9
# convergence test, amplified by the contraction factor.
EXACT_TOL = 1e-9
LIMIT_TOL = 1e-6

UNKNOWN = (0.0, 0.0, 1.0, 1.0)


def point(x: float) -> tuple:
    return (x, x, x, x)


def interval(lo: float, hi: float) -> tuple:
    return (lo, lo, hi, hi)


def chain_values(params: dict) -> dict:
    value = point(1.0)
    expected = {"a0": value}
    for i, w in enumerate(params["weights"], 1):
        value = tuple(v * x for v, x in zip(value, w))
        expected[f"a{i}"] = value
    return expected


def path_strengths(
    n: int, edges, tol: float = 1e-15, limit: int = 100_000
) -> tuple[list, int]:
    """Least solution p of the closure recurrence, and the Jacobi passes taken.

    Iterates from p = 0 until no p_xy moves by more than ``tol``, for at
    most ``limit`` passes.  With the solver's own tolerance, 1e-9, the pass
    count is the graph's propagation depth.
    """
    edge = [[0.0] * n for _ in range(n)]
    for x, y in edges:
        edge[x][y] = 1.0
    p = [[0.0] * n for _ in range(n)]
    for passno in range(1, limit + 1):
        new = [
            [
                1.0 - (1.0 - edge[x][y]) * math.prod(
                    1.0 - 0.9 * edge[x][z] * p[z][y] for z in range(n)
                )
                for y in range(n)
            ]
            for x in range(n)
        ]
        delta = max(abs(new[x][y] - p[x][y]) for x in range(n) for y in range(n))
        p = new
        if delta <= tol:
            break
    return p, passno


def closure_values(params: dict) -> dict:
    nodes = params["nodes"]
    n = len(nodes)
    edges = set(params["edges"])
    blocked = set(params["blocked"])
    p, _ = path_strengths(n, edges)
    expected = {f"node({v})": point(1.0) for v in nodes}
    for x, y in itertools.product(range(n), repeat=2):
        args = f"({nodes[x]},{nodes[y]})"
        expected["edge" + args] = point(1.0) if (x, y) in edges else UNKNOWN
        expected["blocked" + args] = point(1.0) if (x, y) in blocked else UNKNOWN
        expected["path" + args] = interval(p[x][y], 1.0)
        expected["reach" + args] = (
            point(0.0) if (x, y) in blocked else interval(0.8 * p[x][y], 1.0)
        )
    return expected


def _params(entry: dict) -> tuple:
    return (entry["a"], entry["b"], entry["c"], entry["d"])


def _compare(got: dict, expected: dict, tol: float) -> str | None:
    if set(got) != set(expected):
        extra = sorted(set(got) - set(expected))[:3]
        missing = sorted(set(expected) - set(got))[:3]
        return f"literal set differs: extra {extra}, missing {missing}"
    for literal, want in expected.items():
        have = _params(got[literal])
        if any(abs(h - w) > tol for h, w in zip(have, want)):
            return f"{literal} = {have}, expected {want}"
    return None


def _check_single(doc: dict, expected: dict, tol: float) -> str | None:
    sets = doc["answer_sets"]
    if len(sets) != 1:
        return f"{len(sets)} answer sets, expected 1"
    return _compare(sets[0], expected, tol)


def _is_point(params: tuple, x: float, tol: float) -> bool:
    return all(abs(p - x) <= tol for p in params)


def _check_loops(doc: dict, params: dict) -> str | None:
    crisp, weighted = params["crisp"], params["weighted"]
    literals = {name for pair in crisp for name in pair}
    literals |= {name for c, d, _ in weighted for name in (c, d)}
    choices = set()
    for n, answer in enumerate(doc["answer_sets"], 1):
        if set(answer) != literals:
            return f"answer set {n}: literal set differs"
        choice = []
        for a, b in crisp:
            va, vb = _params(answer[a]), _params(answer[b])
            x = va[0]
            if not (_is_point(va, x, EXACT_TOL) and _is_point(vb, 1.0 - x, EXACT_TOL)):
                return f"answer set {n}: {a} = {va}, {b} = {vb} is not a = 1 - b"
            choice.append(x)
        for c, d, w in weighted:
            want = w / (1.0 + w)
            for lit in (c, d):
                if not _is_point(_params(answer[lit]), want, LIMIT_TOL):
                    return f"answer set {n}: {lit} = {_params(answer[lit])}, expected {want}"
        if all(x in (0.0, 1.0) for x in choice):
            choices.add(tuple(choice))
    missing = 2 ** len(crisp) - len(choices)
    if missing:
        return f"{missing} of {2 ** len(crisp)} crisp answer sets missing"
    return None


def check(case, code, doc: dict | None) -> str | None:
    """None when the CLI result is right for ``case``, else the reason."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if doc is None:
        return "no JSON output"
    if case.family == "chain":
        return _check_single(doc, chain_values(case.params), EXACT_TOL)
    if case.family == "closure":
        return _check_single(doc, closure_values(case.params), LIMIT_TOL)
    return _check_loops(doc, case.params)
