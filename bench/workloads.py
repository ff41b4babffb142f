"""Seeded `.fasp` program generators for the benchmark workloads.

Each workload is a fixed *deck*: a list of program kinds and sizes that is
the same for every seed, so per-seed medians stay comparable.  The seed only
draws the free parameters (weights, graph edges, literal names, rule and
deck order).  Every program carries its own seed, so one failing program can
be regenerated on its own.

A program comes with the parameters the reference checker in
``reference.py`` needs to compute the expected answer without the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import path_strengths

WORKLOADS = ("chain", "closure", "loops")


@dataclass(frozen=True)
class Case:
    """One generated program and what its answer sets must be."""

    name: str
    seed: int
    source: str
    family: str  # "chain" | "closure" | "loops"
    params: dict


def chain(n: int, seed: int) -> Case:
    """``a0.`` then ``a_i <- a_{i-1}. [trfn(w)]`` with weights in [0.97, 1].

    Jacobi evaluation needs n passes over n rules, so the fixpoint loop does
    almost all the work; nothing is grounded or guessed.
    """
    rng = random.Random(seed)
    weights = [
        tuple(sorted(round(rng.uniform(0.97, 1.0), 6) for _ in range(4)))
        for _ in range(n - 1)
    ]
    lines = ["a0."]
    for i, w in enumerate(weights, 1):
        lines.append(f"a{i} <- a{i - 1}. [trfn({w[0]!r},{w[1]!r},{w[2]!r},{w[3]!r})]")
    return Case(f"chain-{n}", seed, "\n".join(lines) + "\n", "chain", {"weights": weights})


def closure(n: int, seed: int) -> Case:
    """Fuzzy transitive closure of a random digraph, plus a stratified default.

    The recursive rule grounds to n^3 instances while only about
    diameter-many passes are needed, so the grounder, large interpretations
    and the evolving naf trajectory do the work, with no guessing.  Graphs
    are redrawn until their propagation depth is ``_DEPTH`` passes: at
    p = 2/n the depth is bimodal (3-6 passes for near-acyclic graphs, 11-50
    with cycles), and a free draw would make the work per seed swing by 3x.
    The shallow mode keeps grounding and interpretation size, not the pass
    count, the bulk of the work.
    """
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n)]
    while True:
        edges = sorted(
            (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < 2.0 / n
        )
        if path_strengths(n, edges, 1e-9, _DEPTH + 1)[1] == _DEPTH:
            break
    blocked = sorted(
        (x, y) for x in range(n) for y in range(n) if rng.random() < 1.0 / n
    )
    lines = [f"node({v})." for v in nodes]
    lines += [f"edge({nodes[x]},{nodes[y]})." for x, y in edges]
    lines += [f"blocked({nodes[x]},{nodes[y]})." for x, y in blocked]
    lines += [
        "path(X,Y) <- edge(X,Y).",
        "path(X,Y) <- edge(X,Z), path(Z,Y). [ifn(0.9,1)]",
        "reach(X,Y) <- path(X,Y), not blocked(X,Y). [ifn(0.8,1)]",
    ]
    return Case(
        f"closure-{n}", seed, "\n".join(lines) + "\n", "closure",
        {"nodes": nodes, "edges": edges, "blocked": blocked},
    )


def loops(crisp: int, weights: tuple = (), seed: int = 0) -> Case:
    """Independent even loops: ``crisp`` two-valued ones, one weighted per w.

    A crisp loop ``a <- not b. b <- not a.`` has the two crisp answers; a
    weighted loop ``c <- not d. [ifn(w,w)]`` (and its mirror) has the unique
    answer c = d = w/(1+w).  Naf guessing, frozen fixpoints and verification
    do the work.
    """
    rng = random.Random(seed)
    names = rng.sample(range(100, 1000), 2 * (crisp + len(weights)))
    pairs = [(f"p{names[2 * i]}", f"q{names[2 * i + 1]}") for i in range(crisp)]
    wpairs = [
        (f"p{names[2 * j]}", f"q{names[2 * j + 1]}", w)
        for j, w in enumerate(weights, crisp)
    ]
    rules = []
    for a, b in pairs:
        rules += [f"{a} <- not {b}.", f"{b} <- not {a}."]
    for c, d, w in wpairs:
        rules += [f"{c} <- not {d}. [ifn({w!r},{w!r})]", f"{d} <- not {c}. [ifn({w!r},{w!r})]"]
    rng.shuffle(rules)
    label = "-".join([f"crisp{crisp}"] * bool(crisp) + [f"w{w}" for w in weights])
    return Case(
        f"loops-{label}", seed, "\n".join(rules) + "\n", "loops",
        {"crisp": pairs, "weighted": wpairs},
    )


# Deck shapes.  Ordered by cost, the programs form groups of equal cost, and
# p50 and p90 fall near the middle of a group, not on the step between two.
# No op but the one w=0.5 loop (131^2 guesses) runs much beyond half a
# second.  chain: sizes 42 to 118 in steps of 4 (N=200 takes 2 s and stays
# out).  closure: 3 graphs with 8 nodes, 5 with 9, 2 with 10; p50 among the
# 9s, p90 between the two 10s.  loops: p50 among the weighted w=0.6 and 0.8
# loops, p90 between the two crisp k=5 programs, w=0.5 above it.
_CHAIN_SIZES = tuple(range(42, 122, 4))
_CLOSURE_SIZES = (8, 8, 8, 9, 9, 9, 9, 9, 10, 10)
_DEPTH = 5
_LOOP_KINDS = (
    (3, ()), (3, ()), (3, ()), (3, ()), (4, ()), (4, ()), (4, ()), (4, ()),
    (0, (0.6,)), (0, (0.6,)), (0, (0.6,)), (0, (0.6,)), (0, (0.6,)),
    (0, (0.8,)), (0, (0.8,)), (0, (0.8,)), (0, (0.8,)),
    (5, ()), (5, ()), (0, (0.5,)),
)

# ROADMAP defects, run as probes outside the timed deck: item 3 (ten crisp
# loops exceed max_guesses) and item 4 (a crisp loop beside a w=0.6 loop
# finds no answer set although two exist).
KNOWN_DEFECTS = (("roadmap-3", (10, ())), ("roadmap-4", (1, (0.6,))))


def deck(workload: str, seed: int) -> list[Case]:
    """The timed programs of one workload, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain":
        cases = [chain(n, rng.randrange(2**32)) for n in _CHAIN_SIZES]
    elif workload == "closure":
        cases = [closure(n, rng.randrange(2**32)) for n in _CLOSURE_SIZES]
    elif workload == "loops":
        cases = [loops(k, ws, rng.randrange(2**32)) for k, ws in _LOOP_KINDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def warmup(workload: str, seed: int) -> Case:
    """A small program of the workload's family, solved before timing starts."""
    program_seed = random.Random(f"warmup:{workload}:{seed}").randrange(2**32)
    if workload == "chain":
        return chain(40, program_seed)
    if workload == "closure":
        return closure(5, program_seed)
    return loops(3, (), program_seed)


def known_defects(seed: int) -> list[tuple[str, Case]]:
    rng = random.Random(f"defects:{seed}")
    return [(tag, loops(k, ws, rng.randrange(2**32))) for tag, (k, ws) in KNOWN_DEFECTS]
