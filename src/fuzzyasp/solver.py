"""Declarative semantics and answer-set computation.

An interpretation maps every ground literal to a truth value, defaulting to
the unknown state ifn(0,1).  A rule fires its head to body-fold AND weight;
heads with several rules combine by disjunction in program order; when both
a literal and its complement have rules the more certain side wins via
knowledge aggregation.  Answer sets are interpretations that reproduce
themselves as the fixpoint of their own reduct.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

# conj is unused here, but bench/tracing.py counts its calls through this name
from .connectives import _finite, _product, conj, kagg, naf, negate  # noqa: F401
from .errors import (
    AggregationTie,
    ClosureTooLarge,
    GuessLimitExceeded,
    Inconsistent,
    MonotonicityError,
    NonConvergent,
    OrderViolation,
)
from .measures import truth_degree, uncertainty_degree
from .program import (
    LIT,
    NAF,
    VALUE,
    Component,
    FuzzyTruth,
    GroundProgram,
    Literal,
    LiteralTable,
    Program,
    ground,
)
from .truthspace import DEFAULT_EPS, TRUE, UNKNOWN, equal

DEFAULT_MAX_ITER = 10_000


class Interpretation:
    """Values of ground literals; every other literal is unknown.

    Holds a :class:`~fuzzyasp.program.LiteralTable` and ``values``, a list
    indexed by its ids.  The solver's interpretations share their ground
    program's table and are compared and checked id by id;
    ``Interpretation(mapping)`` numbers the mapping's own literals.
    ``Literal`` keys come back only through :meth:`value`,
    :attr:`assignment`, :meth:`items` and the text form.

    ``_frozen_at`` is set only by :func:`solve`, and only while it runs:
    the frozen naf assignment (a dict from each naf literal id to its value)
    at which these values are the frozen fixpoint of the program being
    solved (a guess, or the program's own naf values when it has no naf
    cycle), so that :func:`verify_answer_set` need not compute that
    fixpoint again.
    """

    __slots__ = ("table", "values", "_frozen_at")

    def __init__(self, assignment=None):
        assignment = dict(assignment or {})
        self.table = LiteralTable(assignment)
        self.values = list(assignment.values())
        self._frozen_at = None

    @classmethod
    def of(cls, table: LiteralTable, values: list) -> Interpretation:
        """The interpretation giving ``values[i]`` to ``table.literals[i]``."""
        self = cls.__new__(cls)
        self.table, self.values, self._frozen_at = table, values, None
        return self

    def value(self, literal: Literal) -> FuzzyTruth:
        i = self.table.ids.get(literal)
        return UNKNOWN if i is None else self.values[i]

    @property
    def assignment(self) -> dict:
        """A new dict from each literal of the table to its value."""
        return dict(zip(self.table.literals, self.values))

    def items(self):
        return self.assignment.items()

    def __repr__(self):
        inner = ", ".join(f"{n}: {v}" for n, v in zip(self.table.names, self.values))
        return "{" + inner + "}"


def interpretations_equal(
    x: Interpretation, y: Interpretation, eps: float = DEFAULT_EPS
) -> bool:
    """Per-literal equality within ``eps`` over the union of assigned literals.

    Literals are compared in id order, ``x``'s table before ``y``'s.
    """
    if x.table is y.table:
        return all(equal(p, q, eps) for p, q in zip(x.values, y.values))
    literals = dict.fromkeys(x.table.literals)
    literals.update(dict.fromkeys(y.table.literals))
    return all(equal(x.value(l), y.value(l), eps) for l in literals)


def is_inconsistent(i: Interpretation, eps: float = DEFAULT_EPS):
    """First atom whose two polarities are equally certain yet contradictory.

    Returns the offending atom, or None.
    """
    return _contradiction(i.table, i.values, range(len(i.values)), eps)


def _contradiction(table: LiteralTable, values: list, ids, eps: float):
    """:func:`is_inconsistent` over the atoms of the literals ``ids`` only."""
    complement = table.complement
    seen = set()
    for i in ids:
        c = complement[i]
        if c < 0 or c in seen:
            continue
        seen.add(i)
        vp, vn = values[i], values[c]
        if table.literals[i].negated:
            vp, vn = vn, vp
        if abs(uncertainty_degree(vp) - uncertainty_degree(vn)) <= eps and (
            abs(truth_degree(vp) - (1.0 - truth_degree(vn))) > eps
        ):
            return table.literals[i].atom
    return None


def _body(values: list, body: tuple, weight: FuzzyTruth, naf_values: dict | None) -> tuple:
    """The value of a compiled rule body, as its ``(a, b, c, d)`` tuple.

    The left-to-right conjunction fold of the body items, then the weight:
    a literal reads ``values``, ``not b`` reads ``naf_values[b]`` when they
    are given (frozen naf) and naf of ``values[b]`` otherwise, and an
    inline value is itself; an empty body is TRUE.  Order matters:
    conjunction with truncated operands is not associative.

    This is the solver's one body kernel.  The conjunction is folded on
    float parameters: the restricted form of
    :func:`~fuzzyasp.connectives.conj` in place, with the same bits and the
    same zero rule, and its general form (which raises OrderViolation on
    overflow) only when an operand is truncated.
    """
    a = None
    for kind, x in body:
        if kind == LIT:
            ya, yb, yc, yd = values[x]
        elif kind == NAF:
            ya, yb, yc, yd = naf(values[x]) if naf_values is None else naf_values[x]
        else:
            ya, yb, yc, yd = x
        if a is None:
            a, b, c, d = ya, yb, yc, yd
        elif 0.0 <= a and 0.0 <= ya and d <= 1.0 and yd <= 1.0:
            a, b, c, d = a * ya, b * yb, c * yc or b * yb, d * yd or a * ya
        else:
            a, b, c, d = _finite(*_product(a, b, c, d, ya, yb, yc, yd))
    if a is None:  # an empty body is TRUE
        a = b = c = d = 1.0
    ya, yb, yc, yd = weight
    if 0.0 <= a and 0.0 <= ya and d <= 1.0 and yd <= 1.0:
        return a * ya, b * yb, c * yc or b * yb, d * yd or a * ya
    return _finite(*_product(a, b, c, d, ya, yb, yc, yd))


def _satisfied(head: FuzzyTruth, body: FuzzyTruth, eps: float) -> bool:
    """A rule holds: its head equals its body value or strictly exceeds it in either order."""
    if equal(head, body, eps):
        return True
    if uncertainty_degree(head) < uncertainty_degree(body) - eps:
        return True
    return truth_degree(head) > truth_degree(body) + eps


def _computed(values: list, value: tuple, weight: None, naf_values) -> tuple:
    """The body value a rule already has: an ``evaluate`` of :func:`_contribution`."""
    return value


def _contribution(values: list, rules, naf_values, evaluate=_body) -> FuzzyTruth:
    """Disjunction fold (program order) of the body values of one head's rules.

    Each rule's ``(a, b, c, d)`` is ``evaluate(values, *rule, naf_values)``:
    :func:`_body` of its ``(body, weight)`` in the fixpoint, and
    :func:`_computed` of a ``(body value, None)`` pair in the support check
    of :func:`verify_answer_set`, which folds the values its model check
    computed.  The restricted form of
    :func:`~fuzzyasp.connectives.disj` is taken in place on those
    parameters, so one value is built per head; a truncated operand takes
    its general form.
    """
    a = None
    for body, weight in rules:
        ya, yb, yc, yd = evaluate(values, body, weight, naf_values)
        if a is None:
            a, b, c, d = ya, yb, yc, yd
        elif 0.0 <= a and 0.0 <= ya and d <= 1.0 and yd <= 1.0:
            a, b, c, d = (
                1.0 - (1.0 - a) * (1.0 - ya),
                1.0 - (1.0 - b) * (1.0 - yb),
                1.0 - (1.0 - c) * (1.0 - yc),
                1.0 - (1.0 - d) * (1.0 - yd),
            )
        else:
            pa, pb, pc, pd = _product(
                1.0 - d, 1.0 - c, 1.0 - b, 1.0 - a,
                1.0 - yd, 1.0 - yc, 1.0 - yb, 1.0 - ya,
            )
            a, b, c, d = _finite(1.0 - pd, 1.0 - pc, 1.0 - pb, 1.0 - pa)
    return FuzzyTruth(a, b, c, d)


def _target(values: list, own, against, naf_values, eps: float, evaluate=_body) -> FuzzyTruth:
    """The supported value for a head literal with compiled rules ``own``.

    The complement's combined evidence (its rules, ``against``) is
    aggregated in only when the complement has rules of its own;
    AggregationTie propagates.  ``evaluate`` is as in :func:`_contribution`.
    """
    value = _contribution(values, own, naf_values, evaluate)
    if against:
        return kagg(value, negate(_contribution(values, against, naf_values, evaluate)), eps)
    return value


@dataclass(frozen=True)
class Violation:
    """One failed supportedness condition."""

    literal: Literal
    condition: int
    expected: FuzzyTruth | None = None
    actual: FuzzyTruth | None = None

    def __repr__(self):
        if self.expected is None:
            return f"condition {self.condition} at {self.literal}: aggregation tie"
        return (
            f"condition {self.condition} at {self.literal}: "
            f"expected {self.expected}, got {self.actual}"
        )


def _unsupported(gp: GroundProgram, values: list, eps: float, computed: list) -> Violation | None:
    """First supportedness violation, heads in ``gp.heads`` order, or None.

    ``computed[h]`` holds a ``(body value, None)`` pair for each of literal
    h's rules in program order, the values :func:`verify_answer_set`'s
    model check kept, which :func:`_computed` hands to :func:`_target`.
    Condition 1 covers single-rule heads, condition 2 the disjunctive
    combination of several rules, condition 3 the aggregation against a
    complement that also has rules.
    """
    complement = gp.table.complement
    for head in gp.heads:
        own = computed[head]
        against = computed[complement[head]] if complement[head] >= 0 else ()
        condition = 3 if against else (1 if len(own) == 1 else 2)
        literal = gp.literals[head]
        try:
            expected = _target(values, own, against, None, eps, _computed)
        except AggregationTie:
            return Violation(literal, 3)
        if not equal(values[head], expected, eps):
            return Violation(literal, condition, expected, values[head])
    return None


def _fixpoint(
    gp: GroundProgram,
    eps: float,
    max_iter: int,
    *,
    naf_values: dict | None = None,
    trace: list | None = None,
    report: SolveReport | None = None,
) -> Interpretation:
    """Fixpoint of the supported-value operator, one component at a time.

    Components come dependencies first, so every literal a component reads
    from outside itself is already final when it is evaluated.  Without
    ``naf_values`` each naf item reads the current interpretation and the
    order is ``gp.components``, in which naf is a dependency; with it each
    item ``not b`` takes the value ``naf_values[b]``, a mapping from every
    naf literal id of ``gp``, and the order is ``gp.frozen_components``, in
    which naf is none.

    An acyclic component is evaluated once; a cyclic one is iterated
    Jacobi-style over its own heads until they are stable within ``eps``,
    for at most ``max_iter`` rounds; it is NonConvergent past that.  Every
    evaluation of a component is one round: it counts in
    ``report.iterations`` and appends a copy of the whole interpretation,
    on ``gp``'s literal table, to ``trace``.  A round whose products
    overflow (OrderViolation) is not completed: the component, cyclic or
    not, is NonConvergent.  An aggregation tie raises Inconsistent.

    A component's own naf cycle (``naf_inside``, never set when naf is
    frozen) decides how it is iterated.  With one, its naf items move with
    its heads, as in the operator trajectory of a program with naf, and a
    state it revisits is non-convergent.  Every other component reads naf
    values that are already final, so it is evaluated as a frozen one: no
    round may raise a head's uncertainty (MonotonicityError; an acyclic one
    starts from unknown, the least certain value, and has one round), and
    a fixpoint holding a contradictory atom raises Inconsistent.  So the
    fixpoint of a program without a naf cycle is the frozen fixpoint at its
    own naf values, with the same rounds and bits.

    Every literal of ``gp``, naf-only ones included, starts unknown, so all
    fixpoints of one program list the same literals.
    """
    values = [UNKNOWN] * len(gp.literals)
    for component in gp.components if naf_values is None else gp.frozen_components:
        _evaluate(gp, component, values, naf_values, eps, max_iter, trace, report)
    return Interpretation.of(gp.table, values)


def _evaluate(
    gp: GroundProgram,
    component: Component,
    values: list,
    naf_values,
    eps: float,
    max_iter: int,
    trace: list | None = None,
    report: SolveReport | None = None,
) -> None:
    """Evaluate one component of :func:`_fixpoint` in place, in ``values``.

    Its heads start unknown; every literal it reads from outside itself
    must already hold its final value.  Raises as :func:`_fixpoint` does.
    """
    heads, cyclic, naf_inside, plan = component
    if cyclic:  # an acyclic component's one round reads none of its heads
        for head in heads:
            values[head] = UNKNOWN
    # states of a naf cycle's trajectory so far
    seen = {UNKNOWN * len(heads)} if naf_inside else None
    for rounds in range(1, (max_iter if cyclic else 1) + 1):
        new = []
        for head, own, against in plan:
            try:
                new.append(_target(values, own, against, naf_values, eps))
            except AggregationTie as exc:
                raise Inconsistent(gp.literals[head].atom) from exc
            except OrderViolation as exc:
                raise NonConvergent(rounds) from exc
        previous = [values[h] for h in heads] if cyclic else None
        for head, value in zip(heads, new):
            values[head] = value
        if report is not None:
            report.iterations += 1
        if trace is not None:
            trace.append(Interpretation.of(gp.table, list(values)))
        if not cyclic:
            break  # its first round started from unknown: nothing to compare
        if not naf_inside:
            for head, old, value in zip(heads, previous, new):
                if uncertainty_degree(value) > uncertainty_degree(old) + eps:
                    raise MonotonicityError(
                        f"uncertainty increased at {gp.literals[head]}: {old} -> {value}"
                    )
        if all(equal(old, value, eps) for old, value in zip(previous, new)):
            break
        if naf_inside:
            state = tuple(round(p, 12) for v in new for p in v)
            if state in seen:
                raise NonConvergent(rounds)
            seen.add(state)
    else:
        raise NonConvergent(max_iter)
    if not naf_inside:
        atom = _contradiction(gp.table, values, heads, eps)
        if atom is not None:
            raise Inconsistent(atom)


def kmin_supported_model(
    gp: GroundProgram,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    naf_values: dict | None = None,
) -> Interpretation:
    """Fixpoint of the supported-value operator on a positive program.

    Starts from the all-unknown interpretation; every round must leave each
    literal at least as certain as before (MonotonicityError otherwise).
    Raises NonConvergent past ``max_iter`` rounds of one cyclic component
    or when a product overflows, and Inconsistent when the fixpoint assigns
    contradictory equally-certain complements or an aggregation ties.

    ``naf_values`` is a frozen naf assignment: a mapping from each naf
    literal id b of ``gp`` to the value its ``not b`` items take (a list
    indexed by literal id works too; no other id is read).  ``gp`` is then
    evaluated as the positive program with those items frozen, without
    building it.  Without it ``gp`` must be positive.
    """
    if naf_values is None and gp.has_naf:
        raise ValueError("kmin_supported_model requires a positive program")
    return _fixpoint(gp, eps, max_iter, naf_values=naf_values)


class Status(enum.Enum):
    ANSWER_SET = "answer-set"
    NOT_MODEL = "not-model"
    NOT_SUPPORTED = "not-supported"
    NOT_K_MINIMAL = "not-k-minimal"
    INCONSISTENT = "inconsistent"
    NON_CONVERGENT = "non-convergent"


@dataclass
class CandidateResult:
    interpretation: Interpretation | None
    status: Status
    detail: object = None


@dataclass
class SolveReport:
    """What :func:`solve` found and did.

    ``iterations`` counts the component evaluation rounds of the first
    fixpoint (naf items reading the current values, so an operator
    trajectory in each component with a naf cycle), summed over
    components; ``trace`` holds one :class:`Interpretation` per round, each
    on the ground program's literal table.
    """

    answer_sets: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    iterations: int = 0
    trace: list | None = None
    guess_depth: int | None = None


def verify_answer_set(
    gp: GroundProgram,
    i: Interpretation,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CandidateResult:
    """Full Definition-style check of one candidate.

    Answer set iff the candidate is a consistent supported model and equals
    the fixpoint of its own reduct; otherwise the specific failure.  The
    reduct is ``gp`` with the frozen naf assignment ``{b: naf(I(b))}`` over
    ``gp.naf_ids``.  When :func:`solve` computed the candidate itself as the
    fixpoint of ``gp`` frozen at that very assignment (the fixpoint of a
    program without a naf cycle, or a guess fixpoint whose own naf values
    are its guess), that fixpoint is the candidate and is not computed again;
    every check still runs.  A failed rule is reported from the
    ``gp.rules`` view.

    The checks run in this order, and the first failure is the result:
    consistency (:func:`is_inconsistent`), the model check of each rule in
    program order (the head equals its body value or exceeds it in truth or
    in certainty), support (a :class:`Violation`, see
    :func:`_unsupported`), and k-minimality against the reduct's fixpoint.
    Each rule body is evaluated once: the model check keeps its value, and
    the support check folds the kept values of each head's rules.
    """
    atom = is_inconsistent(i, eps)
    if atom is not None:
        return CandidateResult(i, Status.INCONSISTENT, atom)
    values = i.values if i.table is gp.table else [i.value(l) for l in gp.literals]
    computed = [[] for _ in values]  # per head, (body value, None) per rule
    for pos, (head, body, weight) in enumerate(gp.compiled):
        value = _body(values, body, weight, None)
        if not _satisfied(values[head], value, eps):
            return CandidateResult(i, Status.NOT_MODEL, gp.rules[pos])
        computed[head].append((value, None))
    violation = _unsupported(gp, values, eps, computed)
    if violation is not None:
        return CandidateResult(i, Status.NOT_SUPPORTED, violation)
    frozen = {b: naf(values[b]) for b in gp.naf_ids}
    # a naf value is 1 - b, never -0.0: values that are == have equal bits
    if i._frozen_at == frozen:
        fix = i
    else:
        try:
            fix = kmin_supported_model(gp, eps=eps, max_iter=max_iter, naf_values=frozen)
        except Inconsistent as exc:
            return CandidateResult(i, Status.INCONSISTENT, exc.atom)
        except NonConvergent:
            return CandidateResult(i, Status.NON_CONVERGENT, None)
    if not interpretations_equal(fix, i, eps):
        return CandidateResult(i, Status.NOT_K_MINIMAL, fix)
    return CandidateResult(i, Status.ANSWER_SET)


def _naf_guess_domain(gp: GroundProgram, depth: int, slots: int, max_guesses: int):
    """Possible naf values: image of the weight closure under naf.

    The seeds, TRUE, UNKNOWN and each rule's weight and inline values, are
    taken in program order, not hash order.  The closure is taken at
    operator depth ``depth``, or at the greatest lower one whose closure
    stays within the closure cap and whose ``len(domain) ** slots`` fits
    ``max_guesses``; but it is never lowered below 1 for the second reason:
    there GuessLimitExceeded is raised instead.  Returns (domain, depth
    used); depth 0 means the bare seeds.

    The closure and its naf image are built once, level by level from
    :func:`~fuzzyasp.oracle.closure_levels`: the closure at depth d is the
    first part of the one at d + 1, so its domain is the first part of that
    domain.  From level 2 on, the first domain value past ``max_guesses``
    or a ClosureTooLarge ends the run, and the domain is cut back to the
    level before.  Level 1 always runs to its end, so the count in
    GuessLimitExceeded is that of depth 1 (or of the seeds, when level 1
    exceeds the cap).  Raises OracleArgumentError unless 0 <= depth <= 4.
    """
    from .oracle import closure_levels

    seeds = dict.fromkeys((TRUE, UNKNOWN))
    for _, body, weight in gp.compiled:
        seeds[weight] = None
        for kind, x in body:
            if kind == VALUE:
                seeds[x] = None
    domain: dict[float, FuzzyTruth] = {}
    if depth != 0:
        level = start = 0  # the level being read, and len(domain) as it started
        end = None  # the level that ended the run early
        bs = set()  # the b of each value read: the domain key follows from it
        try:
            for level_of_v, v in closure_levels(seeds, depth):
                if level_of_v > level:
                    level, start = level_of_v, len(domain)
                if v.b in bs:
                    continue
                bs.add(v.b)
                key = round(1.0 - v.b, 9)
                if key not in domain:
                    domain[key] = naf(v)
                    if level >= 2 and len(domain) ** slots > max_guesses:
                        end = level
                        break
        except ClosureTooLarge:
            # raised in the level of the last value yielded, or in level 1
            end = max(level, 1)
        if end is not None:
            depth = end - 1
            domain = dict(itertools.islice(domain.items(), start))
    if depth == 0:
        domain = {}
        for v in seeds:
            domain.setdefault(round(1.0 - v.b, 9), naf(v))
    guesses = len(domain) ** slots
    if guesses > max_guesses:
        raise GuessLimitExceeded(f"{guesses} naf guesses exceed max_guesses={max_guesses}")
    return list(domain.values()), depth


def _self_consistent_guesses(gp: GroundProgram, domain: list, eps: float, max_iter: int):
    """Every guess over ``domain`` whose frozen fixpoint reproduces it.

    A guess gives each naf literal id of ``gp`` a value of ``domain``; it is
    kept when its frozen fixpoint exists (no Inconsistent, NonConvergent or
    MonotonicityError) and ``equal`` within ``eps`` puts each literal's naf
    value at its guess.  Returns ``(fixpoint, guess)`` pairs, the guess a
    dict in ``gp.naf_ids`` order, in the order of
    ``itertools.product(domain, repeat=len(gp.naf_ids))``.

    A frozen component's value depends only on earlier components and on
    the naf values it reads, so the guesses are searched one component of
    ``gp.frozen_components`` at a time, depth first, over one shared value
    list: the component that first reads ``not b`` chooses b's value.  When
    b has no rules or an earlier component, its value is final there and
    only the domain values equal to its naf are kept; otherwise every value
    is tried and checked once b's own component has been evaluated.  The
    components are walked in the order of the ``gp.components`` they lie
    in, frozen order within each, so b comes before the component reading
    ``not b`` unless a naf cycle runs through both: only there is b
    guessed.  A branch ends at the first component that raises or fails a
    check, so each component is evaluated once per choice of the naf
    values read up to it, not once per whole guess.
    """
    # a frozen component lies inside one component of ``gp.components``,
    # and the sort is stable
    outer = {h: n for n, component in enumerate(gp.components) for h in component.heads}
    components = sorted(gp.frozen_components, key=lambda c: outer[c.heads[0]])
    where = {h: k for k, component in enumerate(components) for h in component.heads}
    reads: list[list] = [[] for _ in components]  # per component: (id, guessed)
    checks: list[list] = [[] for _ in components]  # guessed ids it makes final
    first = set()
    for k, (_, _, _, plan) in enumerate(components):
        # a complement whose rules a head aggregates is a head of k too
        for _, own, _ in plan:
            for body, _ in own:
                for kind, b in body:
                    if kind == NAF and b not in first:
                        first.add(b)
                        guessed = where.get(b, -1) >= k
                        reads[k].append((b, guessed))
                        if guessed:
                            checks[where[b]].append(b)

    everything = range(len(domain))
    # a naf value is a point (a = b = c = d), so ``equal`` to one compares a
    points = [d.a for d in domain]
    values = [UNKNOWN] * len(gp.literals)
    chosen: dict = {}  # naf id -> its domain index on the current branch
    frozen: dict = {}  # naf id -> its value on the current branch

    def choices(k: int):
        options = []
        for b, guessed in reads[k]:
            if guessed:
                options.append(everything)
            else:
                t = naf(values[b]).a
                options.append([i for i, p in enumerate(points) if abs(t - p) <= eps])
        return itertools.product(*options)

    accepted = []
    stack = [choices(0)]  # one iterator of choices per component on the branch
    while stack:
        k = len(stack) - 1
        combo = next(stack[k], None)
        if combo is None:
            stack.pop()
            continue
        for (b, _), i in zip(reads[k], combo):
            chosen[b], frozen[b] = i, domain[i]
        try:
            _evaluate(gp, components[k], values, frozen, eps, max_iter)
        except (Inconsistent, NonConvergent, MonotonicityError):
            continue
        if not all(equal(naf(values[b]), frozen[b], eps) for b in checks[k]):
            continue
        if k + 1 < len(components):
            stack.append(choices(k + 1))
            continue
        key = tuple(chosen[b] for b in gp.naf_ids)
        guess = {b: frozen[b] for b in gp.naf_ids}
        accepted.append((key, Interpretation.of(gp.table, list(values)), guess))
    accepted.sort(key=lambda found: found[0])
    return [(fix, guess) for _, fix, guess in accepted]


def solve(
    program: Program | GroundProgram,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    guess_depth: int = 3,
    max_guesses: int = 100_000,
    collect_trace: bool = False,
) -> SolveReport:
    """Ground, generate candidates, verify each, and report.

    Every fixpoint is computed component by component: the ground program's
    head literals are condensed into strongly connected components of the
    dependency graph (positive, naf and complement edges) and evaluated
    bottom-up, an acyclic component once and a cyclic one Jacobi-style
    until stable.  ``report.iterations`` sums these evaluation rounds,
    ``collect_trace`` keeps one snapshot per round, and ``max_iter`` caps
    the rounds of each cyclic component.

    The first candidate is the fixpoint in that order, each naf item
    reading the current interpretation.  Only a component with a naf cycle
    inside is iterated as an operator trajectory; every other one reads
    final naf values and is evaluated as with naf frozen, so a program
    without a naf cycle (positive or stratified) has this fixpoint as its
    only candidate.  When a dependency cycle runs through naf, the
    self-consistent guesses follow.  A guess is a frozen naf assignment,
    from each naf literal id to a value of the naf image of the operator
    closure of the program weights (depth ``guess_depth``, 0 to 4, else
    OracleArgumentError; lowered while the closure exceeds its cap or the
    joint guesses, ``len(domain) ** len(gp.naf_ids)``, exceed
    ``max_guesses``; GuessLimitExceeded when even depth 1 does not fit,
    see :func:`_naf_guess_domain`).  Its
    frozen fixpoint, evaluated in the finer order where naf is no
    dependency, is a candidate when its own naf values are the guess; one
    that is inconsistent, does not converge or raises some head's
    uncertainty is none.  The guesses are not enumerated jointly: they are
    searched one frozen component at a time, a naf literal guessed only
    where it is read before its value is final and filtered everywhere
    else (see :func:`_self_consistent_guesses`).  The candidates come in
    the joint enumeration's order and bits all the same.  Candidates equal
    within ``eps`` to an earlier one are dropped.

    Each candidate remembers the frozen naf assignment it was computed at:
    its guess, or its own naf values for the first fixpoint of a program
    without a naf cycle.  The verification of a candidate whose own naf
    values are those bits reuses it instead of computing the same fixpoint
    again.  This holds within one call only; the candidates it returns
    remember nothing.
    """
    gp = ground(program) if isinstance(program, Program) else program
    trace = [] if collect_trace else None
    report = SolveReport(trace=trace)
    naf_ids = gp.naf_ids
    naf_cycle = any(c.naf_inside for c in gp.components)

    # (fixpoint, the frozen naf assignment it is the fixpoint at, or None)
    found: list[tuple[Interpretation, dict | None]] = []
    try:
        fix = _fixpoint(gp, eps, max_iter, trace=trace, report=report)
        found.append((fix, None if naf_cycle else {b: naf(fix.values[b]) for b in naf_ids}))
    except Inconsistent as exc:
        report.candidates.append(CandidateResult(None, Status.INCONSISTENT, exc.atom))
    except NonConvergent:
        report.candidates.append(CandidateResult(None, Status.NON_CONVERGENT, None))
    if naf_cycle:
        domain, report.guess_depth = _naf_guess_domain(
            gp, guess_depth, len(naf_ids), max_guesses
        )
        # every answer set with naf values in the domain is the fixpoint at them
        found += _self_consistent_guesses(gp, domain, eps, max_iter)

    candidates: list[Interpretation] = []
    for fix, frozen in found:
        if not any(interpretations_equal(fix, c, eps) for c in candidates):
            fix._frozen_at = frozen
            candidates.append(fix)
    for candidate in candidates:
        result = verify_answer_set(gp, candidate, eps=eps, max_iter=max_iter)
        candidate._frozen_at = None
        report.candidates.append(result)
        if result.status is Status.ANSWER_SET:
            report.answer_sets.append(candidate)
    return report
