"""Declarative semantics and answer-set computation.

An interpretation maps every ground literal to a truth value, defaulting to
the unknown state ifn(0,1).  A rule fires its head to body-fold AND weight;
heads with several rules combine by disjunction in program order; when both
a literal and its complement have rules the more certain side wins via
knowledge aggregation.  Answer sets are interpretations that reproduce
themselves as the fixpoint of their own reduct.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field

# conj is unused here, but bench/tracing.py counts its calls through this name
from .connectives import _finite, _product, conj, kagg, negate  # noqa: F401
from .errors import (
    AggregationTie,
    ClosureTooLarge,
    GuessLimitExceeded,
    Inconsistent,
    MonotonicityError,
    NonConvergent,
    OrderViolation,
)
from .measures import _mean, truth_degree, uncertainty_degree
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
# alternations of :func:`_naf_bounds` at most, each two frozen fixpoints
MAX_ALTERNATIONS = 200
# :func:`_naf_bounds` reads a b within this of 0 or 1 as exactly that.  A
# fixpoint stops within eps * r / (1 - r) of its limit where a cyclic
# component contracts by r per round, so a b whose limit is 0 or 1 only
# nears it; fed back as it is, that error can grow from one alternation to
# the next and carry the bounds off an answer set.  1e-6 covers r up to
# 0.999 at the default eps.
SNAP = 1e-6


class Interpretation:
    """Values of ground literals; every other literal is unknown.

    Holds a :class:`~fuzzyasp.program.LiteralTable` and ``values``, a list
    indexed by its ids.  The solver's interpretations share their ground
    program's table and are compared and checked id by id;
    ``Interpretation(mapping)`` numbers the mapping's own literals.
    ``Literal`` keys come back only through :meth:`value`,
    :attr:`assignment`, :meth:`items` and the text form.

    ``_frozen_at`` is set only by :func:`solve`, and only while it runs:
    the frozen naf assignment (a dict from each naf literal id b to the
    number 1 - b its ``not`` items take) at which these values are the
    frozen fixpoint of the program being solved (a guess, or the program's
    own naf values when it has no naf cycle), so that
    :func:`verify_answer_set` need not compute that fixpoint again.
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
    a literal reads ``values``, an inline value is itself, and ``not b`` is
    the exact point at one number, ``naf_values[b]`` when they are given
    (frozen naf) and ``1 - values[b].b`` otherwise; an empty body is TRUE.
    Order matters: conjunction with truncated operands is not associative.

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
            ya = yb = yc = yd = 1.0 - values[x].b if naf_values is None else naf_values[x]
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


def _contribution(values: list, rules, naf_values) -> FuzzyTruth:
    """Disjunction fold (program order) of the body values of one head's rules.

    The fixpoint's kernel: each ``(body, weight)`` rule is evaluated by
    :func:`_body`, and the restricted form of
    :func:`~fuzzyasp.connectives.disj` is taken in place on those
    parameters, so one value is built per head; a truncated operand takes
    its general form.  The bits are those of a fold through ``disj``.
    """
    a = None
    for body, weight in rules:
        ya, yb, yc, yd = _body(values, body, weight, naf_values)
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


def _disjunction(values: list) -> tuple:
    """Disjunction fold, in order, of ``(a, b, c, d)`` values; one value comes back as it is.

    The support check's fold: the bits of ``functools.reduce(disj,
    values)``, computed as :func:`_contribution` folds its rules, the
    restricted form of :func:`~fuzzyasp.connectives.disj` on float
    parameters and its general form (which raises OrderViolation on
    overflow) only when an operand is truncated.  No value is built
    between steps.
    """
    if len(values) == 1:
        return values[0]
    a = None
    for ya, yb, yc, yd in values:
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
    return a, b, c, d


def _target(values: list, own, against, naf_values, eps: float) -> FuzzyTruth:
    """The fixpoint's supported value for a head literal with compiled rules ``own``.

    The complement's combined evidence (its rules, ``against``) is
    aggregated in with ``kagg`` only when the complement has rules of its
    own; AggregationTie propagates.
    """
    value = _contribution(values, own, naf_values)
    if against:
        return kagg(value, negate(_contribution(values, against, naf_values)), eps)
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


def _unsupported(gp: GroundProgram, values: list, eps: float, kept: list) -> Violation | None:
    """First supportedness violation, heads in ``gp.heads`` order, or None.

    ``kept[h]`` lists the body values of literal h's rules in program
    order, as :func:`verify_answer_set`'s model check computed them.  A
    head's supported value is their fold by :func:`_disjunction`, on float
    parameters with the bits of a fold through
    :func:`~fuzzyasp.connectives.disj` (a one-rule head's is its kept value
    itself), aggregated with :func:`~fuzzyasp.connectives.kagg` against the
    ``negate`` of its complement's fold when the complement has rules.
    Condition 1 covers single-rule heads, condition 2 the disjunctive
    combination of several rules, condition 3 the aggregation against a
    complement that also has rules; an aggregation tie violates it.
    """
    complement = gp.table.complement
    for head in gp.heads:
        own = kept[head]
        against = kept[complement[head]] if complement[head] >= 0 else ()
        try:
            expected = _disjunction(own)
            if against:
                expected = kagg(expected, negate(_disjunction(against)), eps)
        except AggregationTie:
            return Violation(gp.literals[head], 3)
        if not equal(values[head], expected, eps):
            condition = 3 if against else 1 if len(own) == 1 else 2
            return Violation(gp.literals[head], condition, FuzzyTruth(*expected), values[head])
    return None


def _fixpoint(
    gp: GroundProgram,
    eps: float,
    max_iter: int,
    *,
    naf_values: dict | None = None,
    report: SolveReport | None = None,
) -> Interpretation:
    """Fixpoint of the supported-value operator, one component at a time.

    Components come dependencies first, so every literal a component reads
    from outside itself is already final when it is evaluated.  Without
    ``naf_values`` each naf item reads the current interpretation and the
    order is ``gp.components``, in which naf is a dependency; with it each
    item ``not b`` is the point at the number ``naf_values[b]``, a mapping
    from every naf literal id of ``gp``, and the order is
    ``gp.frozen_components``, in which naf is none.

    An acyclic component is evaluated once; a cyclic one is iterated
    Jacobi-style over its own heads until they are stable within ``eps``,
    for at most ``max_iter`` rounds; it is NonConvergent past that.  Every
    evaluation of a component is one round: it counts in
    ``report.iterations`` and appends a copy of the whole interpretation,
    on ``gp``'s literal table, to ``report.trace`` when that is a list.  A
    round whose products overflow (OrderViolation) is not completed: the
    component, cyclic or not, is NonConvergent.  An aggregation tie raises
    Inconsistent.

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
        _evaluate(gp, component, values, naf_values, eps, max_iter, report)
    return Interpretation.of(gp.table, values)


def _evaluate(
    gp: GroundProgram,
    component: Component,
    values: list,
    naf_values,
    eps: float,
    max_iter: int,
    report: SolveReport | None = None,
) -> None:
    """Evaluate one component of :func:`_fixpoint` in place, in ``values``.

    Its heads start unknown; every literal it reads from outside itself
    must already hold its final value.  Raises as :func:`_fixpoint` does.

    An acyclic component has one head, which none of its rules read, so it
    is evaluated in one step: its rule's :func:`_body` when it has one rule
    and :func:`_contribution` otherwise (the same bits), one round counted
    and traced, then the contradiction check, which can fire only when the
    head's complement is in the table.  Its OrderViolation is
    ``NonConvergent(1)``.  No aggregation runs there: a complement with
    rules is a head that depends on its complement and is depended on by
    it, so the two share a cyclic component.
    """
    heads, cyclic, naf_inside, plan = component
    if not cyclic:
        ((head, own, _),) = plan
        try:
            if len(own) == 1:
                ((body, weight),) = own
                values[head] = FuzzyTruth(*_body(values, body, weight, naf_values))
            else:
                values[head] = _contribution(values, own, naf_values)
        except OrderViolation as exc:
            raise NonConvergent(1) from exc
        if report is not None:
            report.iterations += 1
            if report.trace is not None:
                report.trace.append(Interpretation.of(gp.table, list(values)))
        if gp.table.complement[head] >= 0:
            atom = _contradiction(gp.table, values, heads, eps)
            if atom is not None:
                raise Inconsistent(atom)
        return
    for head in heads:
        values[head] = UNKNOWN
    seen: dict = {}  # states of a naf cycle's trajectory so far, see _revisited
    if naf_inside:
        _revisited(seen, [UNKNOWN] * len(heads))
    for rounds in range(1, max_iter + 1):
        new = []
        for head, own, against in plan:
            try:
                new.append(_target(values, own, against, naf_values, eps))
            except AggregationTie as exc:
                raise Inconsistent(gp.literals[head].atom) from exc
            except OrderViolation as exc:
                raise NonConvergent(rounds) from exc
        previous = [values[h] for h in heads]
        for head, value in zip(heads, new):
            values[head] = value
        if report is not None:
            report.iterations += 1
            if report.trace is not None:
                report.trace.append(Interpretation.of(gp.table, list(values)))
        if not naf_inside:
            for head, old, value in zip(heads, previous, new):
                if uncertainty_degree(value) > uncertainty_degree(old) + eps:
                    raise MonotonicityError(
                        f"uncertainty increased at {gp.literals[head]}: {old} -> {value}"
                    )
        if all(equal(old, value, eps) for old, value in zip(previous, new)):
            break
        if naf_inside and _revisited(seen, new):
            raise NonConvergent(rounds)
    else:
        raise NonConvergent(max_iter)
    if not naf_inside:
        atom = _contradiction(gp.table, values, heads, eps)
        if atom is not None:
            raise Inconsistent(atom)


def _revisited(seen: dict, state: list) -> bool:
    """Whether a trajectory visited ``state`` before; records it when not.

    A state is a list of head values, and two states are the same when
    every parameter of both rounds alike to 12 places.  ``seen`` is keyed
    by the rounded b of a state's first value: it holds the first state
    with a key as it is, and the whole state is rounded only once another
    shares that key, which turns the entry into a set of rounded states.
    """
    key = round(state[0].b, 12)
    states = seen.get(key)
    if states is None:
        seen[key] = state
        return False
    if isinstance(states, list):
        states = seen[key] = {tuple(round(p, 12) for v in states for p in v)}
    rounded = tuple(round(p, 12) for v in state for p in v)
    if rounded in states:
        return True
    states.add(rounded)
    return False


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
    literal id b of ``gp`` to the float its ``not b`` items take, the naf
    value 1 - I(b).b, as the exact point at that number (a list indexed by
    literal id works too; no other id is read).  ``gp`` is then evaluated
    as the positive program with those items frozen, without building it.
    Without it ``gp`` must be positive.
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
    reduct is ``gp`` with the frozen naf assignment ``{b: 1 - I(b).b}`` over
    ``gp.naf_ids``.  When :func:`solve` computed the candidate itself as the
    fixpoint of ``gp`` frozen at that very assignment (the fixpoint of a
    program without a naf cycle, or a guess fixpoint whose own naf values
    are its guess), that fixpoint is the candidate: it is not computed
    again, and k-minimality holds without comparing the candidate with
    itself.  A failed rule is reported from the ``gp.rules`` view.

    The checks run in this order, and the first failure is the result:
    consistency (:func:`is_inconsistent`), the model check of each rule in
    program order (the head equals its body value or exceeds it in truth or
    in certainty), support (a :class:`Violation`, see
    :func:`_unsupported`), and k-minimality against the reduct's fixpoint.
    Each rule body is evaluated once, its ``not b`` items reading the
    reduct's ``1 - I(b).b``, taken once per naf literal: the model check
    keeps its value, and the support check folds the kept values of each
    head's rules with :func:`_disjunction` and ``kagg``.  The model check
    measures each head's value lazily and once: its k when a rule body
    first differs from it, its t when the k of such a body first fails to
    decide.
    """
    atom = is_inconsistent(i, eps)
    if atom is not None:
        return CandidateResult(i, Status.INCONSISTENT, atom)
    values = i.values if i.table is gp.table else [i.value(l) for l in gp.literals]
    # the reduct's naf values, which the rule bodies read as well
    frozen = {b: 1.0 - values[b].b for b in gp.naf_ids}
    kept = [[] for _ in values]  # per head, the body value of each rule
    ks = [None] * len(values)  # per head, its k once the model check needs it
    ts = [None] * len(values)  # and its t
    for pos, (head, body, weight) in enumerate(gp.compiled):
        value = _body(values, body, weight, frozen)
        x = values[head]
        # the rule holds when its head equals its body value or strictly
        # exceeds it in certainty or else in truth
        if not equal(x, value, eps):
            k = ks[head]
            if k is None:
                k = ks[head] = uncertainty_degree(x)
            kv = uncertainty_degree(value)
            if not k < kv - eps:
                t = ts[head]
                if t is None:
                    t = ts[head] = _mean(x, k)
                if not t > _mean(value, kv) + eps:
                    return CandidateResult(i, Status.NOT_MODEL, gp.rules[pos])
        kept[head].append(value)
    violation = _unsupported(gp, values, eps, kept)
    if violation is not None:
        return CandidateResult(i, Status.NOT_SUPPORTED, violation)
    # a naf value is 1 - b, never -0.0 or nan: numbers that are == have equal bits.
    # A candidate computed at these is its reduct's fixpoint, and its finite
    # values are equal to themselves within eps.
    if i._frozen_at != frozen:
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
    """Possible naf values: the number 1 - b of each value of the weight closure.

    The seeds, TRUE, UNKNOWN and each rule's weight and inline values, are
    taken in program order, not hash order.  The closure is taken at
    operator depth ``depth``, or at the greatest lower one whose closure
    stays within the closure cap and whose ``len(domain) ** slots`` fits
    ``max_guesses``; but it is never lowered below 1 for the second reason.
    Returns (domain, depth used); depth 0 means the bare seeds.  Whether
    the guesses fit ``max_guesses`` is the caller's to check: :func:`solve`
    counts only the naf literals its search guesses.

    The closure and these numbers are built once, level by level from
    :func:`~fuzzyasp.oracle.closure_levels`: the closure at depth d is the
    first part of the one at d + 1, so its domain is the first part of that
    domain.  From level 2 on, the first domain value past ``max_guesses``
    or a ClosureTooLarge ends the run, and the domain is cut back to the
    level before.  Level 1 always runs to its end, so the domain at depth 1
    is whole, however many guesses it makes (as are the seeds, when level 1
    exceeds the cap).  Raises OracleArgumentError unless 0 <= depth <= 4.
    """
    from .oracle import closure_levels

    seeds = dict.fromkeys((TRUE, UNKNOWN))
    for _, body, weight in gp.compiled:
        seeds[weight] = None
        for kind, x in body:
            if kind == VALUE:
                seeds[x] = None
    domain: dict[float, float] = {}
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
                    domain[key] = 1.0 - v.b
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
            domain.setdefault(round(1.0 - v.b, 9), 1.0 - v.b)
    return list(domain.values()), depth


def _search_blocks(gp: GroundProgram) -> list:
    """The plan of :func:`_self_consistent_guesses`: its blocks, in search order.

    The frozen components are sorted by the component of ``gp.components``
    they lie in (the sort is stable, so frozen order within each).  The
    component that first reads ``not b`` in that order chooses b's value:
    b is guessed there when b's own component is not before it, and
    filtered otherwise, b having no rules or a final value.  A block is a
    connected group of components that read one another's heads, positive
    or under naf, or read ``not`` of one literal; a head's complement with
    rules is a head of its component, so its rules are read there too.

    Returns a list of blocks, each a list of ``(component, reads, checks)``
    in the sorted order: ``reads`` holds ``(b, guessed)`` for each naf
    literal the component chooses, ``checks`` each guessed literal it makes
    final.
    """
    # a frozen component lies inside one component of ``gp.components``
    outer = {h: n for n, component in enumerate(gp.components) for h in component.heads}
    components = sorted(gp.frozen_components, key=lambda c: outer[c.heads[0]])
    where = {h: k for k, component in enumerate(components) for h in component.heads}
    reads: list[list] = [[] for _ in components]
    checks: list[list] = [[] for _ in components]
    first: dict = {}  # naf id -> the component that reads it first
    parent = list(range(len(components)))  # union-find over the components

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for k, (_, _, _, plan) in enumerate(components):
        for _, own, _ in plan:
            for body, _ in own:
                for kind, x in body:
                    if kind == VALUE:
                        continue
                    j = where.get(x)
                    if kind == NAF:
                        if x not in first:
                            first[x] = k
                            guessed = j is not None and j >= k
                            reads[k].append((x, guessed))
                            if guessed:
                                checks[j].append(x)
                        j = first[x] if j is None else j
                    if j is not None:
                        parent[root(j)] = root(k)
    blocks: dict[int, list] = {}
    for k, component in enumerate(components):
        blocks.setdefault(root(k), []).append((component, reads[k], checks[k]))
    return list(blocks.values())


def _self_consistent_guesses(
    gp: GroundProgram, blocks: list, domains: dict, eps: float, max_iter: int
):
    """Every guess over ``domains`` whose frozen fixpoint reproduces it.

    ``domains`` maps each naf literal id of ``gp`` to its list of naf
    values, numbers: the same guess domain for every id, or one value per
    id where the well-founded bounds pin them.  A guess gives each naf
    literal id a value of its list; it is kept when its frozen fixpoint
    exists (no Inconsistent, NonConvergent or MonotonicityError) and puts
    each literal's naf value 1 - b within ``eps`` of its guess.  Returns
    ``(fixpoint, guess)`` pairs, the guess a dict in ``gp.naf_ids`` order,
    in the order of ``itertools.product(*(domains[b] for b in
    gp.naf_ids))``.

    A frozen component's value depends only on the components it reads and
    on the naf values it reads, so the guesses are searched one block of
    ``blocks`` (see :func:`_search_blocks`) at a time, and within a block
    one component at a time, depth first, over one shared value list.  A
    component chooses the values of the naf literals it reads first: a
    filtered literal takes only the values of its list equal to its naf, a
    guessed one every value, checked once the literal's own component has
    been evaluated.  A branch ends at the first component that raises or
    fails a check, so each component is evaluated once per choice of the
    naf values read up to it in its block, not once per whole guess.

    No block reads a head or a naf choice of another, so the guesses kept
    are the cartesian product of the blocks' local ones (the splitting
    theorem of Lifschitz and Turner), each fixpoint the blocks' head values
    put together.  Sorted by the index of each naf literal's value in its
    list, in ``gp.naf_ids`` order, they are the joint enumeration's guesses,
    in its order, with its bits.
    """
    values = [UNKNOWN] * len(gp.literals)
    frozen: dict = {}  # naf id -> its value on the current branch

    def choices(reads: list):
        options = []
        for b, guessed in reads:
            if guessed:
                options.append(range(len(domains[b])))
            else:
                t = 1.0 - values[b].b
                options.append([i for i, p in enumerate(domains[b]) if abs(t - p) <= eps])
        return itertools.product(*options)

    local = []  # per block: its heads, and per kept branch its choices and head values
    for block in blocks:
        heads = [h for component, _, _ in block for h in component.heads]
        kept = []
        chosen: dict = {}  # naf id -> its domain index on the current branch
        stack = [choices(block[0][1])]  # one iterator of choices per component on the branch
        while stack:
            k = len(stack) - 1
            combo = next(stack[k], None)
            if combo is None:
                stack.pop()
                continue
            component, reads, checks = block[k]
            for (b, _), i in zip(reads, combo):
                chosen[b], frozen[b] = i, domains[b][i]
            try:
                _evaluate(gp, component, values, frozen, eps, max_iter)
            except (Inconsistent, NonConvergent, MonotonicityError):
                continue
            if not all(abs(1.0 - values[b].b - frozen[b]) <= eps for b in checks):
                continue
            if k + 1 < len(block):
                stack.append(choices(block[k + 1][1]))
                continue
            kept.append((dict(chosen), [values[h] for h in heads]))
        if not kept:
            return []
        local.append((heads, kept))

    accepted = []
    for branches in itertools.product(*(kept for _, kept in local)):
        merged = [UNKNOWN] * len(gp.literals)
        chosen = {}
        for (heads, _), (choice, head_values) in zip(local, branches):
            chosen.update(choice)
            for h, v in zip(heads, head_values):
                merged[h] = v
        key = tuple(chosen[b] for b in gp.naf_ids)
        guess = {b: domains[b][chosen[b]] for b in gp.naf_ids}
        accepted.append((key, Interpretation.of(gp.table, merged), guess))
    accepted.sort(key=lambda found: found[0])
    return [(fix, guess) for _, fix, guess in accepted]


def _monotone(gp: GroundProgram) -> bool:
    """Whether ``gp`` is in the class where :func:`_naf_bounds` holds.

    No head's complement has rules, so no ``kagg`` runs, and every weight
    and inline value is restricted (``0 <= a`` and ``d <= 1``).  There the
    b of each frozen fixpoint literal is taken to be monotone in every naf
    value: ROADMAP item 11's hypothesis, which a property test checks.
    """
    complement, rules_of = gp.table.complement, gp.rules_of
    if any(complement[h] >= 0 and rules_of[complement[h]] for h in gp.heads):
        return False
    return all(
        0.0 <= x.a and x.d <= 1.0
        for _, body, weight in gp.compiled
        for x in (weight, *(x for kind, x in body if kind == VALUE))
    )


def _naf_bounds(gp: GroundProgram, eps: float, max_iter: int):
    """Alternating-fixpoint bounds ``(lo, hi)`` on the b of each naf literal, or None.

    ``F(x)`` is the b of each literal of ``gp.naf_ids`` (a list in that
    order) in the frozen fixpoint at the naf numbers ``1 - x``, taken as 0 or 1
    when it lies within :data:`SNAP` of it.  Where every b is
    monotone in every naf value (see :func:`_monotone`) F is antitone, so
    from ``lo = 0`` each alternation ``hi = F(lo)``, ``lo = F(hi)`` keeps
    every answer set's b between them (Van Gelder's alternating fixpoint).
    It stops once every literal has ``hi - lo <= eps``, once ``lo`` does
    not move, or after :data:`MAX_ALTERNATIONS`; None when a fixpoint
    raises Inconsistent, NonConvergent or MonotonicityError.

    When they pin every literal, :func:`_pinned_domains` hands the search
    one naf value per literal, the number ``1 - lo``.  A snapped ``lo`` need not be
    reproduced by its own fixpoint (a b of 5e-7 is pinned at 0); the
    search then keeps no guess.
    """
    naf_ids = gp.naf_ids

    def bound(x: list) -> list:
        frozen = {b: 1.0 - v for b, v in zip(naf_ids, x)}
        values = _fixpoint(gp, eps, max_iter, naf_values=frozen).values
        bs = (values[b].b for b in naf_ids)
        return [0.0 if v <= SNAP else 1.0 if v >= 1.0 - SNAP else v for v in bs]

    lo = [0.0] * len(naf_ids)
    try:
        for _ in range(MAX_ALTERNATIONS):
            hi = bound(lo)
            lo, last = bound(hi), lo
            if lo == last or all(h - l <= eps for l, h in zip(lo, hi)):
                break
    except (Inconsistent, NonConvergent, MonotonicityError):
        return None
    return lo, hi


def _pinned_domains(gp: GroundProgram, eps: float, max_iter: int) -> dict | None:
    """One naf value per literal, where :func:`_naf_bounds` pins every naf literal.

    None unless ``gp`` is :func:`_monotone` and its bounds have
    ``hi - lo <= eps`` at every naf literal.  Then each naf literal id maps
    to a list of one number, its naf value ``1 - lo``: the domains of
    :func:`_self_consistent_guesses`, whose filter and checks keep that one
    guess only when its frozen fixpoint reproduces it.
    """
    bounds = _naf_bounds(gp, eps, max_iter) if _monotone(gp) else None
    if bounds is None or any(h - l > eps for l, h in zip(*bounds)):
        return None
    return {b: [1.0 - x] for b, x in zip(gp.naf_ids, bounds[0])}


def _distinct(found: list, naf_ids: tuple, eps: float) -> list:
    """The fixpoints of ``found`` not within ``eps`` of an earlier kept one.

    ``found`` holds ``(fixpoint, frozen)`` pairs on one literal table; each
    fixpoint kept gets ``_frozen_at = frozen``, and they keep their order.
    The rule is that of comparing each fixpoint with every one kept before
    it by :func:`interpretations_equal`, but the kept ones are indexed by
    their b at each id of ``naf_ids``: two values within ``eps`` have b
    within ``eps`` (the test :func:`~fuzzyasp.truthspace.equal` makes), so
    a fixpoint is compared only with the kept ones whose key is built of
    such near values.  A sorted list of the kept b values per literal
    gives them.  When those keys outnumber the kept fixpoints, it is
    compared with every kept one instead.
    """
    kept: list[Interpretation] = []
    index: dict[tuple, list] = {}  # key -> the kept fixpoints with that key
    sorted_bs: list[list] = [[] for _ in naf_ids]  # per naf id, the kept keys' b
    for fix, frozen in found:
        values = fix.values
        key = tuple([values[b].b for b in naf_ids])
        near = []
        for x, bs in zip(key, sorted_bs):
            # ``abs(x - y)`` is monotone in y, so the near ones are a run
            start = end = bisect.bisect_left(bs, x)
            while start and abs(x - bs[start - 1]) <= eps:
                start -= 1
            while end < len(bs) and abs(x - bs[end]) <= eps:
                end += 1
            near.append(bs[start:end])
        if math.prod(map(len, near)) > len(kept):
            others = kept
        else:
            others = [c for k in itertools.product(*near) for c in index.get(k, ())]
        if any(interpretations_equal(fix, c, eps) for c in others):
            continue
        fix._frozen_at = frozen
        kept.append(fix)
        index.setdefault(key, []).append(fix)
        for x, bs, run in zip(key, sorted_bs, near):
            if x not in run:  # the near run holds x when the list does
                bisect.insort(bs, x)
    return kept


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
    only candidate.  When a dependency cycle runs through naf, more
    candidates follow, and ``guess_depth`` is checked first (0 to 4, else
    OracleArgumentError).

    The self-consistent guesses follow the first fixpoint.  A guess is a
    frozen naf assignment, from each naf literal id to a value of its
    domain.  Its frozen fixpoint, evaluated in the finer order where naf is
    no dependency, is a candidate when its own naf values are the guess;
    one that is inconsistent, does not converge or raises some head's
    uncertainty is none.

    If the program is :func:`_monotone` (no head whose complement has
    rules, every weight and inline value restricted), the alternating
    fixpoint bounds the b of every naf literal first (see
    :func:`_naf_bounds`).  When it pins them all within ``eps``, each naf
    literal's domain is its one pinned value (see :func:`_pinned_domains`),
    so there is one guess; no guess domain is built and
    ``report.guess_depth`` stays None.  Every other program with a naf
    cycle guesses over one domain for every naf literal: the naf image of
    the operator closure of the program weights (depth ``guess_depth``,
    lowered while the closure exceeds its cap or the joint guesses,
    ``len(domain) ** len(gp.naf_ids)``, exceed ``max_guesses``; see
    :func:`_naf_guess_domain`).  GuessLimitExceeded is raised when the
    guesses the search makes over that domain, ``len(domain) ** g`` for
    the g guessed naf literals, exceed ``max_guesses`` at the depth chosen.

    The guesses are not enumerated jointly.  The frozen components fall
    into blocks that read nothing of one another (see
    :func:`_search_blocks`); each block is searched on its own, one
    component at a time, a naf literal guessed only where it is read
    before its value is final and filtered everywhere else, and the
    blocks' results are combined as a product (see
    :func:`_self_consistent_guesses`).  The candidates come in the joint
    enumeration's order and bits all the same.

    A candidate equal within ``eps`` to an earlier kept one, by
    :func:`interpretations_equal`, is dropped.  Only near kept ones are
    compared: those whose b at every naf literal is within ``eps`` of the
    candidate's, found from the kept b values sorted per naf literal (see
    :func:`_distinct`).

    Each candidate remembers the frozen naf assignment it was computed at:
    its guess, or its own naf values for the first fixpoint of a program
    without a naf cycle.  The verification of a candidate whose own naf
    values are those bits reuses it instead of computing the same fixpoint
    again.  This holds within one call only; the candidates it returns
    remember nothing.
    """
    gp = ground(program) if isinstance(program, Program) else program
    report = SolveReport(trace=[] if collect_trace else None)
    naf_ids = gp.naf_ids
    naf_cycle = any(c.naf_inside for c in gp.components)

    # (fixpoint, the frozen naf assignment it is the fixpoint at, or None)
    found: list[tuple[Interpretation, dict | None]] = []
    try:
        fix = _fixpoint(gp, eps, max_iter, report=report)
        found.append((fix, None if naf_cycle else {b: 1.0 - fix.values[b].b for b in naf_ids}))
    except Inconsistent as exc:
        report.candidates.append(CandidateResult(None, Status.INCONSISTENT, exc.atom))
    except NonConvergent:
        report.candidates.append(CandidateResult(None, Status.NON_CONVERGENT, None))
    if naf_cycle:
        from .oracle import check_depth

        check_depth(guess_depth)
        # where the bounds pin every naf literal, every answer set's naf
        # values are the pinned ones within eps
        domains = _pinned_domains(gp, eps, max_iter)
        blocks = _search_blocks(gp)
        if domains is None:
            domain, report.guess_depth = _naf_guess_domain(
                gp, guess_depth, len(naf_ids), max_guesses
            )
            guessed = sum(g for block in blocks for _, reads, _ in block for _, g in reads)
            guesses = len(domain) ** guessed
            if guesses > max_guesses:
                raise GuessLimitExceeded(f"{guesses} naf guesses exceed max_guesses={max_guesses}")
            domains = dict.fromkeys(naf_ids, domain)
        # every answer set with naf values in the domains is the fixpoint at them
        found += _self_consistent_guesses(gp, blocks, domains, eps, max_iter)

    for candidate in _distinct(found, naf_ids, eps):
        result = verify_answer_set(gp, candidate, eps=eps, max_iter=max_iter)
        candidate._frozen_at = None
        report.candidates.append(result)
        if result.status is Status.ANSWER_SET:
            report.answer_sets.append(candidate)
    return report
