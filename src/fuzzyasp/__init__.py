"""Answer set programming over interval, triangular and trapezoidal truth values."""

from .connectives import conj, disj, kagg, naf, negate
from .errors import (
    AggregationTie,
    AlphaOutOfRange,
    ClosureTooLarge,
    CoreOutOfRange,
    DomainError,
    FuzzyAspError,
    GuessLimitExceeded,
    Inconsistent,
    MonotonicityError,
    NonConvergent,
    NotRestricted,
    OracleArgumentError,
    OrderViolation,
    ParseError,
    QuadratureFailure,
    UnsafeRule,
)
from .measures import (
    Measure,
    Ordering,
    Rel,
    compare,
    density,
    equivalent_interval,
    leq_knowledge,
    leq_truth,
    measure,
    truth_degree,
    uncertainty_degree,
)
from .program import (
    Atom, GroundProgram, Literal, Naf, Program, Rule, Var, ground, parse, parse_value,
)
from .solver import (
    CandidateResult,
    Interpretation,
    SolveReport,
    Status,
    interpretations_equal,
    is_inconsistent,
    kmin_supported_model,
    solve,
    verify_answer_set,
)
from .truthspace import (
    FALSE,
    TRUE,
    UNKNOWN,
    AlphaCut,
    FuzzyTruth,
    alpha_cut,
    equal,
    ifn,
    make,
    membership,
    tfn,
    trfn,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationTie", "AlphaCut", "AlphaOutOfRange", "Atom", "CandidateResult",
    "ClosureTooLarge", "CoreOutOfRange", "DomainError", "FALSE", "FuzzyAspError",
    "FuzzyTruth", "GroundProgram", "GuessLimitExceeded", "Inconsistent",
    "Interpretation", "Literal",
    "Measure", "MonotonicityError", "Naf", "NonConvergent", "NotRestricted",
    "OracleArgumentError", "Ordering", "OrderViolation", "ParseError", "Program",
    "QuadratureFailure",
    "Rel", "Rule", "SolveReport", "Status", "TRUE", "UNKNOWN", "UnsafeRule", "Var",
    "alpha_cut", "compare", "conj", "density", "disj", "equal", "equivalent_interval",
    "ground", "ifn", "interpretations_equal", "is_inconsistent", "kagg",
    "kmin_supported_model", "leq_knowledge", "leq_truth", "make", "measure",
    "membership", "naf", "negate", "parse", "parse_value", "solve", "tfn", "trfn",
    "truth_degree", "uncertainty_degree", "verify_answer_set",
]
