"""Exception hierarchy shared across the package."""


class FuzzyAspError(Exception):
    """Base class for all errors raised by fuzzyasp."""


class OrderViolation(FuzzyAspError):
    """Quadruple parameters are not finite and in non-decreasing order."""


class CoreOutOfRange(FuzzyAspError):
    """Core parameters b, c fall outside the unit interval."""


class AlphaOutOfRange(FuzzyAspError):
    """Alpha level outside [0, 1]."""


class NotRestricted(FuzzyAspError):
    """Operation requires a restricted value but got a truncated one."""


class AggregationTie(FuzzyAspError):
    """Knowledge aggregation of equally certain but distinct values."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(f"equally certain but distinct: {left} vs {right}")


class ParseError(FuzzyAspError):
    """Program or expression text is malformed; carries source location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DomainError(ParseError):
    """A fuzzy literal in the source violates construction preconditions."""


class UnsafeRule(FuzzyAspError):
    """A rule variable has no positive body occurrence."""

    def __init__(self, variable, rule):
        self.variable = variable
        self.rule = rule
        super().__init__(f"unsafe variable {variable} in rule: {rule}")


class Inconsistent(FuzzyAspError):
    """Complementary literals carry contradictory values of equal certainty."""

    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"inconsistent at {atom}")


class NonConvergent(FuzzyAspError):
    """Fixpoint iteration hit the iteration cap without stabilising."""

    def __init__(self, iterations):
        self.iterations = iterations
        super().__init__(f"no fixpoint after {iterations} iterations")


class MonotonicityError(FuzzyAspError):
    """Uncertainty increased along a pass of the positive-program iteration."""


class QuadratureFailure(FuzzyAspError):
    """Adaptive quadrature could not reach the requested tolerance."""


class OracleArgumentError(FuzzyAspError, ValueError):
    """A numeric check cannot run on its arguments (a point value, too few samples, ...)."""


class ClosureTooLarge(FuzzyAspError):
    """Operator closure exceeded the configured size cap."""


class GuessLimitExceeded(FuzzyAspError, ValueError):
    """Naf guesses needed even at guess depth 1 exceed the configured cap."""
