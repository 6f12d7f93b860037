"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class RevrwError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidPosition(RevrwError):
    """A position does not address a node of the given term."""


class NotGround(RevrwError):
    """An operation that requires a ground term received a non-ground one."""


class OverlappingDomains(RevrwError):
    """Disjoint union of substitutions called with overlapping domains."""


class ParseError(RevrwError):
    """Malformed textual input. Carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ArityConflict(ParseError):
    """The same symbol was used with two different arities."""


class DuplicateLabel(ParseError):
    """Two rules carry the same label."""


class ReservedName(ParseError):
    """Input uses a name reserved for generated symbols or variables."""


class BoundExceeded(RevrwError):
    """A step/depth bound was hit before the computation finished.

    Distinct from rule-application failure: failure means proven
    inapplicable, this means unknown.
    """


class NoStep(RevrwError):
    """The term is a normal form under the requested strategy. The text is
    built when the error is printed: a caller that catches it to stop a run
    never formats the term."""

    def __init__(self, term, strategy: str):
        super().__init__(term, strategy)
        self.term = term
        self.strategy = strategy

    def __str__(self) -> str:
        from .terms import format_term

        return f"{format_term(self.term)} is a normal form under {self.strategy}"


class EmptyTrace(RevrwError):
    """Backward step requested on a pair with an empty trace."""


class TraceMismatch(RevrwError):
    """A trace does not fit the term it is being played back against."""


class UnsafePair(RevrwError):
    """A reversible operation received a pair whose trace is not safe."""


class UnknownLabel(RevrwError):
    """A trace references a rule label the system does not define."""


class NotApplicable(RevrwError):
    """A single-rule transformation's precondition does not hold."""


class PreconditionViolated(RevrwError):
    """A system-level transformation received input outside its class."""


class ShapeViolated(RevrwError):
    """Inversion received a system that is not injectivization-shaped."""


class UnsafeTrace(RevrwError):
    """Trace encoding received a trace outside the safe/top-reduced form."""


class ViewFailed(RevrwError):
    """The view function did not reduce the source to a constructor view."""


class UpdateFailed(RevrwError):
    """The inverse view could not rebuild a source for the new view."""
