"""Shared exception types."""


class WamlError(Exception):
    """Base class for all package-specific errors."""


class FormulaParseError(WamlError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ModelLoadError(WamlError):
    """Malformed or invalid model/relation/proof JSON."""


class UnknownWorldError(WamlError):
    """A world-id that is not part of the model was referenced."""


class ArityMismatchError(WamlError):
    """Two models with different arities were combined."""


class BudgetExceededError(WamlError):
    """A bounded search or construction ran out of its step budget.

    Deliberately distinct from a negative answer: callers can tell
    "no, exhaustively" apart from "gave up".
    """


class InvalidArgumentError(WamlError, ValueError):
    """An argument outside its documented range: a nonpositive arity or
    bound, a negative depth, an empty candidate relation, a malformed
    identifier.  Also a ValueError, since each is a bad argument value."""
