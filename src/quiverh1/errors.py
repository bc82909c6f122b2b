"""Shared exception types."""


class QuiverH1Error(Exception):
    """Base class for all package errors."""


class InvalidQuiver(QuiverH1Error):
    """A quiver violates a structural invariant (dangling endpoint, duplicate name, ...)."""


class InfinitePathSet(QuiverH1Error):
    """An unbounded path enumeration was requested on a quiver with oriented cycles."""


class InfiniteBasis(QuiverH1Error):
    """The relation-avoiding path set is infinite, so no finite-dimensional algebra exists."""


class InvalidIdeal(QuiverH1Error):
    """A monomial generating set violates minimality or the length >= 2 requirement;
    ``generator`` is the offending generator, when there is one."""

    def __init__(self, message: str, generator=None):
        super().__init__(message)
        self.generator = generator


class NotApplicable(QuiverH1Error):
    """A formula's precondition does not hold for the given presentation."""


class FormulaUnavailable(QuiverH1Error):
    """No closed formula applies; the caller should fall back to the oracle."""


class InvalidPoset(QuiverH1Error):
    """The relation is not a partial order (antisymmetry failure) or names an unknown element;
    ``pair`` is the index of the first input pair that closes a cycle or names it, if known."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


class ComplexFault(QuiverH1Error):
    """A cochain complex is not one: a composite of two coboundaries has a nonzero entry."""


class ParseError(QuiverH1Error):
    """Input document syntax or resolution error, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
