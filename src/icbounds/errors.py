"""Exception types shared across the package."""


class IcboundsError(Exception):
    """Base class for every error raised by this package."""


class FamilyParameterError(IcboundsError, ValueError):
    """A built-in function family was given parameters outside its valid range."""


class TruthTableFormatError(IcboundsError, ValueError):
    """A truth-table, distribution, or ordering file does not match the documented format."""


class ArgumentError(IcboundsError, ValueError):
    """An operation received arguments violating its contract (sizes, ranges, overlaps)."""


class UnsupportedSizeError(IcboundsError, ValueError):
    """The operation is only defined for specific input sizes."""


class ExhaustiveSearchRefusal(IcboundsError, RuntimeError):
    """Exhaustive ordering search was refused because of its cost."""


class TableSizeRefusal(IcboundsError, RuntimeError):
    """A built-in family's truth table was refused because of its size."""


class CensusMismatchError(IcboundsError, RuntimeError):
    """The classification census did not produce the expected class structure."""

    def __init__(self, message, signatures=()):
        super().__init__(message)
        self.signatures = tuple(signatures)


class HierarchyViolationError(IcboundsError, RuntimeError):
    """A class-hierarchy substitution check failed."""
