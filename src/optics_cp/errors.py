"""Exception types shared across the package."""


class OpticsError(Exception):
    """Base class for all library errors."""


class LengthError(OpticsError):
    """A sequence is too short for the requested operation."""


class ShapeError(OpticsError):
    """Array dimensions are inconsistent with the operation's contract."""


class DomainError(OpticsError):
    """An input value lies outside the mathematical domain of a transform."""


class InfeasibleError(OpticsError):
    """No segmentation exists under the given length and spacing constraints."""


class ConfigError(OpticsError, ValueError):
    """A configuration object or argument is invalid.

    Also a ValueError, so that callers catching ValueError for a bad
    argument catch it.
    """


class SpecError(OpticsError):
    """A simulation design specification is invalid."""


class ParseError(OpticsError):
    """An input file could not be parsed."""
