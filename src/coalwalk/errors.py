"""Exception types raised by the toolkit, and the integer test of inputs."""

from numbers import Integral


def is_integer(value, kind=Integral) -> bool:
    """True when ``value`` is a ``kind`` (by default ``numbers.Integral``, so
    never a float) and not a bool, which ``numbers`` counts as an integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


class CoalwalkError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpec(CoalwalkError):
    """A family spec or operation parameter is malformed or inadmissible."""


class GenerationFailure(CoalwalkError):
    """A randomized generator exhausted its retry budget."""


class ParseError(CoalwalkError):
    """Edge-list or config text could not be parsed."""


class SelfLoop(CoalwalkError):
    """An edge list contains a self-loop."""


class DisconnectedGraph(CoalwalkError):
    """The constructed graph is not connected."""


class LengthMismatch(CoalwalkError):
    """Two distribution vectors have different lengths."""


class BudgetExceeded(CoalwalkError):
    """A step budget was exhausted before the stopping condition held."""


class TooLarge(CoalwalkError):
    """The graph exceeds the configured limit for an exact computation."""


class InvalidIds(CoalwalkError):
    """Walk ids passed to the immortal process are not ids of the ensemble."""


class AllCensored(CoalwalkError):
    """Every Monte Carlo trial hit the step cap; no mean can be formed."""


class MissingQuantity(CoalwalkError):
    """A bound check requires a measured quantity that was not supplied."""


class InsufficientPoints(CoalwalkError):
    """A scaling fit needs at least four positive data points, at two
    distinct sizes or more."""


class ConfigError(CoalwalkError):
    """An experiment config is invalid."""
