"""Exception types shared across the package."""


class ConsensusLabError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ConsensusLabError):
    """Agent counts or spatial dimensions of two objects disagree."""


class UnbalancedGraph(ConsensusLabError):
    """Operation requires a balanced graph (in-degrees equal out-degrees)."""


class HorizonUncovered(ConsensusLabError):
    """A clamped signal does not cover the requested certification horizon."""


class NonFiniteState(ConsensusLabError):
    """Integration produced a non-finite coordinate (diverging run)."""


class DegenerateDiameter(ConsensusLabError):
    """Dilation rescaling requested for a configuration of zero or infinite
    diameter."""


class SpanTooShort(ConsensusLabError):
    """Trajectory is shorter than the requested window length."""


class InvalidPair(ConsensusLabError):
    """Index pair does not attain the configuration diameter."""


class NonPositiveValue(ConsensusLabError):
    """Log-linear fit received a value at or below zero."""


class ConfigError(ConsensusLabError):
    """Experiment configuration is malformed; `field` names the offender."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
