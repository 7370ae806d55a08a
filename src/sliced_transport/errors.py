"""Exception types shared across the package.

Everything derives from :class:`TransportError`, itself a ``ValueError``,
so callers can catch broadly or by specific condition.
"""


class TransportError(ValueError):
    """Base class for all sliced-transport errors."""


class DimensionMismatch(TransportError):
    """Inputs disagree on the ambient dimension or on array lengths."""


class NonPositiveTotalMass(TransportError):
    """Weights are negative or NaN, empty, or sum to a non-positive total."""


class WeightSumOutOfTolerance(TransportError):
    """Weights do not sum to 1 within the construction tolerance."""


class NonFiniteAtoms(TransportError):
    """An atom coordinate is NaN or infinite."""


class IndexOutOfRange(TransportError):
    """A plan references atom indices outside its declared sizes."""


class NonUnitDirection(TransportError):
    """A slicing direction is not a unit vector."""


class MassImbalance(TransportError):
    """Two measures carry different total mass."""


class InstanceTooLarge(TransportError):
    """The instance exceeds a solver's size limit."""


class InvalidT(TransportError):
    """Interpolation parameter lies outside [0, 1]."""


class InvalidCoupling(TransportError):
    """A plan does not couple the given measures."""
