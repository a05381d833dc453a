"""Exception types shared across the package."""


class HopfconError(Exception):
    """Base class for all hopfcon-specific errors."""


class DimensionMismatchError(HopfconError, ValueError):
    """Amplitude count, factor dimensions, or operator shapes disagree."""


class ZeroNormError(HopfconError, ValueError):
    """A state vector with (numerically) zero norm was supplied."""


class NormalizationError(HopfconError, ValueError):
    """A state vector is too far from unit norm to be accepted."""


class SplitMismatchError(HopfconError, ValueError):
    """The requested bipartition does not fit the state's factor dimensions."""


class ParameterError(HopfconError, ValueError):
    """A model parameter (angle, field magnitude, Schmidt weight) is out of range or not finite."""


class SizeLimitError(HopfconError, ValueError):
    """A state or an intermediate array would exceed a stated size limit."""
