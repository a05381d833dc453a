"""Exception types shared across the package, and the input rules that raise them.

check_size refuses before allocating: states above MAX_AMPLITUDES = 2**24
(24 qubits); the pair grid above MAX_PAIR_ENTRIES = 2**22 entries (N = 2048)
and the oracle sum above as many column pairs (N = 2896).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

NORM_TOLERANCE = 1e-6
MAX_AMPLITUDES = 2 ** 24
MAX_PAIR_ENTRIES = 2 ** 22


class HopfconError(Exception):
    """Base class for all hopfcon-specific errors."""


class DimensionMismatchError(HopfconError, ValueError):
    """Amplitude count, factor dimensions, or operator shapes disagree."""


class NormalizationError(HopfconError, ValueError):
    """A state vector is too far from unit norm to be accepted."""


class SplitMismatchError(HopfconError, ValueError):
    """The requested bipartition does not fit the state's factor dimensions."""


class ParameterError(HopfconError, ValueError):
    """A model parameter (angle, field magnitude, Schmidt weight) is out of range or not finite."""


class SizeLimitError(HopfconError, ValueError):
    """A state or an intermediate array would exceed a stated size limit."""


def check_size(count: int, limit: int, what: str) -> None:
    """Raise SizeLimitError, before anything is allocated, if count exceeds limit."""
    if count > limit:
        raise SizeLimitError(f"{what} would hold {count} entries, above the limit of {limit}")


def check_factors(m: int, what: str) -> None:
    """check_size of m factors of dimension >= 2 against MAX_AMPLITUDES; 2**m is never formed."""
    if m > math.log2(MAX_AMPLITUDES):  # the message leaves m out: str() refuses 4300 digits
        raise SizeLimitError(f"{what} has too many factors: it would hold more entries than "
                             f"the limit of {MAX_AMPLITUDES}")


def check_norm(norm: float, what: str) -> None:
    """Raise NormalizationError unless norm is within NORM_TOLERANCE of 1."""
    if not abs(norm - 1.0) <= NORM_TOLERANCE:  # also rejects NaN
        raise NormalizationError(f"{what} norm {norm} deviates from 1 by more than "
                                 f"{NORM_TOLERANCE}")


def check_dims(dims) -> tuple[int, ...]:
    """Dims as a tuple of ints; DimensionMismatchError unless one or more integers >= 2.

    A dim above MAX_AMPLITUDES raises SizeLimitError first, and no message
    prints the given dims or their count: str() refuses ints past 4300 digits.
    """
    try:
        given = tuple(dims)
        checked = tuple(int(d) for d in given if is_number(type(d), numbers.Real))
    except (TypeError, ValueError, OverflowError):  # not a sequence of finite numbers
        given, checked = None, ()
    if checked and max(checked) > MAX_AMPLITUDES:
        raise SizeLimitError(f"a factor of dimension above {MAX_AMPLITUDES} would hold more "
                             f"than {MAX_AMPLITUDES} amplitudes")
    if not checked or checked != given or min(checked) < 2:  # 2.0 passes, 2.5 and "2" do not
        raise DimensionMismatchError("dims must be one or more integers >= 2")
    return checked


def check_type(value, kind: type | tuple[type, ...], what: str):
    """The object rule: value if it is a kind, else DimensionMismatchError naming what and its type.

    kind is a type or, as for isinstance, a tuple of types; value, maybe huge, is not printed.
    """
    if not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise DimensionMismatchError(f"{what} takes a {kinds}, got {type(value).__name__}")
    return value


@functools.lru_cache  # issubclass on an ABC is slow next to a lookup; a process meets few types
def is_number(value_type: type, kind=numbers.Number) -> bool:
    """The number rule's type test: a subclass of kind, but neither bool nor np.timedelta64."""
    return issubclass(value_type, kind) and value_type not in (bool, np.timedelta64)


def as_real(value, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """The number rule for one real: value as a finite float in [low, high], else ParameterError."""
    try:
        number = float(value) if is_number(type(value), numbers.Real) else math.nan
    except OverflowError:  # an int or a Fraction past the float range
        number = math.nan
    if not (math.isfinite(number) and low <= number <= high):
        limits = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
        raise ParameterError(f"{what} must be a finite real number{limits}")
    return number


def as_amplitudes(amplitudes, dtype=complex) -> np.ndarray:
    """Amplitudes as an array of dtype; DimensionMismatchError for anything that does not convert.

    The number rule for arrays, for make_state, PureState, state files, LocalUnitary2,
    apply_local's matrices and, with dtype float, PackedState's rows and the dynamics' times:
    each element's type passes is_number (as a numbers.Real for float), or a non-object
    array's dtype is a numpy number kind.  So text, bytes, None, booleans and durations,
    which numpy would convert, are refused, as are a ragged nesting and an int too large for
    a float.  A list or tuple is read as objects; a numeric ndarray of dtype is neither
    scanned nor copied.  The message never prints the input, which may be huge.
    """
    try:
        given = np.asarray(amplitudes, dtype=object if isinstance(amplitudes, (list, tuple))
                           else None)
        if given.dtype != object:  # numpy's own number types, timedelta64 aside, by kind
            numbers_only = given.dtype.kind in ("iuf" if dtype is float else "iufc")
        else:
            kind = numbers.Real if dtype is float else numbers.Number
            numbers_only = all(is_number(t, kind) for t in set(map(type, given.ravel())))
        if not numbers_only:
            raise TypeError(f"only {'real ' if dtype is float else ''}numbers other than "
                            "booleans and durations are accepted")
        return given.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"expected an array of numbers: {exc}") from exc
