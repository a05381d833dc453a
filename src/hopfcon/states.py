"""Pure multipartite states as complex amplitude vectors with explicit factor dimensions.

Amplitudes are stored row-major over the ket labels, leftmost factor most
significant: for dims (2, 2, 2) the amplitude of |ijk> sits at index
4*i + 2*j + k.  Regrouping a multi-qubit state into a bipartition takes the
contiguous prefix of factors as the left side and is a pure reindexing.
check_size refuses before allocating: states above MAX_AMPLITUDES = 2**24
(24 qubits), N x N intermediates above MAX_PAIR_ENTRIES = 2**22 (N = 2048).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (DimensionMismatchError, NormalizationError, ParameterError,
                     SizeLimitError, SplitMismatchError, ZeroNormError)

NORM_TOLERANCE = 1e-6
MAX_AMPLITUDES = 2 ** 24
MAX_PAIR_ENTRIES = 2 ** 22


def check_size(count: int, limit: int, what: str) -> None:
    """Raise SizeLimitError, before anything is allocated, if count exceeds limit."""
    if count > limit:
        raise SizeLimitError(f"{what} would hold {count} entries, above the limit of {limit}")


def check_factors(m: int, what: str) -> None:
    """check_size of m factors of dimension >= 2 against MAX_AMPLITUDES; 2**m is never formed."""
    if m > math.log2(MAX_AMPLITUDES):
        raise SizeLimitError(f"{what} would hold at least 2**{m} entries, above the limit of "
                             f"{MAX_AMPLITUDES}")


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
        checked = tuple(int(d) for d in given)
    except (TypeError, ValueError, OverflowError):  # not a sequence of finite numbers
        given, checked = None, ()
    if checked and max(checked) > MAX_AMPLITUDES:
        raise SizeLimitError(f"a factor of dimension above {MAX_AMPLITUDES} would hold more "
                             f"than {MAX_AMPLITUDES} amplitudes")
    if not checked or checked != given or min(checked) < 2:  # 2.0 passes, 2.5 and "2" do not
        raise DimensionMismatchError("dims must be one or more integers >= 2")
    return checked


def _as_amplitudes(amplitudes) -> np.ndarray:
    """Amplitudes as a complex array; DimensionMismatchError for anything that does not convert.

    That covers a ragged nesting, an int too large for a float, and any text or
    boolean, even "1" and True, which numpy would convert: left to infer the dtype,
    numpy makes it text or boolean, or object around a str or bool, but int for
    [0, True], so a list or tuple is read as objects first.  A numeric ndarray is
    neither scanned nor copied.  The message never prints the input, which may be huge.
    """
    try:
        given = np.asarray(amplitudes, dtype=object if isinstance(amplitudes, (list, tuple))
                           else None)
        kind = given.dtype.kind
        if kind in "USb" or kind == "O" and any(isinstance(x, (str, bool, np.bool_))
                                                for x in given.flat):
            raise TypeError("text and booleans are not amplitudes")
        return given.astype(complex, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatchError(f"amplitudes must be an array of numbers: {exc}") from exc


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over an ordered list of tensor factors."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        """The one check of a state: integer dims >= 2, one amplitude per ket, unit norm."""
        dims = check_dims(self.dims)
        amps = _as_amplitudes(self.amplitudes).copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        if len(dims) > 64:  # 2**65 amplitudes or more, which no array holds: not multiplied out
            raise DimensionMismatchError(
                f"{len(dims)} factors need at least 2**{len(dims)} amplitudes, got shape "
                f"{amps.shape}")
        if amps.shape != (math.prod(dims),):  # math.prod: np.prod wraps around at 2**63
            raise DimensionMismatchError(
                f"expected {math.prod(dims)} amplitudes for dims {dims}, got shape {amps.shape}")
        check_norm(float(np.linalg.norm(amps)), "state")

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def split_matrix(self, left_dim: int) -> np.ndarray:
        """Amplitudes as a left_dim x (total/left_dim) matrix over a prefix bipartition.

        The left factor must be a contiguous prefix of the stored factors
        whose dimensions multiply exactly to ``left_dim``, and it must leave
        at least one factor on the right.
        """
        prod = 1
        for d in self.dims:
            if prod == left_dim:
                break
            prod *= d
        if prod != left_dim or left_dim == self.total_dim:
            raise SplitMismatchError(
                f"cannot split dims {self.dims} with a left factor of dimension {left_dim}"
                " and a nontrivial right factor")
        return self.amplitudes.reshape(left_dim, self.total_dim // left_dim)


@dataclass(frozen=True)
class LocalUnitary2:
    """SU(2) element parameterized by (a, b) with |a|^2 + |b|^2 = 1.

    The induced matrix is [[a, b], [-conj(b), conj(a)]].
    """

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > 1e-12:
            raise NormalizationError("|a|^2 + |b|^2 must equal 1 within 1e-12")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b],
                         [-np.conj(self.b), np.conj(self.a)]])


IDENTITY_UNITARY = LocalUnitary2(1.0, 0.0)


def make_state(dims, amplitudes) -> PureState:
    """Validate and exactly renormalize an amplitude vector.

    The input norm must already be within NORM_TOLERANCE of 1; an (almost)
    zero vector raises ZeroNormError, anything else out of tolerance raises
    NormalizationError.
    """
    amps = _as_amplitudes(amplitudes).ravel()
    norm = float(np.linalg.norm(amps))
    if norm < 1e-9:
        raise ZeroNormError("state vector has zero norm")
    check_norm(norm, "state")  # PureState checks dims and the amplitude count
    return PureState(dims, amps / norm)


def ghz_state(m: int) -> PureState:
    """m-qubit state (|0...0> + |1...1>)/sqrt(2)."""
    if m < 2:
        raise DimensionMismatchError("ghz_state requires at least 2 qubits")
    check_factors(m, f"the {m}-qubit GHZ state")
    amps = np.zeros(2 ** m, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState((2,) * m, amps)


def w_state(m: int) -> PureState:
    """m-qubit state with equal weight 1/sqrt(m) on every single-excitation ket."""
    if m < 2:
        raise DimensionMismatchError("w_state requires at least 2 qubits")
    check_factors(m, f"the {m}-qubit W state")
    amps = np.zeros(2 ** m, dtype=complex)
    for i in range(m):
        amps[2 ** i] = 1.0 / math.sqrt(m)
    return PureState((2,) * m, amps)


def random_state(seed: int, dims) -> PureState:
    """Haar-like random pure state: i.i.d. complex normal amplitudes, normalized."""
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:  # a negative seed
        raise ParameterError(f"seed must be non-negative, got {seed}") from exc
    dims = check_dims(dims)  # before counting, so int() never rounds a bad dim
    check_factors(len(dims), "the random state")  # before math.prod, which is slow on many factors
    n = math.prod(dims)  # a Python int: np.prod wraps around at 2**63
    check_size(n, MAX_AMPLITUDES, "the random state")
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, amps / np.linalg.norm(amps))


def _as_matrix(u) -> np.ndarray:
    if isinstance(u, LocalUnitary2):
        return u.matrix
    return np.asarray(u, dtype=complex)


def apply_local(state: PureState, u_left, u_right) -> PureState:
    """Apply (u_left tensor u_right) across the prefix bipartition the shapes select.

    u_left acts on the contiguous prefix of factors matching its dimension,
    u_right on the rest; either may be a LocalUnitary2 or a square array.
    """
    u_left = _as_matrix(u_left)
    u_right = _as_matrix(u_right)
    if u_left.ndim != 2 or u_left.shape[0] != u_left.shape[1]:
        raise DimensionMismatchError("u_left must be a square matrix")
    if u_right.ndim != 2 or u_right.shape[0] != u_right.shape[1]:
        raise DimensionMismatchError("u_right must be a square matrix")
    matrix = state.split_matrix(u_left.shape[0])
    if u_right.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(
            f"u_right of dimension {u_right.shape[0]} does not match right factor "
            f"of dimension {matrix.shape[1]}")
    transformed = u_left @ matrix @ u_right.T
    return PureState(state.dims, transformed.ravel())


def random_local_unitary(rng: np.random.Generator) -> LocalUnitary2:
    """SU(2) element from two normalized complex Gaussians."""
    v = rng.standard_normal(4)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return LocalUnitary2(a / scale, b / scale)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def state_to_json(state: PureState) -> str:
    payload = {
        "dims": list(state.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    return json.dumps(payload)


def _amplitude(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):  # complex(True, 0) would be 1
        raise TypeError("a JSON boolean is not a number")
    return complex(re, im)


def state_from_json(text: str | bytes) -> PureState:
    """Parse a state file's text or bytes; a malformed file raises DimensionMismatchError."""
    try:
        payload = json.loads(text)  # ValueError also for bad bytes and ints past 4300 digits
        dims = payload["dims"]
        amps = np.array([_amplitude(re, im) for re, im in payload["amplitudes"]])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise DimensionMismatchError("state JSON must be an object with 'dims' and "
                                     f"'amplitudes' as [re, im] pairs of numbers: {exc}") from exc
    return make_state(dims, amps)


def save_state(state: PureState, path) -> None:
    Path(path).write_text(state_to_json(state))


def load_state(path) -> PureState:
    return state_from_json(Path(path).read_bytes())
