"""Pure multipartite states as complex amplitude vectors with explicit factor dimensions.

Amplitudes are stored row-major over the ket labels, leftmost factor most
significant: for dims (2, 2, 2) the amplitude of |ijk> sits at index
4*i + 2*j + k.  Regrouping a multi-qubit state into a bipartition takes the
contiguous prefix of factors as the left side and is a pure reindexing.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_AMPLITUDES, DimensionMismatchError, NormalizationError,
                     ParameterError, SizeLimitError, SplitMismatchError, as_amplitudes,
                     check_dims, check_factors, check_norm, check_size, check_type, is_number)


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over an ordered list of tensor factors."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        """The one check of a state: integer dims >= 2, one amplitude per ket, unit norm."""
        dims = check_dims(self.dims)
        amps = as_amplitudes(self.amplitudes)
        if amps.flags.writeable or not amps.flags.owndata:  # an owned, read-only array is kept
            amps = amps.copy()
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
        check_norm(math.sqrt(np.vdot(amps, amps).real), "state")  # inf, not a warning, on overflow

    @property
    def total_dim(self) -> int:
        return self.amplitudes.size

    def split_matrix(self, left_dim: int) -> np.ndarray:
        """Amplitudes as a left_dim x (total/left_dim) matrix over a prefix bipartition.

        left_dim must be an integer, the product of a contiguous prefix of one
        or more stored factors that leaves at least one factor on the right.
        """
        prefixes = itertools.accumulate(self.dims[:-1], operator.mul)
        if not is_number(type(left_dim), numbers.Integral) or left_dim not in prefixes:
            raise SplitMismatchError(  # left_dim is left out: str() refuses 4300 digits
                f"cannot split dims {self.dims} there: the left dimension must be the product "
                "of a prefix of one or more factors that leaves a nontrivial right factor")
        return self.amplitudes.reshape(left_dim, self.total_dim // left_dim)


@dataclass(frozen=True)
class LocalUnitary2:
    """SU(2) element parameterized by (a, b) with |a|^2 + |b|^2 = 1.

    The induced matrix is [[a, b], [-conj(b), conj(a)]].
    """

    a: complex
    b: complex

    def __post_init__(self):
        amplitudes = as_amplitudes((self.a, self.b))
        if amplitudes.shape != (2,):
            raise DimensionMismatchError(f"a and b must be single numbers, got shape "
                                         f"{amplitudes.shape}")
        a, b = amplitudes.tolist()
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not abs(abs(a) * abs(a) + abs(b) * abs(b) - 1.0) <= 1e-12:  # ** 2 overflows; NaN fails
            raise NormalizationError("|a|^2 + |b|^2 must equal 1 within 1e-12")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b],
                         [-np.conj(self.b), np.conj(self.a)]])


def make_state(dims, amplitudes) -> PureState:
    """Validate and exactly renormalize an amplitude vector.

    The input norm must already be within NORM_TOLERANCE of 1; anything else,
    the zero vector included, raises NormalizationError before the division.
    """
    amps = as_amplitudes(amplitudes).ravel()
    with np.errstate(over="ignore"):  # an overflowing norm is inf, refused by check_norm
        norm = float(np.linalg.norm(amps))
    check_norm(norm, "state")  # PureState checks dims and the amplitude count
    amps = amps / norm
    amps.flags.writeable = False  # so PureState keeps this array and makes no second copy
    return PureState(dims, amps)


def ghz_state(m: int) -> PureState:
    """m-qubit state (|0...0> + |1...1>)/sqrt(2)."""
    if not is_number(type(m), numbers.Integral) or m < 2:
        raise DimensionMismatchError("ghz_state requires an integer of at least 2 qubits")
    check_factors(m, "the GHZ state")
    amps = np.zeros(2 ** m, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return PureState((2,) * m, amps)


def w_state(m: int) -> PureState:
    """m-qubit state with equal weight 1/sqrt(m) on every single-excitation ket."""
    if not is_number(type(m), numbers.Integral) or m < 2:
        raise DimensionMismatchError("w_state requires an integer of at least 2 qubits")
    check_factors(m, "the W state")
    amps = np.zeros(2 ** m, dtype=complex)
    for i in range(m):
        amps[2 ** i] = 1.0 / math.sqrt(m)
    return PureState((2,) * m, amps)


def random_state(seed: int, dims) -> PureState:
    """Haar-like random pure state: i.i.d. complex normal amplitudes, normalized."""
    if not is_number(type(seed), numbers.Integral) or seed < 0:  # None: a new state each call
        raise ParameterError("seed must be a non-negative integer")
    rng = np.random.default_rng(seed)
    dims = check_dims(dims)  # before counting, so int() never rounds a bad dim
    check_factors(len(dims), "the random state")  # before math.prod, which is slow on many factors
    n = math.prod(dims)  # a Python int: np.prod wraps around at 2**63
    check_size(n, MAX_AMPLITUDES, "the random state")
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, amps / np.linalg.norm(amps))


def apply_local(state: PureState, u_left, u_right) -> PureState:
    """Apply (u_left tensor u_right) across the prefix bipartition the shapes select.

    u_left acts on the contiguous prefix of factors matching its dimension,
    u_right on the rest; either may be a LocalUnitary2 or a square array.
    """
    u_left = u_left.matrix if isinstance(u_left, LocalUnitary2) else as_amplitudes(u_left)
    u_right = u_right.matrix if isinstance(u_right, LocalUnitary2) else as_amplitudes(u_right)
    if u_left.ndim != 2 or u_left.shape[0] != u_left.shape[1]:
        raise DimensionMismatchError("u_left must be a square matrix")
    if u_right.ndim != 2 or u_right.shape[0] != u_right.shape[1]:
        raise DimensionMismatchError("u_right must be a square matrix")
    matrix = check_type(state, PureState, "apply_local").split_matrix(u_left.shape[0])
    if u_right.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(
            f"u_right of dimension {u_right.shape[0]} does not match right factor "
            f"of dimension {matrix.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # PureState refuses an inf or NaN norm
        transformed = u_left @ matrix @ u_right.T
    return PureState(state.dims, transformed.ravel())


def random_local_unitary(rng: np.random.Generator) -> LocalUnitary2:
    """SU(2) element from two normalized complex Gaussians."""
    v = check_type(rng, np.random.Generator, "random_local_unitary").standard_normal(4)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    scale = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return LocalUnitary2(a / scale, b / scale)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix."""
    if not is_number(type(n), numbers.Integral) or n < 1:
        raise ParameterError("n must be a positive integer")
    if int(n) ** 2 > MAX_AMPLITUDES:  # the message leaves n out: str() refuses 4300 digits
        raise SizeLimitError(f"a random unitary would hold more than {MAX_AMPLITUDES} entries")
    check_type(rng, np.random.Generator, "random_unitary")
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _path(path, what: str) -> str:
    """A str, or a PathLike whose os.fspath is one, by the object rule; "" stays "", not "."."""
    return check_type(os.fspath(check_type(path, (str, os.PathLike), what)), str, what)


def save_state(state: PureState, path) -> None:
    """Write a state file: {"dims": [...], "amplitudes": [[re, im], ...]}."""
    payload = {
        "dims": list(check_type(state, PureState, "save_state").dims),
        "amplitudes": state.amplitudes.view(float).reshape(-1, 2).tolist(),  # [re, im] pairs
    }
    with open(_path(path, "save_state"), "w") as file:
        file.write(json.dumps(payload))


def load_state(path) -> PureState:
    """Read a state file; DimensionMismatchError if malformed, OSError if it cannot be read."""
    with open(_path(path, "load_state"), "rb") as file:
        data = file.read()  # outside the try: an OSError is not a malformed file
    try:
        payload = json.loads(data)  # ValueError also for bad bytes and ints past 4300 digits
        dims = payload["dims"]
        pairs = as_amplitudes(payload["amplitudes"], float)  # JSON holds no complex numbers
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"got shape {pairs.shape}")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DimensionMismatchError("state JSON must be an object with 'dims' and "
                                     f"'amplitudes' as [re, im] pairs of numbers: {exc}") from exc
    return make_state(dims, pairs.view(complex).ravel())  # [re, im] as re + im j
