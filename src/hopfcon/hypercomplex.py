"""Quaternion and octonion arithmetic over real coefficient vectors.

Both algebras are represented by fixed-width tuples of double-precision
reals against the basis e0 = 1, e1, ..., with multiplication driven by a
signed structure table generated once from the totally antisymmetric
structure constants (f_ijk = +1 on the index triples listed in
FANO_TRIPLES).  The octonions arise from the quaternions by Cayley-Dickson
doubling, so the quaternion table is the e0..e3 corner of the octonion
table.  Generating the tables instead of hard-coding them makes
transcription errors detectable: the test suite asserts every
basis-product cell independently.

Every product in the package, from one scalar to the (N, N, d) grid of a
packed state's coefficient pairs, goes through the kernel _products(); its
callers hand it rows already under the number rule.  The product a * b of
two elements is the one product of elements a caller builds
(projection.project is a * conj(b)), and it turns an overflow into a
ParameterError; the packed rows of a state have unit norm and cannot
overflow.

Conventions used throughout the package:

* a complex number z is embedded as z = x + y*e1;
* a quaternion splits as q = z1 + z2*e2 with complex z1, z2;
* an octonion splits as o = z0 + z1*e2 + (z2 + z3*e2)*e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, as_real

# Index triples (i, j, k) with e_i * e_j = e_k; totally antisymmetric.
FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7),
                (6, 1, 7), (7, 2, 5), (5, 3, 6))


def _structure_table(dim: int, triples) -> np.ndarray:
    """Signed table t with e_i * e_j = sum_k t[i, j, k] * e_k."""
    table = np.zeros((dim, dim, dim), dtype=np.int8)
    table[0, 0, 0] = 1
    for i in range(1, dim):
        table[0, i, i] = 1
        table[i, 0, i] = 1
        table[i, i, 0] = -1
    for i, j, k in triples:
        for (a, b, c), sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                                ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
            table[a, b, c] = sign
    return table


OCTONION_TABLE = _structure_table(8, FANO_TRIPLES)
QUATERNION_TABLE = OCTONION_TABLE[:4, :4, :4].copy()

_TABLES = {len(table): table.astype(float) for table in (QUATERNION_TABLE, OCTONION_TABLE)}


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out (m, n, d) with out[i, j] = a_i * b_j, for finite float64 rows, d = 4 or 8; unguarded."""
    d = a.shape[-1]
    # (b @ t)[p, j, k] is the e_k component of e_p * b_j, contiguous, so reshape is a view
    right = (b @ _TABLES[d]).reshape(d, -1)
    return (a @ right).reshape(len(a), len(b), d)


def _ldexp(x: float, e: int) -> float:
    """x * 2**e, exact inside the float range and +-inf past it, where math.ldexp raises."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


class Hypercomplex:
    """Arithmetic shared by Quaternion and Octonion.

    Subclasses are frozen dataclasses whose fields x0, x1, ... are the real
    coefficients on e0 = 1, e1, ...
    """

    def __post_init__(self):
        """Each coefficient under the number rule of errors.as_real, stored as a float."""
        for name, value in vars(self).items():
            object.__setattr__(self, name, as_real(value, name))

    def coefficients(self) -> tuple[float, ...]:
        # a frozen dataclass instance's dict holds exactly its fields, in order
        return tuple(vars(self).values())

    def conjugate(self):
        """Keeps x0, negates every imaginary coefficient."""
        x0, *imaginary = self.coefficients()
        return type(self)(x0, *(-x for x in imaginary))

    def _scaled(self) -> tuple[int, list[float]]:
        """e and the coefficients times 2**-e, with e = 0 at zero, else the largest |x| in [0.5, 1).

        A power of two scales exactly: the scaled squares neither overflow nor
        underflow where the plain ones would, and where the plain ones do
        neither, norm and inverse keep the bits of the unscaled formulas.
        """
        coefficients = self.coefficients()
        e = math.frexp(max(map(abs, coefficients)))[1]
        return e, [math.ldexp(x, -e) for x in coefficients]

    def norm(self) -> float:
        """The Euclidean norm, at a power-of-two scale: inf only past the float range."""
        e, scaled = self._scaled()
        return _ldexp(math.sqrt(sum(x * x for x in scaled)), e)

    def inverse(self):
        """Unique inverse conj(x) / |x|^2 of a nonzero element, at a power-of-two scale.

        A subnormal element's inverse is past the float range: ParameterError.
        """
        e, scaled = self.conjugate()._scaled()
        n2 = sum(x * x for x in scaled)
        if n2 == 0.0:
            raise ZeroDivisionError(f"zero {type(self).__name__.lower()} has no inverse")
        return type(self)(*(_ldexp(x / n2, -e) for x in scaled))

    def __mul__(self, other):
        """The product of two elements of one algebra; nothing else multiplies.

        A product past the float range is a ParameterError, not numpy's RuntimeWarning.
        """
        if not isinstance(other, type(self)):
            return NotImplemented
        try:
            with np.errstate(over="raise", invalid="raise"):  # invalid: inf - inf after an overflow
                product = _products(np.array(self.coefficients(), ndmin=2),
                                    np.array(other.coefficients(), ndmin=2))
        except FloatingPointError as exc:
            raise ParameterError(f"the product leaves the float range: {exc}") from exc
        return type(self)(*product.ravel().tolist())


@dataclass(frozen=True)
class Quaternion(Hypercomplex):
    """Rank-4 hypercomplex number x0 + x1*e1 + x2*e2 + x3*e3 (associative, noncommutative)."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def complex_pair(self) -> tuple[complex, complex]:
        """The complex parts (z1, z2) of q = z1 + z2*e2."""
        return complex(self.x0, self.x1), complex(self.x2, self.x3)


@dataclass(frozen=True)
class Octonion(Hypercomplex):
    """Rank-8 hypercomplex number sum_i x_i * e_i (norm-composing, not associative)."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0
    x4: float = 0.0
    x5: float = 0.0
    x6: float = 0.0
    x7: float = 0.0


# The algebra whose elements have d real coefficients.
ALGEBRAS = {4: Quaternion, 8: Octonion}


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    return a * b


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    return a * b

