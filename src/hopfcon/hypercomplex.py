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

Every product in the package, from one scalar to the N x N grid of a
packed state's coefficient pairs, goes through products().

Conventions used throughout the package:

* a complex number z is embedded as z = x + y*e1;
* a quaternion splits as q = z1 + z2*e2 with complex z1, z2;
* an octonion splits as o = z0 + z1*e2 + (z2 + z3*e2)*e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

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

# Per coefficient count d: row k*d + p, column q holds t[p, q, k], so that
# (rows @ b.T)[k*d + p, j] is the e_k component of e_p * b_j.
_TABLE_ROWS = {len(table): table.transpose(2, 0, 1).reshape(-1, len(table)).astype(float)
               for table in (QUATERNION_TABLE, OCTONION_TABLE)}


def products(a, b) -> np.ndarray:
    """Every product a_i * b_j of two stacks of coefficient rows.

    a is (m, d) and b is (n, d), real, with d = 4 (quaternions) or 8
    (octonions).  Returns out with shape (d, m, n), where out[k, i, j] is
    the e_k component of a_i * b_j.  Two matrix products with the
    structure table compute it: the first folds the table into b, the
    second contracts a's rows against the result.  A 1 x 1 call is a
    scalar product; peak memory is the d*m*n output.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = a.shape[-1]
    if d not in _TABLE_ROWS or b.shape[-1] != d:
        raise DimensionMismatchError(
            f"products needs rows of 4 or 8 coefficients, got {d} and {b.shape[-1]}")
    right = (_TABLE_ROWS[d] @ b.T).reshape(d, d, len(b))  # right[k, p, j]
    return a @ right


class Hypercomplex:
    """Arithmetic shared by Quaternion and Octonion.

    Subclasses are frozen dataclasses whose fields x0, x1, ... are the real
    coefficients on e0 = 1, e1, ...
    """

    def coefficients(self) -> tuple[float, ...]:
        # a frozen dataclass instance's dict holds exactly its fields, in order
        return tuple(vars(self).values())

    def conjugate(self):
        """Keeps x0, negates every imaginary coefficient."""
        x0, *imaginary = self.coefficients()
        return type(self)(x0, *(-x for x in imaginary))

    def norm_squared(self) -> float:
        return sum(x * x for x in self.coefficients())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def inverse(self):
        """Unique inverse conj(x) / |x|^2 of a nonzero element."""
        n2 = self.norm_squared()
        if n2 == 0.0:
            raise ZeroDivisionError(f"zero {type(self).__name__.lower()} has no inverse")
        return type(self)(*(x / n2 for x in self.conjugate().coefficients()))

    def __add__(self, other):
        return type(self)(*(a + b for a, b in zip(self.coefficients(), other.coefficients())))

    def __sub__(self, other):
        return type(self)(*(a - b for a, b in zip(self.coefficients(), other.coefficients())))

    def __neg__(self):
        return type(self)(*(-a for a in self.coefficients()))

    def __mul__(self, other):
        if isinstance(other, type(self)):
            product = products([self.coefficients()], [other.coefficients()])
            return type(self)(*product[:, 0, 0].tolist())
        if isinstance(other, (int, float)):
            f = float(other)
            return type(self)(*(a * f for a in self.coefficients()))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented


@dataclass(frozen=True)
class Quaternion(Hypercomplex):
    """Rank-4 hypercomplex number x0 + x1*e1 + x2*e2 + x3*e3 (associative, noncommutative)."""

    x0: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    @classmethod
    def from_complex_pair(cls, z1: complex, z2: complex = 0j) -> "Quaternion":
        """Build z1 + z2*e2 from two complex numbers (e1 plays the role of i)."""
        z1, z2 = complex(z1), complex(z2)
        return cls(z1.real, z1.imag, z2.real, z2.imag)

    def complex_pair(self) -> tuple[complex, complex]:
        """Inverse of from_complex_pair; round-trips exactly."""
        return complex(self.x0, self.x1), complex(self.x2, self.x3)

    def star(self) -> "Quaternion":
        """The involution z1 + z2*e2 -> z1 - z2*e2 (fixes the complex part)."""
        return Quaternion(self.x0, self.x1, -self.x2, -self.x3)


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

    @classmethod
    def from_complex_quadruple(cls, z0: complex, z1: complex = 0j,
                               z2: complex = 0j, z3: complex = 0j) -> "Octonion":
        """Build z0 + z1*e2 + (z2 + z3*e2)*e4 from four complex numbers."""
        z0, z1, z2, z3 = complex(z0), complex(z1), complex(z2), complex(z3)
        return cls(z0.real, z0.imag, z1.real, z1.imag,
                   z2.real, z2.imag, z3.real, z3.imag)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "Octonion":
        return cls(q.x0, q.x1, q.x2, q.x3)

    def complex_quadruple(self) -> tuple[complex, complex, complex, complex]:
        """Inverse of from_complex_quadruple; round-trips exactly."""
        return (complex(self.x0, self.x1), complex(self.x2, self.x3),
                complex(self.x4, self.x5), complex(self.x6, self.x7))


# The algebra whose elements have d real coefficients.
ALGEBRAS = {4: Quaternion, 8: Octonion}


# Per-algebra names for the shared arithmetic.  Each stays a def, not an
# alias, so that it keeps its own __name__ in profiles and traces.

def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    return a * b


def quat_conj(q: Quaternion) -> Quaternion:
    return q.conjugate()


def quat_star(q: Quaternion) -> Quaternion:
    return q.star()


def oct_mul(a: Octonion, b: Octonion) -> Octonion:
    return a * b


def oct_conj(o: Octonion) -> Octonion:
    return o.conjugate()


def oct_inverse(o: Octonion) -> Octonion:
    return o.inverse()


QUAT_UNITS = tuple(Quaternion(*row) for row in np.eye(4))
OCT_UNITS = tuple(Octonion(*row) for row in np.eye(8))
