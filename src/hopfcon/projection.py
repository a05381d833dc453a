"""Hypercomplex packing of bipartite states and the stereographic projection.

A state on H_2 (x) H_N packs into N quaternion coefficients
q_j = a_{0j} + a_{1j}*e2; a state on H_4 (x) H_N packs into N octonion
coefficients o_j = (a_{0j} + a_{1j}*e2) + (a_{2j} + conj(a_{3j})*e2)*e4.
The pairwise stereographic projection c_j * conj(c_k) splits into a
purely complex Schmidt part plus hypercomplex parts whose squared
magnitudes sum, over all pairs, to the squared 2x2 minors of the
amplitude matrix -- which is why the assembled quantity
2 * sqrt(sum over pairs) is exactly the bipartite concurrence.  Both
algebras run through one code path: the packed coefficients are real rows
(N, d) with d = 2 * left_dim, and every product comes from products().
concurrence() first compresses the amplitude matrix M to R^T, from a reduced
QR M^T = Q R: Lambda^2(R^T Q^T) = Lambda^2(R^T) Lambda^2(Q^T) and Q^T has
orthonormal rows, so the sum of squared minors is kept.  project() and
pair_projections() stay pairwise on the N original coefficients; the N x N
grid of pair_projections() is refused above MAX_PAIR_ENTRIES entries.

Sign convention: the projection is always the literally computed
hypercomplex product.  Its e2-part for a quaternion pair equals the
*negative* of the column minor a_{0j} a_{1k} - a_{1j} a_{0k}; only the
magnitude enters the concurrence, and the bilinear helpers below expose
the exact componentwise relation for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SplitMismatchError
from .hypercomplex import ALGEBRAS, Octonion, Quaternion, products
from .states import (MAX_PAIR_ENTRIES, LocalUnitary2, PureState, apply_local,
                     check_norm, check_size)

# Conjugation keeps e0 and negates the rest; slice to the coefficient count.
_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


class PackedState:
    """State as N quaternion or octonion coefficients with unit total norm.

    Stored as read-only real rows (N, d), d = 4 or 8.  Built from such rows
    or from a sequence of Quaternion or Octonion coefficients.  check_norm
    applies PureState's tolerance, so every state PureState accepts packs.
    """

    def __init__(self, coefficients):
        if not isinstance(coefficients, np.ndarray):
            coefficients = [c.coefficients() for c in coefficients]
        rows = np.array(coefficients, dtype=float)
        if rows.ndim != 2 or rows.shape[1] not in ALGEBRAS:
            raise DimensionMismatchError(
                f"expected rows of 4 or 8 coefficients, got shape {rows.shape}")
        rows.flags.writeable = False
        self.rows = rows
        check_norm(math.sqrt(self.norm_squared()), "coefficient")

    @property
    def coefficients(self) -> tuple:
        algebra = ALGEBRAS[self.rows.shape[1]]
        return tuple(algebra(*row) for row in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def norm_squared(self) -> float:
        return float(np.sum(self.rows * self.rows))

    def as_array(self) -> np.ndarray:
        return self.rows


QuaterState = OctoState = PackedState


@dataclass(frozen=True)
class QuatProjection:
    """Complex split S + C*e2 of a projected quaternion pair."""

    schmidt: complex
    concurrence_part: complex

    def reconstruct(self) -> Quaternion:
        return Quaternion.from_complex_pair(self.schmidt, self.concurrence_part)

    @property
    def concurrence_magnitude(self) -> float:
        return abs(self.concurrence_part)


@dataclass(frozen=True)
class OctProjection:
    """Quadruple-complex split s0 + s1*e2 + (s2 + s3*e2)*e4 of a projected octonion pair."""

    s0: complex
    s1: complex
    s2: complex
    s3: complex

    def reconstruct(self) -> Octonion:
        return Octonion.from_complex_quadruple(self.s0, self.s1, self.s2, self.s3)

    @property
    def hyper_norm_squared(self) -> float:
        """Squared magnitude of the entanglement-sensitive (non-complex) parts."""
        return abs(self.s1) ** 2 + abs(self.s2) ** 2 + abs(self.s3) ** 2


_PROJECTIONS = {4: QuatProjection, 8: OctProjection}


def _rows(matrix: np.ndarray) -> np.ndarray:
    """Coefficient rows, laid out as pack describes, of a left_dim x n amplitude matrix."""
    if len(matrix) not in (2, 4):
        raise SplitMismatchError(f"hypercomplex packing needs a left factor of dimension "
                                 f"2 or 4, got {len(matrix)}")
    columns = matrix.T.copy()
    if len(matrix) == 4:
        columns[:, 3] = np.conj(columns[:, 3])
    return columns.view(float)


def pack(state: PureState, left_dim: int) -> PackedState:
    """Pack a state split as [left_dim, N] into N hypercomplex coefficients.

    left_dim 2 gives quaternions q_j = a_{0j} + a_{1j}*e2; left_dim 4 gives
    octonions o_j = (a_{0j} + a_{1j}*e2) + (a_{2j} + conj(a_{3j})*e2)*e4,
    indexed by the N-dimensional factor.  The conjugate on the octonion's
    final slot is what makes the pairwise projection magnitudes reduce to
    2x2 minors (see oct_projection_bilinear).  Row j holds the real and
    imaginary parts of column j, interleaved.
    """
    return PackedState(_rows(state.split_matrix(left_dim)))


def _complex_parts(grid: np.ndarray) -> np.ndarray:
    """Products grid (d, m, n) as an (m, n, d/2) array of complex parts."""
    return np.ascontiguousarray(grid.transpose(1, 2, 0)).view(complex)


def project(a, b):
    """Stereographic projection of a coefficient pair: the complex split of a * conj(b)."""
    grid = products([a.coefficients()], [b.conjugate().coefficients()])
    return _PROJECTIONS[len(grid)](*_complex_parts(grid)[0, 0].tolist())


def quat_projection_bilinear(u, v) -> tuple[complex, complex]:
    """Schmidt and minor terms of a projected pair, directly from amplitudes.

    For columns u = (a_{0j}, a_{1j}) and v = (a_{0k}, a_{1k}) returns
    (S, C) with S = u0*conj(v0) + u1*conj(v1) and C = u0*v1 - u1*v0.
    The computed projection satisfies schmidt == S and
    concurrence_part == -C; the equality is asserted by the test suite as
    a cross-check on the quaternion multiplication table.
    """
    schmidt = u[0] * np.conj(v[0]) + u[1] * np.conj(v[1])
    minor = u[0] * v[1] - u[1] * v[0]
    return complex(schmidt), complex(minor)


def oct_projection_bilinear(u, v) -> tuple[complex, complex, complex, complex]:
    """Projection parts of an octonion pair, directly from amplitude columns.

    For 4-component columns u, v (amplitudes of the [4, N] split) with
    minors M_ij = u_i*v_j - u_j*v_i:

        s0 = sum_i u_i * conj(v_i)
        s1 = -M_01 - conj(M_23)
        s2 = -M_02 + conj(M_13)
        s3 = -M_12 - conj(M_03)

    so |s1|^2 + |s2|^2 + |s3|^2 = sum |M_ij|^2: the cross terms cancel by
    the Pluecker identity M_01*M_23 - M_02*M_13 + M_03*M_12 = 0.  The test
    suite asserts these against the literal octonion product.
    """
    def minor(i, j):
        return u[i] * v[j] - u[j] * v[i]

    s0 = sum(u[i] * np.conj(v[i]) for i in range(4))
    s1 = -minor(0, 1) - np.conj(minor(2, 3))
    s2 = -minor(0, 2) + np.conj(minor(1, 3))
    s3 = -minor(1, 2) - np.conj(minor(0, 3))
    return complex(s0), complex(s1), complex(s2), complex(s3)


def _pair_grid(rows: np.ndarray) -> np.ndarray:
    """Products c_j * conj(c_k) of every coefficient pair, shape (d, N, N)."""
    return products(rows, rows * _CONJ_SIGNS[:rows.shape[1]])


def pair_projections(packed: PackedState):
    """Projection of every coefficient pair (j, k), j < k, in lexicographic order."""
    check_size(len(packed) ** 2, MAX_PAIR_ENTRIES, "the grid of coefficient pairs")
    projection = _PROJECTIONS[packed.rows.shape[1]]
    parts = _complex_parts(_pair_grid(packed.rows))
    # one row of Python numbers at a time, so peak memory stays near the result's
    return [(j, k, projection(*p)) for j in range(len(packed))
            for k, p in enumerate(parts[j, j + 1:].tolist(), start=j + 1)]


def concurrence(state: PureState, left_dim: int) -> float:
    """Concurrence of a [left_dim, N] state read off the hypercomplex projection.

    left_dim = d is 2 (quaternions) or 4 (octonions).  Returns 2 * sqrt(sum
    over pairs j < k of the squared e2-and-above parts of c_j * conj(c_k)) over
    the columns of R^T, where M^T = Q R is the reduced QR of the split matrix
    M.  Lambda^2(M) = Lambda^2(R^T) Lambda^2(Q^T) and Q^T has orthonormal rows,
    so the sum (not each pair) equals that over M's N columns.  O(d^2 N) time.
    """
    matrix = state.split_matrix(left_dim)
    if matrix.shape[1] > left_dim:
        matrix = np.linalg.qr(matrix.T, mode="r").T
    hyper = _pair_grid(_rows(matrix))[2:]
    np.square(hyper, out=hyper)
    return 2.0 * math.sqrt(float(np.triu(hyper.sum(axis=0), k=1).sum()))


# Per-algebra names for the generic functions above.  Each stays a def, not
# an alias, so that it keeps its own __name__ in profiles and traces.

def quaternify(state: PureState) -> PackedState:
    return pack(state, 2)


def octonify(state: PureState) -> PackedState:
    return pack(state, 4)


def quat_project(qj: Quaternion, qk: Quaternion) -> QuatProjection:
    return project(qj, qk)


def oct_project(ok: Octonion, ol: Octonion) -> OctProjection:
    return project(ok, ol)


def quat_pair_projections(qstate: PackedState):
    return pair_projections(qstate)


def oct_pair_projections(ostate: PackedState):
    return pair_projections(ostate)


def quat_concurrence(state: PureState) -> float:
    return concurrence(state, 2)


def oct_concurrence(state: PureState) -> float:
    return concurrence(state, 4)


def right_module_action(qstate: PackedState, coefficient_unitary: LocalUnitary2,
                        fiber_unitary: LocalUnitary2) -> PackedState:
    """Local-unitary action on a length-2 quaterbit in right-module form.

    coefficient_unitary acts as a matrix across the two quaternion
    coefficients (it is the unitary on the enumerated N = 2 factor); a
    complex scalar multiplies both complex slots of z1 + z2*e2 alike, so
    this is a complex matrix product on the (z1, z2) rows.  fiber_unitary
    with parameters (a', b') acts inside each coefficient as right
    multiplication by the unit quaternion a' - conj(b')*e2, which is
    exactly the SU(2) matrix of fiber_unitary on the packed qubit.
    """
    if len(qstate) != 2 or qstate.rows.shape[1] != 4:
        raise DimensionMismatchError("right_module_action expects 2 quaternion coefficients")
    mixed = coefficient_unitary.matrix @ qstate.rows.view(complex)
    scalar = Quaternion.from_complex_pair(fiber_unitary.a, -np.conj(fiber_unitary.b))
    return PackedState(products(mixed.view(float), [scalar.coefficients()])[:, :, 0].T)


def equivariance_error(state: PureState, coefficient_unitary: LocalUnitary2,
                       fiber_unitary: LocalUnitary2) -> float:
    """Largest componentwise gap between the two routes' projections.

    Route one applies the local unitaries to the state (fiber_unitary on
    the packed first qubit, coefficient_unitary on the second) and packs
    afterwards; route two acts on the packed state via
    right_module_action.  Packing and local action commute when the gap
    is zero.
    """
    if state.total_dim != 4:
        raise SplitMismatchError("the equivariance check expects a two-qubit state")
    evolved = apply_local(state, fiber_unitary, coefficient_unitary)
    via_state = project(*quaternify(evolved).coefficients)
    via_module = project(*right_module_action(quaternify(state), coefficient_unitary,
                                              fiber_unitary).coefficients)
    return max(abs(via_state.schmidt - via_module.schmidt),
               abs(via_state.concurrence_part - via_module.concurrence_part))


def verify_equivariance(state: PureState, coefficient_unitary: LocalUnitary2,
                        fiber_unitary: LocalUnitary2, tol: float = 1e-10) -> bool:
    """Check that packing and local action commute on a two-qubit state.

    Returns True when equivariance_error is within tol.
    """
    return equivariance_error(state, coefficient_unitary, fiber_unitary) <= tol


def transformed_schmidt_part(qstate: PackedState,
                             coefficient_unitary: LocalUnitary2) -> complex:
    """Closed-form Schmidt part after the coefficient-matrix action alone.

    With S the Schmidt part of the untransformed pair and (a, b) the
    parameters of coefficient_unitary:

        S' = (|q1|^2 - |q0|^2) * a * b + a^2 * S - b^2 * conj(S)
    """
    if len(qstate) != 2:
        raise DimensionMismatchError("transformed_schmidt_part expects 2 quaternion coefficients")
    q0, q1 = qstate.coefficients
    schmidt = project(q0, q1).schmidt
    a, b = coefficient_unitary.a, coefficient_unitary.b
    return ((q1.norm_squared() - q0.norm_squared()) * a * b
            + a * a * schmidt - b * b * np.conj(schmidt))
