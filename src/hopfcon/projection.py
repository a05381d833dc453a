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
(N, d) with d = 2 * left_dim, and every product comes from the kernel
hypercomplex._products; project() is the element product a * conj(b).
concurrence() first compresses the amplitude matrix M to R^T, from a reduced
QR M^T = Q R: Lambda^2(R^T Q^T) = Lambda^2(R^T) Lambda^2(Q^T) and Q^T has
orthonormal rows, so the sum of squared minors is kept.  project() and
pair_projections() stay pairwise on the N original coefficients; the N x N
grid of pair_projections() is refused above MAX_PAIR_ENTRIES entries.

Sign convention: the projection is always the literally computed
hypercomplex product.  Its e2-part for a quaternion pair equals the
*negative* of the column minor a_{0j} a_{1k} - a_{1j} a_{0k}; only the
magnitude enters the concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_PAIR_ENTRIES, DimensionMismatchError, SplitMismatchError,
                     as_amplitudes, check_norm, check_size, check_type)
from .hypercomplex import ALGEBRAS, Quaternion, _products
from .states import LocalUnitary2, PureState, apply_local

# Conjugation keeps e0 and negates the rest; slice to the coefficient count.
_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


class PackedState:
    """State as N quaternion or octonion coefficients with unit total norm.

    Built from real numbers under the amplitude rule of errors.as_amplitudes, and
    stored as a read-only copy, rows (N, d), d = 4 or 8.  check_norm applies
    PureState's tolerance, so every state PureState accepts packs.
    """

    def __init__(self, rows):
        rows = as_amplitudes(rows, float).copy()
        if rows.ndim != 2 or rows.shape[1] not in ALGEBRAS:
            raise DimensionMismatchError(
                f"expected rows of 4 or 8 coefficients, got shape {rows.shape}")
        rows.flags.writeable = False
        self.rows = rows
        flat = rows.ravel()
        check_norm(math.sqrt(np.vdot(flat, flat)), "coefficient")  # inf, not a warning as from @

    @property
    def coefficients(self) -> tuple:
        algebra = ALGEBRAS[self.rows.shape[1]]
        return tuple(algebra(*row) for row in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def as_array(self) -> np.ndarray:
        return self.rows


@dataclass(frozen=True)
class QuatProjection:
    """Complex split S + C*e2 of a projected quaternion pair c_j * conj(c_k).

    S = schmidt is rho_B[j, k] = sum_i a_{ij} conj(a_{ik}), the N factor's reduced density matrix.
    """

    schmidt: complex
    concurrence_part: complex


@dataclass(frozen=True)
class OctProjection:
    """Quadruple-complex split s0 + s1*e2 + (s2 + s3*e2)*e4 of a projected octonion pair.

    s0 is rho_B[j, k], as QuatProjection.schmidt; |s1|^2 + |s2|^2 + |s3|^2 sums the squared
    minors m_ab of rows a, b = 2A + B, A and B the packed qubits.  s1 holds m01 and m23, so it
    vanishes when B factors out; s2 holds m02 and m13, so it vanishes when A does; all three
    vanish when the N side does.  One vanishing part is one complex equation, which an
    entangled state can meet: it does not by itself prove a product state.
    """

    s0: complex
    s1: complex
    s2: complex
    s3: complex

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
    2x2 minors.  Row j holds the real and imaginary parts of column j,
    interleaved.
    """
    return PackedState(_rows(check_type(state, PureState, "pack").split_matrix(left_dim)))


def project(a, b):
    """Stereographic projection a * conj(b) of two elements of one algebra, as its complex split."""
    if type(a) not in ALGEBRAS.values() or type(b) is not type(a):
        raise DimensionMismatchError("project takes two elements of one algebra, got "
                                     f"{type(a).__name__} and {type(b).__name__}")
    coefficients = (a * b.conjugate()).coefficients()
    return _PROJECTIONS[len(coefficients)](*np.array(coefficients).view(complex).tolist())


def _pair_grid(rows: np.ndarray) -> np.ndarray:
    """Products c_j * conj(c_k) of every coefficient pair, shape (N, N, d)."""
    return _products(rows, rows * _CONJ_SIGNS[:rows.shape[1]])


def _pair_parts(packed: PackedState):
    """Projection class and (N, N, d/2) complex parts of every pair; N^2 refused above the cap."""
    check_size(len(packed) ** 2, MAX_PAIR_ENTRIES,
               "the grid of coefficient pairs (concurrence --method hopf builds none)")
    return _PROJECTIONS[packed.rows.shape[1]], _pair_grid(packed.rows).view(complex)


def pair_projections(packed: PackedState):
    """Projection of every coefficient pair (j, k), j < k, in lexicographic order."""
    projection, parts = _pair_parts(check_type(packed, PackedState, "pair_projections"))
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
    matrix = check_type(state, PureState, "concurrence").split_matrix(left_dim)
    if matrix.shape[1] > left_dim:
        matrix = np.linalg.qr(matrix.T, mode="r").T
    grid = _pair_grid(_rows(matrix))
    np.square(grid, out=grid)  # the whole contiguous grid: squaring the [..., 2:] slice is slower
    return 2.0 * math.sqrt(float(np.triu(grid[..., 2:].sum(axis=2), k=1).sum()))


def quaternify(state: PureState) -> PackedState:
    return pack(state, 2)


def octonify(state: PureState) -> PackedState:
    return pack(state, 4)


def quat_project(qj: Quaternion, qk: Quaternion) -> QuatProjection:
    return project(qj, qk)


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
    check_type(qstate, PackedState, "right_module_action")
    if len(qstate) != 2 or qstate.rows.shape[1] != 4:
        raise DimensionMismatchError("right_module_action expects 2 quaternion coefficients")
    for unitary in (coefficient_unitary, fiber_unitary):
        check_type(unitary, LocalUnitary2, "right_module_action")
    mixed = coefficient_unitary.matrix @ qstate.rows.view(complex)
    scalar = np.array([[fiber_unitary.a, -fiber_unitary.b.conjugate()]]).view(float)
    return PackedState(_products(mixed.view(float), scalar)[:, 0])


def equivariance_error(state: PureState, coefficient_unitary: LocalUnitary2,
                       fiber_unitary: LocalUnitary2) -> float:
    """Largest componentwise gap between the two routes' projections.

    Route one applies the local unitaries to the state (fiber_unitary on
    the packed first qubit, coefficient_unitary on the second) and packs
    afterwards; route two acts on the packed state via
    right_module_action.  Packing and local action commute when the gap
    is zero.
    """
    if check_type(state, PureState, "equivariance_error").total_dim != 4:
        raise SplitMismatchError("the equivariance check expects a two-qubit state")
    evolved = apply_local(state, fiber_unitary, coefficient_unitary)
    moved = right_module_action(pack(state, 2), coefficient_unitary, fiber_unitary)
    # (schmidt, concurrence_part) of each route's projected pair, read off its pair grid
    (s1, c1), (s2, c2) = (_pair_grid(packed.rows)[0, 1].view(complex).tolist()
                          for packed in (pack(evolved, 2), moved))
    return max(abs(s1 - s2), abs(c1 - c2))


def verify_equivariance(state: PureState, coefficient_unitary: LocalUnitary2,
                        fiber_unitary: LocalUnitary2) -> bool:
    """Check that packing and local action commute on a two-qubit state.

    Returns True when equivariance_error is within 1e-10.
    """
    return equivariance_error(state, coefficient_unitary, fiber_unitary) <= 1e-10
