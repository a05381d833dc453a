"""Independent ground-truth concurrence computations.

Two routes that never touch the hypercomplex algebra: the sum of squared
2x2 minors of the amplitude matrix (any bipartition) and the antisymmetric
generator form (2 x N bipartitions).  Both are used to validate the
projection pipeline.  Minors matrices are held to MAX_PAIR_ENTRIES (N <= 2048)
and all SO(N) generators together to MAX_AMPLITUDES entries (N <= 76).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .states import MAX_AMPLITUDES, MAX_PAIR_ENTRIES, PureState, check_size

SO2_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def minor_concurrence(state: PureState, left_dim: int) -> float:
    """Concurrence 2*sqrt(sum of |2x2 minors|^2) of the amplitude matrix.

    Zero exactly when the matrix has rank 1, i.e. when the state is
    separable across the bipartition.  Row pair (i, j) gives the N x N
    antisymmetric minors M_ik M_jl - M_jk M_il, each once above the diagonal.
    """
    matrix = state.split_matrix(left_dim)
    check_size(matrix.shape[1] ** 2, MAX_PAIR_ENTRIES, "the matrix of minors")
    total = 0.0
    for i, j in combinations(range(left_dim), 2):
        minors = np.triu(np.outer(matrix[i], matrix[j]) - np.outer(matrix[j], matrix[i]), k=1)
        total += np.vdot(minors, minors).real
    return 2.0 * math.sqrt(total)


def _permutation_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def so_n_generators(n: int) -> list[np.ndarray]:
    """The n(n-1)/2 antisymmetric generators of SO(n) with entries in {-1, 0, 1}.

    Each generator is labeled by the multi-index of n-2 omitted axes, in
    lexicographic order; its single off-diagonal +-1 pair on the remaining
    axes (k, l) carries the sign of the Levi-Civita symbol of the full
    index sequence (omitted..., k, l).
    """
    if n < 2:
        raise DimensionMismatchError("so_n_generators requires n >= 2")
    check_size(n ** 3 * (n - 1) // 2, MAX_AMPLITUDES, f"the generators of SO({n})")
    generators = []
    for omitted in combinations(range(n), n - 2):
        k, l = sorted(set(range(n)) - set(omitted))
        sign = _permutation_sign(list(omitted) + [k, l])
        gen = np.zeros((n, n))
        gen[k, l] = sign
        gen[l, k] = -sign
        generators.append(gen)
    return generators


def generator_concurrence(state: PureState) -> float:
    """Concurrence of a [2, N] state from the antisymmetric-generator form.

    Accumulates |<psi| (S x L) |psi*>|^2 over the SO(N) generators L, with
    S the SO(2) generator and psi* the componentwise conjugate in the
    computational basis.  No extra prefactor is needed: each generator
    contributes 4|C_pq|^2 for one column pair, so the square root equals
    minor_concurrence (the Bell regression test pins this normalization).
    """
    matrix = state.split_matrix(2)
    conj = np.conj(matrix)
    psi = matrix.ravel()
    total = 0.0
    for gen in so_n_generators(matrix.shape[1]):
        tilde = SO2_GENERATOR @ conj @ gen.T
        total += abs(np.vdot(psi, tilde.ravel())) ** 2
    return math.sqrt(total)
