"""Independent ground-truth concurrence computations.

Two routes that never touch the hypercomplex algebra: the sum of squared
2x2 minors of the amplitude matrix (any bipartition) and the antisymmetric
generator form (2 x N bipartitions).  Both are used to validate the
projection pipeline.  Minors matrices are held to MAX_PAIR_ENTRIES entries
(N <= 2048), the generator form to MAX_PAIR_ENTRIES generators (N <= 2896).
The generator form never calls the minors route and never forms the
contracted product M^H S conj(M), whose entries are the minors.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .states import MAX_PAIR_ENTRIES, PureState, check_size

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


def generator_concurrence(state: PureState) -> float:
    """Concurrence of a [2, N] state from the antisymmetric-generator form.

    Accumulates |<psi| (S x L) |psi*>|^2 over the SO(N) generators L, with
    S the SO(2) generator and psi* the componentwise conjugate in the
    computational basis.  No extra prefactor is needed: each generator
    contributes 4|C_pq|^2 for one column pair, so the square root equals
    minor_concurrence (the Bell regression test pins this normalization).

    Each generator is evaluated from its two nonzeros, never built: with
    L[k, l] = s = -L[l, k] and X = S conj(M), the term <psi| vec(S conj(M) L^T)
    is s (conj(M_k) . X_l - conj(M_l) . X_k) over the columns of M.  The
    Levi-Civita sign s = +-1 is dropped: the term enters only as |.|^2.
    The walk keeps the literal generator order, k descending, then l
    descending, vectorized over l for each k: O(N^2) time and O(N) memory.
    """
    matrix = state.split_matrix(2)
    n = matrix.shape[1]
    check_size(n * (n - 1) // 2, MAX_PAIR_ENTRIES, f"the generators of SO({n})")
    conj = np.conj(matrix)
    x = SO2_GENERATOR @ conj
    total = 0.0
    for k in range(n - 2, -1, -1):
        # columns l = n-1, ..., k+1 as views
        terms = conj[:, k] @ x[:, :k:-1] - x[:, k] @ conj[:, :k:-1]
        total += np.vdot(terms, terms).real
    return math.sqrt(total)
