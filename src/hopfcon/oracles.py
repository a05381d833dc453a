"""Independent ground-truth concurrence computations.

Two routes that never touch the hypercomplex algebra: the sum of squared
2x2 minors of the amplitude matrix (any bipartition) and the antisymmetric
generator form (2 x N bipartitions).  Both are used to validate the
projection pipeline.  Each sums |T_kl|^2 over k < l of an antisymmetric
N x N term matrix T, formed a row slab at a time (_upper_sum): O(N^2) time
and O(N) memory.  The oracles share only that summation; their entry
formulas differ, and neither calls the other.  Their caps bound time, not
memory: N <= 2048 for the minors (N^2 per row pair) and N <= 2896 for the
generators (N(N-1)/2), each held to MAX_PAIR_ENTRIES.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .states import MAX_PAIR_ENTRIES, PureState, check_size

SO2_GENERATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _upper_sum(n: int, slab) -> float:
    """Sum of |T_kl|^2 over k < l of an antisymmetric n x n matrix T, a row slab at a time.

    slab(start, stop) returns rows start..stop-1 of T restricted to columns
    start..n-1.  Its leading square is antisymmetric with a zero diagonal, so
    it counts half; the rest of the slab lies above the diagonal and counts
    whole.  A slab has max(1, MAX_PAIR_ENTRIES // n^2) rows, so up to n = 161
    one slab is the whole matrix, and no slab holds more than ~26 K entries.
    """
    rows = max(1, MAX_PAIR_ENTRIES // (n * n))
    total = 0.0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        terms = slab(start, stop)
        square, rest = terms[:, :stop - start], terms[:, stop - start:]
        total += 0.5 * np.vdot(square, square).real + np.vdot(rest, rest).real
    return total


def minor_concurrence(state: PureState, left_dim: int) -> float:
    """Concurrence 2*sqrt(sum of |2x2 minors|^2) of the amplitude matrix.

    Zero exactly when the matrix has rank 1, i.e. when the state is
    separable across the bipartition.  Row pair (a, b) gives the N x N
    antisymmetric minors T = a b^T - b a^T, each counted once above the
    diagonal by _upper_sum.
    """
    matrix = state.split_matrix(left_dim)
    n = matrix.shape[1]
    check_size(n ** 2, MAX_PAIR_ENTRIES, "the matrix of minors")
    total = 0.0
    for a, b in combinations(matrix, 2):
        total += _upper_sum(n, lambda start, stop: (np.outer(a[start:stop], b[start:])
                                                    - np.outer(b[start:stop], a[start:])))
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
    is s T_kl, where T = conj(M)^T X - X^T conj(M) is antisymmetric.  The
    Levi-Civita sign s = +-1 is dropped, as the term enters only as |.|^2,
    and _upper_sum adds |T_kl|^2 over the generators' axes k < l.
    """
    matrix = state.split_matrix(2)
    n = matrix.shape[1]
    check_size(n * (n - 1) // 2, MAX_PAIR_ENTRIES, f"the generators of SO({n})")
    conj = np.conj(matrix)
    x = SO2_GENERATOR @ conj
    return math.sqrt(_upper_sum(n, lambda start, stop: (conj[:, start:stop].T @ x[:, start:]
                                                        - x[:, start:stop].T @ conj[:, start:])))
