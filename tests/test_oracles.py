import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hopfcon import (SO2_GENERATOR, SizeLimitError, apply_local, concurrence,
                     generator_concurrence, ghz_state, make_state, minor_concurrence, random_state,
                     random_unitary, w_state)

from references import so_n_generators

SQRT_HALF = 1 / math.sqrt(2)


def test_minor_concurrence_two_qubit_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        a = state.amplitudes
        expected = 2 * abs(a[0] * a[3] - a[1] * a[2])
        assert minor_concurrence(state, 2) == pytest.approx(expected, abs=1e-15)


def test_minor_concurrence_bell():
    assert abs(minor_concurrence(ghz_state(2), 2) - 1) < 1e-15


def test_minor_concurrence_w3_first_two_vs_last():
    # amplitude matrix of w(3) split [4, 2] has minors -1/3, -1/3 and four zeros
    matrix = w_state(3).split_matrix(4)
    minors = [matrix[i, 0] * matrix[j, 1] - matrix[i, 1] * matrix[j, 0]
              for i, j in combinations(range(4), 2)]
    assert sorted(np.round(np.real(minors), 12)) == pytest.approx(
        [-1 / 3, -1 / 3, 0, 0, 0, 0], abs=1e-12)
    assert abs(minor_concurrence(w_state(3), 4) - 2 * math.sqrt(2) / 3) < 1e-14


def test_minor_concurrence_rank_one_vanishes():
    rng = np.random.default_rng(1)
    for _ in range(20):
        left = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        right = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        amps = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
        state = make_state((4, 5), amps)
        assert minor_concurrence(state, 4) < 1e-12


def test_so2_generator():
    gens = so_n_generators(2)
    assert len(gens) == 1
    assert np.array_equal(gens[0], SO2_GENERATOR)
    assert np.array_equal(SO2_GENERATOR, np.array([[0, 1], [-1, 0]]))


def test_so3_generators_are_levi_civita():
    def eps(i, j, k):
        if {i, j, k} != {0, 1, 2}:
            return 0
        return 1 if (i, j, k) in {(0, 1, 2), (1, 2, 0), (2, 0, 1)} else -1

    gens = so_n_generators(3)
    assert len(gens) == 3
    for axis, gen in enumerate(gens):
        for k in range(3):
            for l in range(3):
                assert gen[k, l] == eps(axis, k, l)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_so_n_generator_shape_and_antisymmetry(n):
    gens = so_n_generators(n)
    assert len(gens) == n * (n - 1) // 2
    seen_pairs = set()
    for gen in gens:
        assert np.array_equal(gen.T, -gen)
        assert set(np.unique(gen)) <= {-1.0, 0.0, 1.0}
        nonzero = np.argwhere(gen)
        assert len(nonzero) == 2
        seen_pairs.add(tuple(sorted(map(tuple, nonzero))))
    # every off-diagonal pair appears exactly once
    assert len(seen_pairs) == n * (n - 1) // 2


def test_generator_concurrence_bell_normalization():
    # pins the prefactor of the generator form: Bell must give exactly 1
    assert abs(generator_concurrence(ghz_state(2)) - 1) < 1e-14


def test_generator_concurrence_separable():
    rng = np.random.default_rng(2)
    left = np.array([1.0, 0.0])
    right = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps = np.kron(left, right / np.linalg.norm(right))
    assert generator_concurrence(make_state((2, 4), amps)) < 1e-12


def test_generator_concurrence_matches_minor_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 6, 8):
        for _ in range(40):
            state = random_state(int(rng.integers(2 ** 31)), (2, n))
            diff = abs(generator_concurrence(state) - minor_concurrence(state, 2))
            assert diff < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
def test_generator_terms_are_twice_the_conjugate_minors(n):
    # the oracles sum the same |T_kl|^2 on 2xN, up to the factor 4: their agreement checks
    # their code, and only agreement with the hopf route checks the projection
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        matrix = random_state(int(rng.integers(2 ** 31)), (2, n)).split_matrix(2)
        a, b = matrix
        x = SO2_GENERATOR @ np.conj(matrix)
        generator_terms = np.conj(matrix).T @ x - x.T @ np.conj(matrix)
        minors = np.outer(a, b) - np.outer(b, a)
        assert np.abs(generator_terms - 2 * np.conj(minors)).max() <= 1e-15


def test_minor_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(4)
    for n1, n2 in ((2, 4), (4, 3), (3, 5)):
        for _ in range(20):
            state = random_state(int(rng.integers(2 ** 31)), (n1, n2))
            moved = apply_local(state, random_unitary(n1, rng), random_unitary(n2, rng))
            assert abs(minor_concurrence(state, n1) - minor_concurrence(moved, n1)) < 1e-10


def test_minor_concurrence_zero_iff_minors_small():
    rng = np.random.default_rng(5)
    state = random_state(int(rng.integers(2 ** 31)), (3, 3))
    matrix = state.split_matrix(3)
    minors = [abs(matrix[i, k] * matrix[j, l] - matrix[i, l] * matrix[j, k])
              for i, j in combinations(range(3), 2)
              for k, l in combinations(range(3), 2)]
    assert (minor_concurrence(state, 3) < 1e-12) == all(m < 1e-12 for m in minors)


def test_w3_generator_equals_others():
    w3 = w_state(3)
    expected = 2 * math.sqrt(2) / 3
    assert abs(generator_concurrence(w3) - expected) < 1e-13
    assert abs(minor_concurrence(w3, 2) - expected) < 1e-13


@pytest.mark.parametrize("n1, n2", [(2, 2), (2, 5), (3, 4), (4, 3), (4, 6)])
def test_minor_concurrence_equals_literal_double_loop(n1, n2):
    rng = np.random.default_rng(50 + n1 * n2)
    for _ in range(10):
        state = random_state(int(rng.integers(2 ** 31)), (n1, n2))
        matrix = state.split_matrix(n1)
        total = sum(abs(matrix[i, k] * matrix[j, l] - matrix[i, l] * matrix[j, k]) ** 2
                    for i, j in combinations(range(n1), 2)
                    for k, l in combinations(range(n2), 2))
        assert abs(minor_concurrence(state, n1) - 2 * math.sqrt(total)) < 1e-14


def test_oracles_refuse_matrices_above_limits():
    state = random_state(1, (2,) * 13)  # N = 4096 columns for the 2xN split
    with pytest.raises(SizeLimitError):
        minor_concurrence(state, 2)
    with pytest.raises(SizeLimitError):
        generator_concurrence(state)


def test_oracles_share_one_cap_on_column_pairs():
    # N(N-1)/2 <= 2**22 up to N = 2896, so a non-power-of-two N above 2048 runs in both
    inside, outside = random_state(1, (2, 2896)), random_state(1, (2, 2897))
    assert abs(minor_concurrence(inside, 2) - generator_concurrence(inside)) < 1e-12
    for oracle in (lambda state: minor_concurrence(state, 2), generator_concurrence):
        with pytest.raises(SizeLimitError, match="concurrence --method hopf"):
            oracle(outside)


def inversion_sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_generator_signs_match_inversion_count(n):
    gens = so_n_generators(n)
    omitted_all = list(combinations(range(n), n - 2))
    assert len(gens) == len(omitted_all)
    for omitted, gen in zip(omitted_all, gens):
        k, l = sorted(set(range(n)) - set(omitted))
        sign = inversion_sign(list(omitted) + [k, l])
        assert gen[k, l] == sign and gen[l, k] == -sign
        assert np.count_nonzero(gen) == 2


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_concurrence_equals_literal_dense_sum(n):
    rng = np.random.default_rng(70 + n)
    gens = so_n_generators(n)
    for _ in range(5):
        state = random_state(int(rng.integers(2 ** 31)), (2, n))
        matrix = state.split_matrix(2)
        psi = matrix.ravel()
        total = sum(abs(np.vdot(psi, (SO2_GENERATOR @ np.conj(matrix) @ gen.T).ravel())) ** 2
                    for gen in gens)
        assert abs(generator_concurrence(state) - math.sqrt(total)) <= 1e-14


def test_generator_concurrence_at_12_qubits_in_linear_memory():
    state = random_state(12, (2,) * 12)  # N = 2048 columns, 2096128 generators
    tracemalloc.start()
    try:
        value = generator_concurrence(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - minor_concurrence(state, 2)) <= 1e-12
    # O(N): a few copies of the 2 x N matrix; one N x N array would be 64 MiB
    assert peak <= 32 * state.amplitudes.nbytes


@pytest.mark.parametrize("left_dim", [2, 4])
def test_minor_concurrence_at_12_qubits_in_linear_memory(left_dim):
    state = random_state(12, (2,) * 12)  # N = 2048 (2xN) or 1024 (4xN) columns
    tracemalloc.start()
    try:
        value = minor_concurrence(state, left_dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - concurrence(state, left_dim)) <= 1e-12
    # O(N): one N x N matrix of minors would be 64 MiB (2xN) or 16 MiB (4xN)
    assert peak <= 32 * state.amplitudes.nbytes


# the oracles sum in row slabs of 2**22 // N**2 rows: N = 200 gives 104-row slabs and a
# 96-row last one, N = 256 four slabs of 64 rows
@pytest.mark.parametrize("n1, n2", [(2, 200), (4, 200), (2, 256), (4, 256)])
def test_minor_concurrence_over_row_slabs_equals_literal_double_loop(n1, n2):
    state = random_state(80 + n1 + n2, (n1, n2))
    rows = state.split_matrix(n1).tolist()
    total = sum(abs(a[k] * b[l] - a[l] * b[k]) ** 2
                for a, b in combinations(rows, 2)
                for k, l in combinations(range(n2), 2))
    assert abs(minor_concurrence(state, n1) - 2 * math.sqrt(total)) < 1e-14


@pytest.mark.parametrize("n", [200, 256])
def test_generator_concurrence_over_row_slabs_equals_literal_double_loop(n):
    state = random_state(90 + n, (2, n))
    conj = np.conj(state.split_matrix(2)).tolist()
    s = SO2_GENERATOR.tolist()
    # the generator on axes k < l has L[k, l] = 1 = -L[l, k], so <psi| (S x L) |psi*> is the
    # sum over i, j of S_ij (conj(psi_ik) conj(psi_jl) - conj(psi_il) conj(psi_jk))
    total = sum(abs(sum(s[i][j] * (conj[i][k] * conj[j][l] - conj[i][l] * conj[j][k])
                        for i in range(2) for j in range(2))) ** 2
                for k, l in combinations(range(n), 2))
    assert abs(generator_concurrence(state) - math.sqrt(total)) < 1e-14
