import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfcon
from hopfcon import (DimensionMismatchError, LocalUnitary2, NormalizationError,
                     OctProjection, Octonion, PackedState, PureState, QuatProjection, Quaternion,
                     SizeLimitError, SplitMismatchError, apply_local, concurrence,
                     equivariance_error, generator_concurrence, ghz_state, make_state,
                     minor_concurrence, pack, pair_projections, project,
                     random_local_unitary, random_state, random_unitary,
                     right_module_action, w_state)

from references import (exact_concurrence, oct_projection_bilinear, quat_projection_bilinear,
                        transformed_schmidt_part)

SQRT_HALF = 1 / math.sqrt(2)


def complex_split(x) -> list:
    """Complex parts (x0 + i*x1, x2 + i*x3, ...) of a quaternion or octonion."""
    return np.array(x.coefficients()).view(complex).tolist()


def hyper_squared(p) -> float:
    """|s1|^2 + |s2|^2 + |s3|^2, the squared hypercomplex parts of an octonion pair."""
    return abs(p.s1) ** 2 + abs(p.s2) ** 2 + abs(p.s3) ** 2


def product_state(rng, left_dim, right_dim):
    left = rng.standard_normal(left_dim) + 1j * rng.standard_normal(left_dim)
    right = rng.standard_normal(right_dim) + 1j * rng.standard_normal(right_dim)
    amps = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
    return make_state((left_dim, right_dim), amps)


# ---------------------------------------------------------------- packing

def test_quaternify_bell():
    q0, q1 = pack(ghz_state(2), 2).coefficients
    assert q0 == Quaternion(SQRT_HALF, 0, 0, 0)
    assert q1 == Quaternion(0, 0, SQRT_HALF, 0)


def test_quaternify_w3():
    s = 1 / math.sqrt(3)
    coeffs = pack(w_state(3), 2).coefficients
    assert coeffs[0] == Quaternion(0, 0, s, 0)
    assert coeffs[1] == Quaternion(s, 0, 0, 0)
    assert coeffs[2] == Quaternion(s, 0, 0, 0)
    assert coeffs[3] == Quaternion(0, 0, 0, 0)


def test_quaternify_of_left_zero_product_is_complex():
    state = product_state(np.random.default_rng(0), 2, 4)
    matrix = state.split_matrix(2)
    # force the packed qubit to |0>: only complex slots survive
    amps = np.zeros_like(matrix)
    amps[0] = matrix[0] / np.linalg.norm(matrix[0])
    forced = make_state((2, 4), amps.ravel())
    coeffs = pack(forced, 2).coefficients
    assert all(q.x2 == 0 and q.x3 == 0 for q in coeffs)
    assert concurrence(forced, 2) < 1e-12


def test_octonify_of_left_zero_product_is_complex():
    rng = np.random.default_rng(1)
    right = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps = np.kron([1, 0, 0, 0], right / np.linalg.norm(right))
    coeffs = pack(make_state((4, 4), amps), 4).coefficients
    assert all(o.coefficients()[2:] == (0,) * 6 for o in coeffs)


def test_quaternify_requires_leading_qubit():
    with pytest.raises(SplitMismatchError):
        pack(random_state(1, (3, 2)), 2)


def test_octonify_ghz3():
    o0, o1 = pack(ghz_state(3), 4).coefficients
    assert o0 == Octonion(SQRT_HALF, 0, 0, 0, 0, 0, 0, 0)
    # conjugated final slot puts the amplitude of |111> on +e6
    assert o1 == Octonion(0, 0, 0, 0, 0, 0, SQRT_HALF, 0)


def test_octonify_w3():
    s = 1 / math.sqrt(3)
    o0, o1 = pack(w_state(3), 4).coefficients
    assert o0 == Octonion(0, 0, s, 0, s, 0, 0, 0)
    assert o1 == Octonion(s, 0, 0, 0, 0, 0, 0, 0)


def test_octonify_slot_layout():
    amps = np.array([1, 2j, 3, 4 + 5j, 0, 0, 0, 0], dtype=complex)
    amps /= np.linalg.norm(amps)
    state = make_state((4, 2), amps)
    o0 = pack(state, 4).coefficients[0]
    assert tuple(pack(state, 4).rows[0]) == o0.coefficients()
    z0, z1, z2, z3 = complex_split(o0)
    matrix = state.split_matrix(4)
    assert z0 == matrix[0, 0]
    assert z1 == matrix[1, 0]
    assert z2 == matrix[2, 0]
    assert z3 == np.conj(matrix[3, 0])


def test_octonify_requires_leading_ququart():
    with pytest.raises(SplitMismatchError):
        pack(random_state(2, (2, 3)), 4)


def test_packing_preserves_norm():
    state = random_state(11, (2, 2, 2, 2))
    assert abs(np.sum(pack(state, 2).rows ** 2) - 1) < 1e-12
    assert abs(np.sum(pack(state, 4).rows ** 2) - 1) < 1e-12


# ------------------------------------------------------------- projection

def test_quat_project_bell():
    proj = project(*pack(ghz_state(2), 2).coefficients)
    assert proj.schmidt == 0
    assert abs(abs(proj.concurrence_part) - 0.5) < 1e-15


def test_quat_project_product_state_vanishes():
    proj = project(Quaternion(1, 0, 0, 0), Quaternion())
    assert proj.schmidt == 0 and proj.concurrence_part == 0


def test_quat_project_schmidt_weights():
    lam = 0.3
    state = make_state((2, 2), [math.sqrt(lam), 0, 0, math.sqrt(1 - lam)])
    proj = project(*pack(state, 2).coefficients)
    assert abs(proj.schmidt) < 1e-15
    assert abs(abs(proj.concurrence_part) - math.sqrt(lam * (1 - lam))) < 1e-15


def test_quat_projection_reconstructs_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        qa = Quaternion(*rng.standard_normal(4))
        qb = Quaternion(*rng.standard_normal(4))
        expected = QuatProjection(*complex_split(qa * qb.conjugate()))
        assert project(qa, qb) == expected


def test_quat_projection_bilinear_cross_check():
    rng = np.random.default_rng(4)
    for _ in range(50):
        state = random_state(int(rng.integers(2 ** 31)), (2, 4))
        matrix = state.split_matrix(2)
        qstate = pack(state, 2)
        for j, k, proj in pair_projections(qstate):
            schmidt, minor = quat_projection_bilinear(matrix[:, j], matrix[:, k])
            assert abs(proj.schmidt - schmidt) < 1e-14
            # computed e2 part is the negative of the column minor
            assert abs(proj.concurrence_part + minor) < 1e-14


def test_oct_project_ghz3_pair():
    proj = project(*pack(ghz_state(3), 4).coefficients)
    assert proj.s0 == 0 and proj.s1 == 0 and proj.s2 == 0
    assert abs(hyper_squared(proj) - 0.25) < 1e-15
    assert abs(abs(proj.s3) - 0.5) < 1e-15


def test_oct_project_zero_pair():
    proj = project(Octonion(1), Octonion())
    assert proj.s0 == proj.s1 == proj.s2 == proj.s3 == 0


@pytest.mark.parametrize("a, b", [
    (Quaternion(1), Octonion(1)), (Octonion(1), Quaternion(1)),
    ((1.0, 0.0, 0.0, 0.0), Quaternion(1)), (Quaternion(1), np.array([1.0, 0.0, 0.0, 0.0])),
], ids=["quaternion-octonion", "octonion-quaternion", "tuple", "ndarray"])
def test_project_takes_two_elements_of_one_algebra(a, b):
    with pytest.raises(DimensionMismatchError, match="two elements of one algebra"):
        project(a, b)


def test_oct_project_separable_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        state = product_state(rng, 4, 3)
        for _, _, proj in pair_projections(pack(state, 4)):
            assert math.sqrt(hyper_squared(proj)) < 1e-12


def test_oct_projection_reconstructs_product():
    rng = np.random.default_rng(6)
    for _ in range(20):
        oa = Octonion(*rng.standard_normal(8))
        ob = Octonion(*rng.standard_normal(8))
        assert project(oa, ob) == OctProjection(*complex_split(oa * ob.conjugate()))


@pytest.mark.parametrize("left_dim", [2, 4])
def test_pair_projections_are_project_of_each_coefficient_pair(left_dim):
    # the routes' (N, N, d) grid kernel against the element product a * conj(b); the
    # amplitudes (+-1 +-i) / 8 are dyadic, so both are exact and agree bit for bit
    rng = np.random.default_rng(left_dim)
    amplitudes = (rng.choice([-1.0, 1.0], 32) + 1j * rng.choice([-1.0, 1.0], 32)) / 8
    packed = pack(make_state((2,) * 5, amplitudes), left_dim)
    c = packed.coefficients
    assert pair_projections(packed) == [(j, k, project(c[j], c[k]))
                                        for j, k in combinations(range(len(c)), 2)]


def test_oct_projection_bilinear_cross_check():
    # the amplitude-level formulas must agree with literal octonion products
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = random_state(int(rng.integers(2 ** 31)), (4, 3))
        matrix = state.split_matrix(4)
        generic = pair_projections(pack(state, 4))
        for k, l, proj in generic:
            s0, s1, s2, s3 = oct_projection_bilinear(matrix[:, k], matrix[:, l])
            assert abs(proj.s0 - s0) < 1e-14
            assert abs(proj.s1 - s1) < 1e-14
            assert abs(proj.s2 - s2) < 1e-14
            assert abs(proj.s3 - s3) < 1e-14


def unit_vector(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# Three-qubit products ABC, a qubit times a pair, by einsum; pack(state, 4) packs A and B.
# Each class with the indices of the parts (s1, s2, s3) that vanish on it.
PRODUCT_CLASSES = {"A|BC": ("a,bc->abc", [1]), "B|AC": ("b,ac->abc", [0]),
                   "AB|C": ("c,ab->abc", [0, 1, 2])}


@pytest.mark.parametrize("cut", PRODUCT_CLASSES)
def test_each_octonionic_part_vanishes_on_its_product_class(cut):
    # s1 holds the minors of rows that differ in B alone, s2 in A alone, s3 in both
    spec, vanishing = PRODUCT_CLASSES[cut]
    rng = np.random.default_rng(160)
    parts = []
    for _ in range(200):
        amplitudes = np.einsum(spec, unit_vector(rng, 2), unit_vector(rng, 4).reshape(2, 2))
        [(_, _, proj)] = pair_projections(pack(make_state((2, 2, 2), amplitudes.ravel()), 4))
        parts.append((abs(proj.s1), abs(proj.s2), abs(proj.s3)))
    largest = np.max(parts, axis=0)
    assert [i for i in range(3) if largest[i] <= 2e-16] == vanishing
    assert all(largest[i] >= 0.1 for i in range(3) if i not in vanishing)


def test_w3_lies_in_s1_and_s2():
    # GHZ3 lies wholly in s3 (test_oct_project_ghz3_pair)
    [(_, _, w)] = pair_projections(pack(w_state(3), 4))
    assert (w.s0, w.s3) == (0, 0)
    assert abs(w.s1 - 1 / 3) <= 2e-16 and abs(w.s2 - 1 / 3) <= 2e-16


def test_pluecker_cancellation_needs_the_conjugated_last_slot():
    # sum |s_i|^2 = sum |m_ab|^2 + 2 Re(m01 m23 - m02 m13 + m03 m12), and the bracket is the
    # Pluecker relation of a 4 x 2 matrix, 0; packed without the conjugate it does not cancel
    rng = np.random.default_rng(161)
    with_conjugate, without = [], []
    for _ in range(100):
        matrix = random_state(int(rng.integers(2 ** 31)), (4, 2)).split_matrix(4)
        minors = {(a, b): matrix[a, 0] * matrix[b, 1] - matrix[b, 0] * matrix[a, 1]
                  for a, b in combinations(range(4), 2)}
        assert abs(minors[0, 1] * minors[2, 3] - minors[0, 2] * minors[1, 3]
                   + minors[0, 3] * minors[1, 2]) <= 1e-16
        total = sum(abs(m) ** 2 for m in minors.values())
        unconjugated = PackedState(matrix.T.copy().view(float))
        for packed, gaps in ((pack(make_state((4, 2), matrix.ravel()), 4), with_conjugate),
                             (unconjugated, without)):
            [(_, _, proj)] = pair_projections(packed)
            gaps.append(abs(hyper_squared(proj) - total))
    assert max(with_conjugate) <= 1e-15
    assert max(without) >= 0.05


# ------------------------------------------------------------ concurrence

@pytest.mark.parametrize("m", range(2, 7))
def test_quat_concurrence_ghz(m):
    assert abs(concurrence(ghz_state(m), 2) - 1) < 1e-12


@pytest.mark.parametrize("m", range(2, 7))
def test_quat_concurrence_w(m):
    expected = 2 * math.sqrt(m - 1) / m
    assert abs(concurrence(w_state(m), 2) - expected) < 1e-12


def test_quat_concurrence_separable():
    rng = np.random.default_rng(8)
    for _ in range(10):
        assert concurrence(product_state(rng, 2, 8), 2) < 1e-12


@pytest.mark.parametrize("m", range(3, 7))
def test_oct_concurrence_ghz(m):
    assert abs(concurrence(ghz_state(m), 4) - 1) < 1e-10


@pytest.mark.parametrize("m", range(3, 7))
def test_oct_concurrence_w(m):
    expected = 2 * math.sqrt(2 * (m - 2)) / m
    assert abs(concurrence(w_state(m), 4) - expected) < 1e-10


def test_oct_concurrence_separable():
    rng = np.random.default_rng(9)
    for _ in range(10):
        assert concurrence(product_state(rng, 4, 4), 4) < 1e-12


def test_quat_concurrence_matches_minor_oracle():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4, 8):
        for _ in range(40):
            state = random_state(int(rng.integers(2 ** 31)), (2, n))
            assert abs(concurrence(state, 2) - minor_concurrence(state, 2)) < 1e-12


def test_oct_concurrence_matches_minor_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 8):
        for _ in range(40):
            state = random_state(int(rng.integers(2 ** 31)), (4, n))
            assert abs(concurrence(state, 4) - minor_concurrence(state, 4)) < 1e-10


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(12)
    for left_dim in (2, 4):
        for _ in range(25):
            state = random_state(int(rng.integers(2 ** 31)), (left_dim, 5))
            moved = apply_local(state, random_unitary(left_dim, rng),
                                random_unitary(5, rng))
            assert abs(concurrence(state, left_dim) - concurrence(moved, left_dim)) < 1e-10


# ------------------------------------------------------ compressed route

def pairwise_concurrence(state, left_dim):
    """2 * sqrt(sum of hypercomplex parts) over every pair of the N packed coefficients."""
    pairs = pair_projections(pack(state, left_dim))
    if left_dim == 2:
        return 2 * math.sqrt(sum(abs(p.concurrence_part) ** 2 for _, _, p in pairs))
    return 2 * math.sqrt(sum(hyper_squared(p) for _, _, p in pairs))


def svd_concurrence(matrix):
    """2 * sqrt(sum over i < j of s_i^2 s_j^2) from the singular values."""
    w = np.linalg.svd(matrix, compute_uv=False) ** 2
    return 2 * math.sqrt(sum(w[i] * w[j] for i in range(len(w)) for j in range(i + 1, len(w))))


@pytest.mark.parametrize("left_dim, right_dim", [(2, 5), (4, 5), (2, 16), (4, 8)])
@pytest.mark.parametrize("seed", range(5))
def test_schmidt_parts_are_the_reduced_density_matrix(seed, left_dim, right_dim):
    # the abstract's split: each pair's complex part is rho_B[j, k] = (M^T conj(M))[j, k],
    # the rest is the concurrence term, and together tr rho_B^2 + C^2 / 2 = 1
    state = random_state(seed, (left_dim, right_dim))
    packed = pack(state, left_dim)
    rho = state.split_matrix(left_dim).T @ state.split_matrix(left_dim).conj()
    norms = np.sum(packed.rows ** 2, axis=1)  # |c_j|^2
    purity = float(np.sum(norms ** 2))  # the diagonal, |c_j|^4
    for j, k, p in pair_projections(packed):
        schmidt = p.schmidt if left_dim == 2 else p.s0
        hyper = abs(p.concurrence_part) ** 2 if left_dim == 2 else hyper_squared(p)
        assert abs(schmidt - rho[j, k]) <= 2e-16
        # |c_j conj(c_k)| = |c_j| |c_k| splits each pair, not only the sum over pairs
        assert abs(abs(schmidt) ** 2 + hyper - norms[j] * norms[k]) <= 2e-16
        purity += 2 * abs(schmidt) ** 2
    assert abs(purity + pairwise_concurrence(state, left_dim) ** 2 / 2 - 1) <= 4e-15


@pytest.mark.parametrize("left_dim", [2, 4])
@pytest.mark.parametrize("m", range(3, 11))
def test_compressed_concurrence_matches_pair_projections(m, left_dim):
    for state in (random_state(100 + m, (2,) * m), ghz_state(m), w_state(m)):
        assert abs(concurrence(state, left_dim) - pairwise_concurrence(state, left_dim)) <= 1e-12


def test_compressed_concurrence_matches_svd_at_12_qubits():
    for seed in range(4):
        state = random_state(200 + seed, (2,) * 12)
        for left_dim in (2, 4):
            expected = svd_concurrence(state.split_matrix(left_dim))
            assert abs(concurrence(state, left_dim) - expected) <= 1e-12


@pytest.mark.parametrize("m", [16, 20])
def test_compressed_concurrence_closed_forms_past_the_pair_grid(m):
    # the N x N pair grid at these sizes would need gigabytes to terabytes
    for left_dim, p in ((2, 1 / m), (4, 2 / m)):
        assert abs(concurrence(ghz_state(m), left_dim) - 1) <= 1e-12
        assert abs(concurrence(w_state(m), left_dim) - 2 * math.sqrt(p * (1 - p))) <= 1e-12


def schmidt_form_state(rng, m, left_dim, target, tall=False):
    """sqrt(lam)|u0 v0> + sqrt(1-lam)|u1 v1> under random local unitaries, and its concurrence.

    With tall=True, v0 and v1 come from a QR of an N x 2 Gaussian, not an N x N unitary.
    """
    lam = target * target / (2 * (1 + math.sqrt(1 - target * target)))  # no cancellation
    u = random_unitary(left_dim, rng)
    n = 2 ** m // left_dim
    if tall:
        v = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))[0]
    else:
        v = random_unitary(n, rng)
    matrix = (math.sqrt(lam) * np.outer(u[:, 0], v[:, 0])
              + math.sqrt(1 - lam) * np.outer(u[:, 1], v[:, 1]))
    return make_state((2,) * m, matrix.ravel()), 2 * math.sqrt(lam * (1 - lam))


@pytest.mark.parametrize("left_dim", [2, 4])
@pytest.mark.parametrize("m", [4, 8, 10])
def test_near_separable_absolute_error_bound(m, left_dim):
    rng = np.random.default_rng(300 + 10 * m + left_dim)
    for target in (1e-2, 1e-4, 2e-6, 2e-8, 1e-10):
        state, expected = schmidt_form_state(rng, m, left_dim, target)
        assert abs(concurrence(state, left_dim) - expected) <= 1e-14
        assert abs(pairwise_concurrence(state, left_dim) - expected) <= 1e-14
        if left_dim == 2:
            assert abs(generator_concurrence(state) - expected) <= 1e-14


@pytest.mark.parametrize("left_dim", [2, 4])
@pytest.mark.parametrize("m", [16, 20])
def test_near_separable_absolute_error_bound_past_the_pair_grid(m, left_dim):
    rng = np.random.default_rng(400 + 10 * m + left_dim)
    for target in (1e-2, 1e-6, 1e-10):
        state, expected = schmidt_form_state(rng, m, left_dim, target, tall=True)
        assert abs(concurrence(state, left_dim) - expected) <= 1e-14


def test_exact_concurrence_is_exact_on_dyadic_matrices():
    assert exact_concurrence(np.array([[0.5, 0], [0, 0.5j]])) == 0.5
    assert exact_concurrence(np.array([[2.0 ** -600, 0], [0, 2.0 ** 600]])) == 2.0
    assert exact_concurrence(np.array([[0.25, 0.5], [0.5 + 1j, 1 + 2j]])) == 0.0


@pytest.mark.parametrize("left_dim", [2, 4])
@pytest.mark.parametrize("m", [4, 5, 6])
def test_near_separable_error_against_the_exact_integer_oracle(m, left_dim):
    # the exact concurrence of the stored floats, not the nominal target, which itself
    # rounds; both routes sit within 1e-15 of it down to C = 1e-10
    rng = np.random.default_rng(500 + 10 * m + left_dim)
    for target in (1e-2, 1e-6, 1e-10):
        state, _ = schmidt_form_state(rng, m, left_dim, target)
        exact = exact_concurrence(state.split_matrix(left_dim))
        assert abs(concurrence(state, left_dim) - exact) <= 1e-15
        assert abs(minor_concurrence(state, left_dim) - exact) <= 1e-15


def test_pair_projections_refuse_grid_above_limit():
    with pytest.raises(SizeLimitError):
        pair_projections(pack(random_state(1, (2,) * 13), 2))
    with pytest.raises(SizeLimitError):
        pair_projections(pack(random_state(1, (2,) * 14), 4))


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 8), st.sampled_from([2, 4]),
       st.lists(st.floats(0, 1), min_size=4, max_size=4))
def test_concurrence_bounded_and_locally_invariant(seed, m, left_dim, weights):
    # Schmidt form U diag(sqrt(w)) V^T spans product through maximally entangled states
    rng = np.random.default_rng(seed)
    n = 2 ** m // left_dim
    weights = np.array(weights[:min(left_dim, n)])
    assume(weights.sum() > 1e-3)
    u, v, k = random_unitary(left_dim, rng), random_unitary(n, rng), len(weights)
    matrix = u[:, :k] * np.sqrt(weights / weights.sum()) @ v[:, :k].T
    state = make_state((2,) * m, matrix.ravel())
    value = concurrence(state, left_dim)
    assert 0 <= value <= math.sqrt(2 * (left_dim - 1) / left_dim) + 1e-12
    moved = apply_local(state, random_unitary(left_dim, rng), random_unitary(n, rng))
    phased = make_state(state.dims, np.exp(2j * math.pi * rng.random()) * state.amplitudes)
    assert abs(concurrence(moved, left_dim) - value) <= 1e-12
    assert abs(concurrence(phased, left_dim) - value) <= 1e-12


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.sampled_from([2, 4]))
def test_concurrence_vanishes_on_products(seed, m, left_dim):
    assume(2 ** m > left_dim)
    state = product_state(np.random.default_rng(seed), left_dim, 2 ** m // left_dim)
    assert concurrence(state, left_dim) <= 1e-14


# ----------------------------------------------------------- right module

def identity_unitary():
    return LocalUnitary2(1.0, 0.0)


def test_right_module_identity():
    qstate = pack(ghz_state(2), 2)
    moved = right_module_action(qstate, identity_unitary(), identity_unitary())
    assert moved.coefficients == qstate.coefficients


def test_right_module_fiber_factor_cancels_in_projection():
    rng = np.random.default_rng(13)
    for _ in range(30):
        qstate = pack(random_state(int(rng.integers(2 ** 31)), (2, 2)), 2)
        fiber = random_local_unitary(rng)
        moved = right_module_action(qstate, identity_unitary(), fiber)
        before = project(*qstate.coefficients)
        after = project(*moved.coefficients)
        assert abs(before.schmidt - after.schmidt) < 1e-14
        assert abs(before.concurrence_part - after.concurrence_part) < 1e-14


def test_right_module_preserves_bell_concurrence_part():
    rng = np.random.default_rng(14)
    qstate = pack(ghz_state(2), 2)
    for _ in range(30):
        moved = right_module_action(qstate, random_local_unitary(rng),
                                    random_local_unitary(rng))
        proj = project(*moved.coefficients)
        assert abs(abs(proj.concurrence_part) - 0.5) < 1e-12


def test_right_module_preserves_norm():
    rng = np.random.default_rng(15)
    for _ in range(20):
        qstate = pack(random_state(int(rng.integers(2 ** 31)), (2, 2)), 2)
        moved = right_module_action(qstate, random_local_unitary(rng),
                                    random_local_unitary(rng))
        assert abs(np.sum(moved.rows ** 2) - 1) < 1e-12


def test_right_module_requires_two_coefficients():
    qstate = pack(ghz_state(3), 2)
    with pytest.raises(ValueError):
        right_module_action(qstate, identity_unitary(), identity_unitary())


# ------------------------------------------------------------ equivariance

def test_equivariance_identity():
    state = random_state(16, (2, 2))
    assert equivariance_error(state, identity_unitary(), identity_unitary()) <= 1e-10


def test_equivariance_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        assert equivariance_error(state, random_local_unitary(rng),
                                  random_local_unitary(rng)) <= 1e-10


def test_equivariance_error_matches_the_coefficient_object_route():
    def by_objects(state, coeff_u, fiber_u):
        via_state = project(*pack(apply_local(state, fiber_u, coeff_u), 2).coefficients)
        via_module = project(*right_module_action(pack(state, 2), coeff_u,
                                                  fiber_u).coefficients)
        return max(abs(via_state.schmidt - via_module.schmidt),
                   abs(via_state.concurrence_part - via_module.concurrence_part))

    rng = np.random.default_rng(21)
    for _ in range(200):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        coeff_u, fiber_u = random_local_unitary(rng), random_local_unitary(rng)
        error = equivariance_error(state, coeff_u, fiber_u)
        assert abs(error - by_objects(state, coeff_u, fiber_u)) <= 1e-15


def test_transformed_schmidt_closed_form():
    rng = np.random.default_rng(18)
    for _ in range(100):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        qstate = pack(state, 2)
        coeff_u = random_local_unitary(rng)
        moved = right_module_action(qstate, coeff_u, identity_unitary())
        expected = transformed_schmidt_part(qstate, coeff_u)
        assert abs(project(*moved.coefficients).schmidt - expected) < 1e-10


# The benchmark (perfbench/) labels each call it times "<module>.<__name__>",
# so these names must stay functions defined in their own modules.
TRACED_NAMES = ("hypercomplex.quat_mul", "hypercomplex.oct_mul",
                "projection.quaternify", "projection.octonify",
                "projection.quat_project", "projection.quat_pair_projections",
                "projection.oct_pair_projections", "projection.quat_concurrence",
                "projection.oct_concurrence", "projection.right_module_action",
                "projection.verify_equivariance")


def test_traced_names_keep_their_module_and_name():
    for label in TRACED_NAMES:
        module, name = label.split(".")
        fn = getattr(hopfcon, name)
        assert (fn.__module__, fn.__name__) == (f"hopfcon.{module}", name)


@pytest.mark.parametrize("left_dim", [2, 4])
def test_pack_accepts_every_state_pure_state_accepts(left_dim):
    # norm 1 + 5e-7 is inside PureState's tolerance; pack must not apply a tighter one
    unit = random_state(41, (2, 2, 2))
    state = PureState(unit.dims, (1 + 5e-7) * unit.amplitudes)
    assert abs(pairwise_concurrence(state, left_dim) - concurrence(state, left_dim)) <= 1e-12


def test_quaterstate_of_unnormalized_quaternions_raises_normalization_error():
    with pytest.raises(NormalizationError):  # a ValueError too
        PackedState(np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]))
