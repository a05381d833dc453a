import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfcon
from hopfcon import (LocalUnitary2, NormalizationError, Octonion, PureState,
                     Quaternion, SizeLimitError, SplitMismatchError, apply_local,
                     concurrence, equivariance_error, generator_concurrence, ghz_state,
                     make_state,
                     minor_concurrence, oct_concurrence, oct_pair_projections,
                     oct_project, octonify, pack,
                     pair_projections, project, quat_concurrence,
                     quat_pair_projections, quat_project, quaternify,
                     random_local_unitary, random_state, random_unitary,
                     right_module_action, verify_equivariance, w_state)
from hopfcon.projection import QuaterState

from references import (oct_projection_bilinear, quat_projection_bilinear,
                        transformed_schmidt_part)

SQRT_HALF = 1 / math.sqrt(2)


def product_state(rng, left_dim, right_dim):
    left = rng.standard_normal(left_dim) + 1j * rng.standard_normal(left_dim)
    right = rng.standard_normal(right_dim) + 1j * rng.standard_normal(right_dim)
    amps = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
    return make_state((left_dim, right_dim), amps)


# ---------------------------------------------------------------- packing

def test_quaternify_bell():
    q0, q1 = quaternify(ghz_state(2)).coefficients
    assert q0 == Quaternion(SQRT_HALF, 0, 0, 0)
    assert q1 == Quaternion(0, 0, SQRT_HALF, 0)


def test_quaternify_w3():
    s = 1 / math.sqrt(3)
    coeffs = quaternify(w_state(3)).coefficients
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
    coeffs = quaternify(forced).coefficients
    assert all(q.x2 == 0 and q.x3 == 0 for q in coeffs)
    assert quat_concurrence(forced) < 1e-12


def test_octonify_of_left_zero_product_is_complex():
    rng = np.random.default_rng(1)
    right = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps = np.kron([1, 0, 0, 0], right / np.linalg.norm(right))
    coeffs = octonify(make_state((4, 4), amps)).coefficients
    assert all(o.coefficients()[2:] == (0,) * 6 for o in coeffs)


def test_quaternify_requires_leading_qubit():
    with pytest.raises(SplitMismatchError):
        quaternify(random_state(1, (3, 2)))


def test_octonify_ghz3():
    o0, o1 = octonify(ghz_state(3)).coefficients
    assert o0 == Octonion(SQRT_HALF, 0, 0, 0, 0, 0, 0, 0)
    # conjugated final slot puts the amplitude of |111> on +e6
    assert o1 == Octonion(0, 0, 0, 0, 0, 0, SQRT_HALF, 0)


def test_octonify_w3():
    s = 1 / math.sqrt(3)
    o0, o1 = octonify(w_state(3)).coefficients
    assert o0 == Octonion(0, 0, s, 0, s, 0, 0, 0)
    assert o1 == Octonion(s, 0, 0, 0, 0, 0, 0, 0)


def test_octonify_slot_layout():
    amps = np.array([1, 2j, 3, 4 + 5j, 0, 0, 0, 0], dtype=complex)
    amps /= np.linalg.norm(amps)
    state = make_state((4, 2), amps)
    o0 = octonify(state).coefficients[0]
    assert tuple(pack(state, 4).rows[0]) == o0.coefficients()
    z0, z1, z2, z3 = o0.complex_quadruple()
    matrix = state.split_matrix(4)
    assert z0 == matrix[0, 0]
    assert z1 == matrix[1, 0]
    assert z2 == matrix[2, 0]
    assert z3 == np.conj(matrix[3, 0])


def test_octonify_requires_leading_ququart():
    with pytest.raises(SplitMismatchError):
        octonify(random_state(2, (2, 3)))


def test_packing_preserves_norm():
    state = random_state(11, (2, 2, 2, 2))
    assert abs(quaternify(state).norm_squared() - 1) < 1e-12
    assert abs(octonify(state).norm_squared() - 1) < 1e-12


# ------------------------------------------------------------- projection

def test_quat_project_bell():
    proj = quat_project(*quaternify(ghz_state(2)).coefficients)
    assert proj.schmidt == 0
    assert abs(proj.concurrence_magnitude - 0.5) < 1e-15


def test_quat_project_product_state_vanishes():
    proj = quat_project(Quaternion(1, 0, 0, 0), Quaternion())
    assert proj.schmidt == 0 and proj.concurrence_part == 0


def test_quat_project_schmidt_weights():
    lam = 0.3
    state = make_state((2, 2), [math.sqrt(lam), 0, 0, math.sqrt(1 - lam)])
    proj = quat_project(*quaternify(state).coefficients)
    assert abs(proj.schmidt) < 1e-15
    assert abs(proj.concurrence_magnitude - math.sqrt(lam * (1 - lam))) < 1e-15


def test_quat_projection_reconstructs_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        qa = Quaternion(*rng.standard_normal(4))
        qb = Quaternion(*rng.standard_normal(4))
        proj = quat_project(qa, qb)
        from hopfcon import quat_conj, quat_mul
        assert proj.reconstruct() == quat_mul(qa, quat_conj(qb))
        assert project(qa, qb).reconstruct() == quat_mul(qa, quat_conj(qb))


def test_quat_projection_bilinear_cross_check():
    rng = np.random.default_rng(4)
    for _ in range(50):
        state = random_state(int(rng.integers(2 ** 31)), (2, 4))
        matrix = state.split_matrix(2)
        qstate = quaternify(state)
        for j, k, proj in quat_pair_projections(qstate):
            schmidt, minor = quat_projection_bilinear(matrix[:, j], matrix[:, k])
            assert abs(proj.schmidt - schmidt) < 1e-14
            # computed e2 part is the negative of the column minor
            assert abs(proj.concurrence_part + minor) < 1e-14


def test_oct_project_ghz3_pair():
    proj = oct_project(*octonify(ghz_state(3)).coefficients)
    assert proj.s0 == 0 and proj.s1 == 0 and proj.s2 == 0
    assert abs(proj.hyper_norm_squared - 0.25) < 1e-15
    assert abs(abs(proj.s3) - 0.5) < 1e-15


def test_oct_project_zero_pair():
    proj = oct_project(Octonion(1), Octonion())
    assert proj.s0 == proj.s1 == proj.s2 == proj.s3 == 0


def test_oct_project_separable_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        state = product_state(rng, 4, 3)
        for _, _, proj in oct_pair_projections(octonify(state)):
            assert math.sqrt(proj.hyper_norm_squared) < 1e-12


def test_oct_projection_reconstructs_product():
    rng = np.random.default_rng(6)
    from hopfcon import oct_conj, oct_mul
    for _ in range(20):
        oa = Octonion(*rng.standard_normal(8))
        ob = Octonion(*rng.standard_normal(8))
        assert oct_project(oa, ob).reconstruct() == oct_mul(oa, oct_conj(ob))


def test_oct_projection_bilinear_cross_check():
    # the amplitude-level formulas must agree with literal octonion products
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = random_state(int(rng.integers(2 ** 31)), (4, 3))
        matrix = state.split_matrix(4)
        generic = pair_projections(pack(state, 4))
        assert generic == oct_pair_projections(octonify(state))
        for k, l, proj in generic:
            s0, s1, s2, s3 = oct_projection_bilinear(matrix[:, k], matrix[:, l])
            assert abs(proj.s0 - s0) < 1e-14
            assert abs(proj.s1 - s1) < 1e-14
            assert abs(proj.s2 - s2) < 1e-14
            assert abs(proj.s3 - s3) < 1e-14


# ------------------------------------------------------------ concurrence

@pytest.mark.parametrize("m", range(2, 7))
def test_quat_concurrence_ghz(m):
    assert abs(quat_concurrence(ghz_state(m)) - 1) < 1e-12
    assert abs(concurrence(ghz_state(m), 2) - 1) < 1e-12


@pytest.mark.parametrize("m", range(2, 7))
def test_quat_concurrence_w(m):
    expected = 2 * math.sqrt(m - 1) / m
    assert abs(quat_concurrence(w_state(m)) - expected) < 1e-12


def test_quat_concurrence_separable():
    rng = np.random.default_rng(8)
    for _ in range(10):
        assert quat_concurrence(product_state(rng, 2, 8)) < 1e-12


@pytest.mark.parametrize("m", range(3, 7))
def test_oct_concurrence_ghz(m):
    assert abs(oct_concurrence(ghz_state(m)) - 1) < 1e-10
    assert abs(concurrence(ghz_state(m), 4) - 1) < 1e-10


@pytest.mark.parametrize("m", range(3, 7))
def test_oct_concurrence_w(m):
    expected = 2 * math.sqrt(2 * (m - 2)) / m
    assert abs(oct_concurrence(w_state(m)) - expected) < 1e-10


def test_oct_concurrence_separable():
    rng = np.random.default_rng(9)
    for _ in range(10):
        assert oct_concurrence(product_state(rng, 4, 4)) < 1e-12


def test_quat_concurrence_matches_minor_oracle():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4, 8):
        for _ in range(40):
            state = random_state(int(rng.integers(2 ** 31)), (2, n))
            assert abs(quat_concurrence(state) - minor_concurrence(state, 2)) < 1e-12
            assert abs(concurrence(state, 2) - minor_concurrence(state, 2)) < 1e-12


def test_oct_concurrence_matches_minor_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 8):
        for _ in range(40):
            state = random_state(int(rng.integers(2 ** 31)), (4, n))
            assert abs(oct_concurrence(state) - minor_concurrence(state, 4)) < 1e-10
            assert abs(concurrence(state, 4) - minor_concurrence(state, 4)) < 1e-10


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(12)
    for left_dim, conc in ((2, quat_concurrence), (4, oct_concurrence)):
        for _ in range(25):
            state = random_state(int(rng.integers(2 ** 31)), (left_dim, 5))
            moved = apply_local(state, random_unitary(left_dim, rng),
                                random_unitary(5, rng))
            assert abs(conc(state) - conc(moved)) < 1e-10


# ------------------------------------------------------ compressed route

def pairwise_concurrence(state, left_dim):
    """2 * sqrt(sum of hypercomplex parts) over every pair of the N packed coefficients."""
    pairs = pair_projections(pack(state, left_dim))
    if left_dim == 2:
        return 2 * math.sqrt(sum(abs(p.concurrence_part) ** 2 for _, _, p in pairs))
    return 2 * math.sqrt(sum(p.hyper_norm_squared for _, _, p in pairs))


def svd_concurrence(matrix):
    """2 * sqrt(sum over i < j of s_i^2 s_j^2) from the singular values."""
    w = np.linalg.svd(matrix, compute_uv=False) ** 2
    return 2 * math.sqrt(sum(w[i] * w[j] for i in range(len(w)) for j in range(i + 1, len(w))))


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
    qstate = quaternify(ghz_state(2))
    moved = right_module_action(qstate, identity_unitary(), identity_unitary())
    assert moved.coefficients == qstate.coefficients


def test_right_module_fiber_factor_cancels_in_projection():
    rng = np.random.default_rng(13)
    for _ in range(30):
        qstate = quaternify(random_state(int(rng.integers(2 ** 31)), (2, 2)))
        fiber = random_local_unitary(rng)
        moved = right_module_action(qstate, identity_unitary(), fiber)
        before = quat_project(*qstate.coefficients)
        after = quat_project(*moved.coefficients)
        assert abs(before.schmidt - after.schmidt) < 1e-14
        assert abs(before.concurrence_part - after.concurrence_part) < 1e-14


def test_right_module_preserves_bell_concurrence_part():
    rng = np.random.default_rng(14)
    qstate = quaternify(ghz_state(2))
    for _ in range(30):
        moved = right_module_action(qstate, random_local_unitary(rng),
                                    random_local_unitary(rng))
        proj = quat_project(*moved.coefficients)
        assert abs(proj.concurrence_magnitude - 0.5) < 1e-12


def test_right_module_preserves_norm():
    rng = np.random.default_rng(15)
    for _ in range(20):
        qstate = quaternify(random_state(int(rng.integers(2 ** 31)), (2, 2)))
        moved = right_module_action(qstate, random_local_unitary(rng),
                                    random_local_unitary(rng))
        assert abs(moved.norm_squared() - 1) < 1e-12


def test_right_module_requires_two_coefficients():
    qstate = quaternify(ghz_state(3))
    with pytest.raises(ValueError):
        right_module_action(qstate, identity_unitary(), identity_unitary())


# ------------------------------------------------------------ equivariance

def test_equivariance_identity():
    state = random_state(16, (2, 2))
    assert verify_equivariance(state, identity_unitary(), identity_unitary())


def test_equivariance_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        assert verify_equivariance(state, random_local_unitary(rng),
                                   random_local_unitary(rng))


def test_equivariance_error_matches_the_coefficient_object_route():
    def by_objects(state, coeff_u, fiber_u):
        via_state = quat_project(*quaternify(apply_local(state, fiber_u, coeff_u)).coefficients)
        via_module = quat_project(*right_module_action(quaternify(state), coeff_u,
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
        qstate = quaternify(state)
        coeff_u = random_local_unitary(rng)
        moved = right_module_action(qstate, coeff_u, identity_unitary())
        expected = transformed_schmidt_part(qstate, coeff_u)
        assert abs(quat_project(*moved.coefficients).schmidt - expected) < 1e-10


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


def test_quaterstate_rejects_unnormalized():
    with pytest.raises(ValueError):
        QuaterState((Quaternion(1, 0, 0, 0), Quaternion(1, 0, 0, 0)))


@pytest.mark.parametrize("left_dim", [2, 4])
def test_pack_accepts_every_state_pure_state_accepts(left_dim):
    # norm 1 + 5e-7 is inside PureState's tolerance; pack must not apply a tighter one
    unit = random_state(41, (2, 2, 2))
    state = PureState(unit.dims, (1 + 5e-7) * unit.amplitudes)
    assert abs(pairwise_concurrence(state, left_dim) - concurrence(state, left_dim)) <= 1e-12


def test_quaterstate_of_unnormalized_quaternions_raises_normalization_error():
    with pytest.raises(NormalizationError):
        QuaterState((Quaternion(1, 0, 0, 0), Quaternion(1, 0, 0, 0)))
