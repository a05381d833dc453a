import math
import tracemalloc

import numpy as np
import pytest

from hopfcon import (LocalHamiltonianSpec, PackedState, ParameterError, PureState, Quaternion,
                     apply_local, evolve_closed_form, ghz_state, minor_concurrence, pack,
                     pauli_propagator, project, schmidt_trajectory)
from hopfcon.dynamics import _trajectory_points


def random_spec(rng, r=0.5):
    return LocalHamiltonianSpec(theta=rng.uniform(0, math.pi),
                                phi=rng.uniform(0, 2 * math.pi), r=r)


def trajectory_packed(state) -> PackedState:
    # trajectory packing: index by the first qubit, pack the second into e2;
    # row i holds (Re, Im) of a_{i0}, a_{i1}
    return PackedState(state.split_matrix(2).view(float))


def schmidt_state(lam):
    """The engine's initial state sqrt(lam)|00> + sqrt(1-lam)|11>."""
    return PureState((2, 2), [math.sqrt(lam), 0, 0, math.sqrt(1 - lam)])


def propagate(state, spec1, spec2, t):
    """The numeric route: each qubit's Pauli propagator applied to the state."""
    return apply_local(state, pauli_propagator(spec1, t), pauli_propagator(spec2, t))


def test_propagator_at_zero_time():
    spec = LocalHamiltonianSpec(0.7, 1.1, 0.5)
    assert np.allclose(pauli_propagator(spec, 0.0), np.eye(2), atol=1e-15)


def test_propagator_diagonal_case():
    spec = LocalHamiltonianSpec(theta=0.0, phi=0.0, r=0.5)
    u = pauli_propagator(spec, math.pi)
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    assert np.allclose(u, expected, atol=1e-15)


def test_propagator_group_properties():
    rng = np.random.default_rng(0)
    for _ in range(25):
        spec = random_spec(rng, r=rng.uniform(0, 2))
        t1, t2 = rng.uniform(-5, 5, 2)
        u1, u2 = pauli_propagator(spec, t1), pauli_propagator(spec, t2)
        assert np.allclose(u1 @ u1.conj().T, np.eye(2), atol=1e-14)
        assert np.allclose(u1 @ pauli_propagator(spec, -t1), np.eye(2), atol=1e-12)
        assert np.allclose(u1 @ u2, pauli_propagator(spec, t1 + t2), atol=1e-12)


def test_propagator_matches_pauli_matrix_formula():
    # the matrix form cos(rt) I - i sin(rt) n.sigma, built from the Pauli matrices
    sigma = (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
             np.array([[0.0, -1.0j], [1.0j, 0.0]]),
             np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    rng = np.random.default_rng(19)
    for _ in range(200):
        spec = random_spec(rng, r=rng.uniform(0, 2))
        t = rng.uniform(-10, 10)
        n = (math.sin(spec.theta) * math.cos(spec.phi), math.sin(spec.theta) * math.sin(spec.phi),
             math.cos(spec.theta))
        n_sigma = sum(x * s for x, s in zip(n, sigma))
        expected = math.cos(spec.r * t) * np.eye(2) - 1j * math.sin(spec.r * t) * n_sigma
        assert np.max(np.abs(pauli_propagator(spec, t) - expected)) <= 1e-15


def test_spec_validation():
    with pytest.raises(ValueError):
        LocalHamiltonianSpec(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        LocalHamiltonianSpec(math.inf, 0.0, 0.5)
    with pytest.raises(ValueError):
        evolve_closed_form(1.5, LocalHamiltonianSpec(0, 0), LocalHamiltonianSpec(0, 0), 1.0)
    with pytest.raises(ValueError):
        schmidt_trajectory(-0.1, LocalHamiltonianSpec(0, 0), [0.0])


def test_trajectory_refuses_before_its_first_point_and_copies_no_grid():
    # no point is asked for: a caller such as evolve opens its file only after this call
    for lam, times in ((0.3, [0.0, 1e200]), (0.3, [0.0, math.nan]), (math.nan, [0.0])):
        with pytest.raises(ParameterError):
            _trajectory_points(lam, LocalHamiltonianSpec(0.9, 0.0, 1e200), times)
    times = np.linspace(0.0, 10.0, 2 ** 17)
    tracemalloc.start()
    try:
        points = _trajectory_points(0.3, LocalHamiltonianSpec(0.9, 0.0), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times.nbytes / 8
    assert next(points).t == 0.0


def test_spec_fields_are_the_floats_read_from_them():
    spec = LocalHamiltonianSpec(np.float64(0.5), 1, r=np.int64(2))
    assert [type(x) for x in (spec.theta, spec.phi, spec.r)] == [float] * 3
    assert (spec.theta, spec.phi, spec.r) == (0.5, 1.0, 2.0)


def test_closed_form_at_zero_time():
    rng = np.random.default_rng(1)
    lam = 0.3
    q0, q1 = evolve_closed_form(lam, random_spec(rng), random_spec(rng), 0.0).coefficients
    assert q0 == Quaternion(math.sqrt(lam), 0, 0, 0)
    assert q1 == Quaternion(0, 0, math.sqrt(1 - lam), 0)


def test_closed_form_matches_numeric_propagator():
    # cross-oracle: amplitudes from the explicit trig expressions vs the
    # matrix exponential route, on the trajectory packing
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(150):
        lam = rng.uniform()
        spec1, spec2 = random_spec(rng), random_spec(rng)
        t = rng.uniform(0, 10)
        closed = evolve_closed_form(lam, spec1, spec2, t)
        evolved = propagate(schmidt_state(lam), spec1, spec2, t)
        numeric = trajectory_packed(evolved)
        for qc, qn in zip(closed.coefficients, numeric.coefficients):
            worst = max(worst, max(abs(x - y) for x, y in
                                   zip(qc.coefficients(), qn.coefficients())))
    assert worst < 1e-10


def test_closed_form_matches_numeric_for_general_field_magnitudes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform()
        spec1 = random_spec(rng, r=rng.uniform(0, 2))
        spec2 = random_spec(rng, r=rng.uniform(0, 2))
        t = rng.uniform(0, 6)
        closed = evolve_closed_form(lam, spec1, spec2, t)
        numeric = trajectory_packed(propagate(schmidt_state(lam), spec1, spec2, t))
        for qc, qn in zip(closed.coefficients, numeric.coefficients):
            assert max(abs(x - y) for x, y in
                       zip(qc.coefficients(), qn.coefficients())) < 1e-10


def test_trajectory_packing_equals_quaternify_of_swapped_factors():
    # the two packings differ by a transpose of the amplitude matrix
    rng = np.random.default_rng(4)
    lam, t = 0.4, 2.3
    spec1, spec2 = random_spec(rng), random_spec(rng)
    evolved = propagate(schmidt_state(lam), spec1, spec2, t)
    swapped = propagate(schmidt_state(lam), spec2, spec1, t)
    packed = trajectory_packed(evolved)
    via_quaternify = pack(swapped, 2)
    for qa, qb in zip(packed.coefficients, via_quaternify.coefficients):
        assert max(abs(x - y) for x, y in
                   zip(qa.coefficients(), qb.coefficients())) < 1e-12


def test_concurrence_part_is_constant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.uniform()
        closed = evolve_closed_form(lam, random_spec(rng), random_spec(rng),
                                    rng.uniform(0, 10))
        proj = project(*closed.coefficients)
        assert abs(abs(proj.concurrence_part) - math.sqrt(lam * (1 - lam))) < 1e-10


def test_projection_independent_of_second_hamiltonian():
    rng = np.random.default_rng(6)
    for _ in range(50):
        lam = rng.uniform()
        spec1 = random_spec(rng)
        t = rng.uniform(0, 10)
        specs2 = [random_spec(rng, r=rng.uniform(0, 2)) for _ in range(3)]
        projections = [project(*evolve_closed_form(lam, spec1, s2, t).coefficients)
                       for s2 in specs2]
        for proj in projections[1:]:
            assert abs(proj.schmidt - projections[0].schmidt) < 1e-10
            assert abs(proj.concurrence_part - projections[0].concurrence_part) < 1e-10


def test_schmidt_trajectory_vanishes_at_half_weight():
    points = schmidt_trajectory(0.5, LocalHamiltonianSpec(1.1, 0.4), np.linspace(0, 10, 40))
    for p in points:
        assert p.schmidt_re == 0.0 and p.schmidt_im == 0.0
        assert p.concurrence_mag == 0.5


def test_schmidt_trajectory_at_zero_time():
    point = schmidt_trajectory(0.8, LocalHamiltonianSpec(0.3, 0.9), [0.0])[0]
    assert point.schmidt_re == 0.0 and point.schmidt_im == 0.0


def test_schmidt_trajectory_reference_point():
    point = schmidt_trajectory(1.0, LocalHamiltonianSpec(math.pi / 2, 0.0),
                               [math.pi / 2])[0]
    assert abs(point.schmidt_re) < 1e-15
    assert abs(point.schmidt_im - 0.5) < 1e-15


def test_schmidt_trajectory_matches_projection_route():
    rng = np.random.default_rng(7)
    times = np.linspace(0, 12, 50)
    for _ in range(12):
        lam = rng.uniform()
        spec1, spec2 = random_spec(rng), random_spec(rng)
        points = schmidt_trajectory(lam, spec1, times)
        for point in points:
            closed = evolve_closed_form(lam, spec1, spec2, point.t)
            proj = project(*closed.coefficients)
            assert abs(proj.schmidt - complex(point.schmidt_re, point.schmidt_im)) < 1e-9
            assert abs(point.concurrence_mag - abs(proj.concurrence_part)) < 1e-10


def test_evolve_numeric_identity_and_invariance():
    rng = np.random.default_rng(8)
    bell = ghz_state(2)
    spec1, spec2 = random_spec(rng), random_spec(rng)
    assert np.allclose(propagate(bell, spec1, spec2, 0.0).amplitudes,
                       bell.amplitudes, atol=1e-15)
    for t in (0.5, 2.0, 7.7):
        evolved = propagate(bell, spec1, spec2, t)
        assert abs(np.linalg.norm(evolved.amplitudes) - 1) < 1e-12
        assert abs(minor_concurrence(evolved, 2) - 1) < 1e-12
