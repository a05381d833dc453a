"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np

from hopfcon import (LocalHamiltonianSpec, OCT_UNITS, QUAT_UNITS, Octonion,
                     Quaternion, apply_local, evolve_closed_form,
                     evolve_numeric, generator_concurrence, ghz_state,
                     make_state, minor_concurrence, oct_concurrence, oct_mul,
                     oct_pair_projections, octonify, quat_concurrence,
                     quat_mul, quat_pair_projections, quat_project,
                     quaternify, random_local_unitary, random_state,
                     random_unitary, right_module_action, schmidt_initial_state,
                     w_state)
from hopfcon.cli import main
from hopfcon.projection import QuaterState

from reference_tables import (OCTONION_TABLE_TEXT, QUATERNION_TABLE_TEXT,
                              parse_table)
from references import transformed_schmidt_part


def report(number: int, label: str, worst: float, tol: float, elapsed=None):
    status = "PASS" if worst <= tol else "FAIL"
    timing = f", {elapsed:.2f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:2d} [{label}]: {status} "
          f"(worst {worst:.3e}, tol {tol:.0e}{timing})")
    assert worst <= tol, f"criterion {number} ({label}): {worst} > {tol}"


def test_criterion_01_ghz_quaternionic():
    start = time.perf_counter()
    worst = max(abs(quat_concurrence(ghz_state(m)) - 1.0) for m in range(2, 11))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "ghz quaternionic", worst, 1e-12, elapsed)


def test_criterion_02_w_quaternionic():
    start = time.perf_counter()
    worst = max(abs(quat_concurrence(w_state(m)) - 2 * math.sqrt(m - 1) / m)
                for m in range(2, 11))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(2, "w quaternionic", worst, 1e-12, elapsed)


def test_criterion_03_ghz_w_octonionic():
    start = time.perf_counter()
    worst = 0.0
    for m in range(3, 11):
        worst = max(worst, abs(oct_concurrence(ghz_state(m)) - 1.0))
        worst = max(worst, abs(oct_concurrence(w_state(m))
                               - 2 * math.sqrt(2 * (m - 2)) / m))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(3, "ghz/w octonionic", worst, 1e-10, elapsed)


def test_criterion_04_triple_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst2 = 0.0
    for n in (2, 3, 4, 8):
        for _ in range(125):
            state = random_state(int(rng.integers(2 ** 31)), (2, n))
            values = (quat_concurrence(state), minor_concurrence(state, 2),
                      generator_concurrence(state))
            worst2 = max(worst2, max(values) - min(values))
    worst4 = 0.0
    for n in (2, 3, 4, 8):
        for _ in range(125):
            state = random_state(int(rng.integers(2 ** 31)), (4, n))
            worst4 = max(worst4, abs(oct_concurrence(state)
                                     - minor_concurrence(state, 4)))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    report(4, "triple oracle 2xN", worst2, 1e-12, elapsed)
    report(4, "dual oracle 4xN (Pluecker)", worst4, 1e-10)


def test_criterion_05_local_unitary_invariance():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for left_dim, conc in ((2, quat_concurrence), (4, oct_concurrence)):
        for _ in range(500):
            n = int(rng.choice((2, 3, 4, 8)))
            state = random_state(int(rng.integers(2 ** 31)), (left_dim, n))
            moved = apply_local(state, random_unitary(left_dim, rng),
                                random_unitary(n, rng))
            worst = max(worst, abs(conc(state) - conc(moved)))
    report(5, "local-unitary invariance", worst, 1e-10)


def test_criterion_06_commuting_diagram():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        coeff_u = random_local_unitary(rng)
        fiber_u = random_local_unitary(rng)
        via_state = quaternify(apply_local(state, fiber_u, coeff_u))
        via_module = right_module_action(quaternify(state), coeff_u, fiber_u)
        p1 = quat_project(*via_state.coefficients)
        p2 = quat_project(*via_module.coefficients)
        worst = max(worst, abs(p1.schmidt - p2.schmidt),
                    abs(p1.concurrence_part - p2.concurrence_part))
    report(6, "commuting diagram", worst, 1e-10)

    worst_schmidt = 0.0
    from hopfcon import IDENTITY_UNITARY
    for _ in range(200):
        state = random_state(int(rng.integers(2 ** 31)), (2, 2))
        qstate = quaternify(state)
        coeff_u = random_local_unitary(rng)
        moved = right_module_action(qstate, coeff_u, IDENTITY_UNITARY)
        closed = transformed_schmidt_part(qstate, coeff_u)
        worst_schmidt = max(worst_schmidt,
                            abs(quat_project(*moved.coefficients).schmidt - closed))
    report(6, "schmidt closed form", worst_schmidt, 1e-10)


def _trajectory_packed(state) -> QuaterState:
    matrix = state.split_matrix(2)
    return QuaterState(tuple(Quaternion.from_complex_pair(matrix[i, 0], matrix[i, 1])
                             for i in range(2)))


def _phase_aligned(reference: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    pivot = int(np.argmax(np.abs(reference)))
    phase = reference[pivot] * np.conj(candidate[pivot])
    scale = abs(phase)
    if scale == 0.0:
        return candidate
    return candidate * (phase / scale)


def test_criterion_07_dynamics_grid():
    start = time.perf_counter()
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    angle_settings = (
        (LocalHamiltonianSpec(0.3, 0.0), LocalHamiltonianSpec(1.2, 2.1)),
        (LocalHamiltonianSpec(math.pi / 2, 0.0), LocalHamiltonianSpec(0.4, 5.5)),
        (LocalHamiltonianSpec(math.pi / 10, math.pi / 2), LocalHamiltonianSpec(2.8, 0.9)),
        (LocalHamiltonianSpec(2.5, 4.0), LocalHamiltonianSpec(math.pi, 1.0)),
    )
    times = np.linspace(0.0, 4 * math.pi, 50)
    alt2 = (LocalHamiltonianSpec(1.9, 0.6), LocalHamiltonianSpec(0.2, 3.3))

    worst_amp = worst_conc = worst_indep = 0.0
    for lam in lambdas:
        for spec1, spec2 in angle_settings:
            for t in times:
                closed = evolve_closed_form(lam, spec1, spec2, t)
                closed_amps = np.array(
                    [z for q in closed.coefficients for z in q.complex_pair()])
                numeric = _trajectory_packed(
                    evolve_numeric(schmidt_initial_state(lam), spec1, spec2, t))
                numeric_amps = np.array(
                    [z for q in numeric.coefficients for z in q.complex_pair()])
                aligned = _phase_aligned(closed_amps, numeric_amps)
                worst_amp = max(worst_amp, np.max(np.abs(closed_amps - aligned)))

                proj = quat_project(*closed.coefficients)
                worst_conc = max(worst_conc, abs(proj.concurrence_magnitude
                                                 - math.sqrt(lam * (1 - lam))))

                for other in alt2:
                    alt = quat_project(
                        *evolve_closed_form(lam, spec1, other, t).coefficients)
                    worst_indep = max(worst_indep,
                                      abs(alt.schmidt - proj.schmidt),
                                      abs(alt.concurrence_part - proj.concurrence_part))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(7, "dynamics closed vs numeric", worst_amp, 1e-9, elapsed)
    report(7, "dynamics concurrence constant", worst_conc, 1e-10)
    report(7, "dynamics second-spec independence", worst_indep, 1e-10)


def test_criterion_08_separability():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for left_dim in (2, 4):
        for _ in range(200):
            right_dim = int(rng.choice((2, 3, 4)))
            left = rng.standard_normal(left_dim) + 1j * rng.standard_normal(left_dim)
            right = rng.standard_normal(right_dim) + 1j * rng.standard_normal(right_dim)
            amps = np.kron(left / np.linalg.norm(left), right / np.linalg.norm(right))
            state = make_state((left_dim, right_dim), amps)
            if left_dim == 2:
                for _, _, proj in quat_pair_projections(quaternify(state)):
                    worst = max(worst, abs(proj.concurrence_part))
            else:
                for _, _, proj in oct_pair_projections(octonify(state)):
                    worst = max(worst, abs(proj.s1), abs(proj.s2), abs(proj.s3))
    report(8, "separability", worst, 1e-12)


def test_criterion_09_algebra_suite():
    worst = 0.0
    for cells, units, mul in ((parse_table(QUATERNION_TABLE_TEXT), QUAT_UNITS, quat_mul),
                              (parse_table(OCTONION_TABLE_TEXT), OCT_UNITS, oct_mul)):
        dim = len(units)
        for i in range(dim):
            for j in range(dim):
                k, sign = cells[i][j]
                expected = [0.0] * dim
                expected[k] = float(sign)
                got = mul(units[i], units[j]).coefficients()
                worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    report(9, "basis product cells", worst, 0.0)

    rng = np.random.default_rng(2029)
    worst_norm = 0.0
    for _ in range(1000):
        q1, q2 = Quaternion(*rng.standard_normal(4)), Quaternion(*rng.standard_normal(4))
        worst_norm = max(worst_norm, abs(quat_mul(q1, q2).norm() - q1.norm() * q2.norm()))
        o1, o2 = Octonion(*rng.standard_normal(8)), Octonion(*rng.standard_normal(8))
        worst_norm = max(worst_norm, abs(oct_mul(o1, o2).norm() - o1.norm() * o2.norm()))
    report(9, "norm composition", worst_norm, 1e-12)

    left = oct_mul(oct_mul(OCT_UNITS[1], OCT_UNITS[2]), OCT_UNITS[4])
    right = oct_mul(OCT_UNITS[1], oct_mul(OCT_UNITS[2], OCT_UNITS[4]))
    exact = (left == OCT_UNITS[7]) and (right == -OCT_UNITS[7])
    print(f"ACCEPTANCE  9 [non-associativity witness]: {'PASS' if exact else 'FAIL'}")
    assert exact


def test_criterion_10_trajectory_csv(tmp_path):
    out = tmp_path / "fig_data.csv"
    code = main(["evolve", "--lambda", "0.5", "--theta1", "0.9", "--phi1", "1.3",
                 "--theta2", "2.2", "--phi2", "0.4", "--t-max", "12.0",
                 "--steps", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    well_formed = (lines[0] == "t,schmidt_re,schmidt_im,concurrence"
                   and len(lines) == 51
                   and all(len(line.split(",")) == 4 for line in lines[1:]))
    schmidt_zero = all(float(line.split(",")[1]) == 0.0
                       and float(line.split(",")[2]) == 0.0 for line in lines[1:])
    ok = well_formed and schmidt_zero
    print(f"ACCEPTANCE 10 [trajectory csv]: {'PASS' if ok else 'FAIL'}")
    assert well_formed
    assert schmidt_zero
