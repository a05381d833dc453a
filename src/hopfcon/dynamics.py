"""Closed-form and numeric local time evolution of two-qubit states.

The engine evolves the Schmidt-form initial state
sqrt(lam)|00> + sqrt(1-lam)|11> under independent single-qubit
Hamiltonians H_i = r_i * n(theta_i, phi_i) . sigma and reports the
stereographic-projection trajectory.

Packing convention for trajectories: the quaterbit is indexed by the
*first* qubit and packs the *second* qubit into the e2 slot,
q_i = a_{i0} + a_{i1}*e2.  With that packing the second qubit's evolution
is a right-module scalar that cancels out of the projection, so the
Schmidt trajectory depends only on (lam, theta1, phi1, r1, t) while the
concurrence part stays pinned at sqrt(lam*(1-lam)).  Note this is the
transpose of the packing pack(state, 2) uses for a general [2, N] split;
the cross-check tests account for the swap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, as_amplitudes, as_real, check_type
from .projection import PackedState
from .states import PureState, apply_local


@dataclass(frozen=True)
class LocalHamiltonianSpec:
    """Single-qubit field r * (sin t cos p, sin t sin p, cos t) . sigma; finite floats, r >= 0."""

    theta: float
    phi: float
    r: float = 0.5

    def __post_init__(self):
        for name, low in (("theta", -math.inf), ("phi", -math.inf), ("r", 0.0)):
            object.__setattr__(self, name, as_real(getattr(self, name), name, low))


@dataclass(frozen=True)
class TrajectoryPoint:
    """Projection sample: Schmidt part (complex) and concurrence magnitude."""

    t: float
    schmidt_re: float
    schmidt_im: float
    concurrence_mag: float


def pauli_propagator(spec: LocalHamiltonianSpec, t: float) -> np.ndarray:
    """exp(-i H t) for H = r * n.sigma: cos(rt) I - i sin(rt) n.sigma, written out entrywise.

    n.sigma = [[nz, nx - i ny], [nx + i ny, -nz]] with
    n = (sin theta cos phi, sin theta sin phi, cos theta).
    """
    t = as_real(t, "t")
    check_type(spec, LocalHamiltonianSpec, "pauli_propagator")
    phase = as_real(spec.r * t, "the phase r * t")  # r * t is inf on overflow
    c, s = math.cos(phase), math.sin(phase)
    sin_theta = math.sin(spec.theta)
    nx, ny, nz = (sin_theta * math.cos(spec.phi), sin_theta * math.sin(spec.phi),
                  math.cos(spec.theta))
    return np.array([[complex(c, -s * nz), complex(-s * ny, -s * nx)],
                     [complex(s * ny, -s * nx), complex(c, s * nz)]])


def evolve_closed_form(lam: float, spec1: LocalHamiltonianSpec,
                       spec2: LocalHamiltonianSpec, t: float) -> PackedState:
    """Explicit trig expressions for the evolved quaterbit at time t.

    Returns the pair q_i = a_{i0}(t) + a_{i1}(t)*e2 (second qubit packed).
    Written out term by term, independently of any matrix product, so the
    numeric propagator route can serve as a genuine cross-oracle.
    """
    lam, t = as_real(lam, "lam", 0.0, 1.0), as_real(t, "t")
    for spec in (spec1, spec2):
        check_type(spec, LocalHamiltonianSpec, "evolve_closed_form")
    root_lam = math.sqrt(lam)
    root_mu = math.sqrt(1.0 - lam)
    phase1 = as_real(spec1.r * t, "the phase r * t")
    phase2 = as_real(spec2.r * t, "the phase r * t")
    c1, s1 = math.cos(phase1), math.sin(phase1)
    c2, s2 = math.cos(phase2), math.sin(phase2)
    cth1, sth1 = math.cos(spec1.theta), math.sin(spec1.theta)
    cth2, sth2 = math.cos(spec2.theta), math.sin(spec2.theta)
    ph1 = cmath.exp(1j * spec1.phi)
    ph2 = cmath.exp(1j * spec2.phi)

    a00 = (root_lam * (c1 - 1j * s1 * cth1) * (c2 - 1j * s2 * cth2)
           - root_mu * s1 * s2 * sth1 * sth2 / (ph1 * ph2))
    a01 = -1j * (root_lam * s2 * sth2 * ph2 * (c1 - 1j * s1 * cth1)
                 + root_mu * s1 * sth1 / ph1 * (c2 + 1j * s2 * cth2))
    a10 = -1j * (root_lam * s1 * sth1 * ph1 * (c2 - 1j * s2 * cth2)
                 + root_mu * s2 * sth2 / ph2 * (c1 + 1j * s1 * cth1))
    a11 = (root_mu * (c1 + 1j * s1 * cth1) * (c2 + 1j * s2 * cth2)
           - root_lam * s1 * s2 * sth1 * sth2 * ph1 * ph2)
    # row i holds (Re, Im) of a_{i0}, a_{i1}: the quaternion a_{i0} + a_{i1}*e2
    return PackedState(np.array([[a00, a01], [a10, a11]]).view(float))


def schmidt_trajectory(lam: float, spec1: LocalHamiltonianSpec,
                       times) -> list[TrajectoryPoint]:
    """Closed-form projection trajectory; independent of the second Hamiltonian.

    At each time, with s = sin(r1 t), c = cos(r1 t):

        Re S' = (2 lam - 1) s sin(theta1) (s cos(theta1) cos(phi1) + c sin(phi1))
        Im S' = (2 lam - 1) s sin(theta1) (c cos(phi1) - s cos(theta1) sin(phi1))

    and the concurrence magnitude is the constant sqrt(lam * (1 - lam)).
    """
    return list(_trajectory_points(lam, spec1, times))


def _trajectory_points(lam: float, spec1: LocalHamiltonianSpec, times):
    """schmidt_trajectory's points, each formed when asked for; bad input is refused first."""
    lam = as_real(lam, "lam", 0.0, 1.0)
    times = as_amplitudes(times, float)  # one read of the grid, no copy of a float ndarray
    if times.ndim != 1:
        raise DimensionMismatchError("times must be a one-dimensional sequence of real numbers")
    t_max = float(max(times.max(initial=0.0), -times.min(initial=0.0)))  # NaN if any is NaN
    check_type(spec1, LocalHamiltonianSpec, "schmidt_trajectory")
    as_real(spec1.r * t_max, "the phase r * t")  # the largest |r t|: every phase is finite
    weight = 2.0 * lam - 1.0
    conc = math.sqrt(lam * (1.0 - lam))
    cth, sth = math.cos(spec1.theta), math.sin(spec1.theta)
    cph, sph = math.cos(spec1.phi), math.sin(spec1.phi)

    def point(t: float) -> TrajectoryPoint:
        c, s = math.cos(spec1.r * t), math.sin(spec1.r * t)
        re = weight * s * sth * (s * cth * cph + c * sph)
        im = weight * s * sth * (c * cph - s * cth * sph)
        return TrajectoryPoint(t, re + 0.0, im + 0.0, conc)

    return map(point, map(float, times))


def evolve_numeric(state: PureState, spec1: LocalHamiltonianSpec,
                   spec2: LocalHamiltonianSpec, t: float) -> PureState:
    """Exact local evolution of a two-qubit state via the Pauli propagators."""
    return apply_local(state, pauli_propagator(spec1, t), pauli_propagator(spec2, t))


def schmidt_initial_state(lam: float) -> PureState:
    """The Schmidt-form initial state sqrt(lam)|00> + sqrt(1-lam)|11>."""
    lam = as_real(lam, "lam", 0.0, 1.0)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(lam)
    amps[3] = math.sqrt(1.0 - lam)
    return PureState((2, 2), amps)
