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
transpose of the packing quaternify() uses for a general [2, N] split;
the cross-check tests account for the swap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .projection import QuaterState
from .states import PureState, apply_local


@dataclass(frozen=True)
class LocalHamiltonianSpec:
    """Single-qubit field r * (sin t cos p, sin t sin p, cos t) . sigma."""

    theta: float
    phi: float
    r: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ParameterError("angles must be finite")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ParameterError("field magnitude r must be finite and >= 0")


@dataclass(frozen=True)
class TrajectoryPoint:
    """Projection sample: Schmidt part (complex) and concurrence magnitude."""

    t: float
    schmidt_re: float
    schmidt_im: float
    concurrence_mag: float


def _phase(r: float, t) -> float:
    """The phase r * t, refused when it is not finite (a float overflow gives inf)."""
    phase = r * float(t)
    if not math.isfinite(phase):
        raise ParameterError("the phase r * t must be finite")
    return phase


def pauli_propagator(spec: LocalHamiltonianSpec, t: float) -> np.ndarray:
    """exp(-i H t) for H = r * n.sigma: cos(rt) I - i sin(rt) n.sigma, written out entrywise.

    n.sigma = [[nz, nx - i ny], [nx + i ny, -nz]] with
    n = (sin theta cos phi, sin theta sin phi, cos theta).
    """
    phase = _phase(spec.r, t)
    c, s = math.cos(phase), math.sin(phase)
    sin_theta = math.sin(spec.theta)
    nx, ny, nz = (sin_theta * math.cos(spec.phi), sin_theta * math.sin(spec.phi),
                  math.cos(spec.theta))
    return np.array([[complex(c, -s * nz), complex(-s * ny, -s * nx)],
                     [complex(s * ny, -s * nx), complex(c, s * nz)]])


def _check_weight(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:  # also rejects NaN
        raise ParameterError("lam must lie in [0, 1]")


def evolve_closed_form(lam: float, spec1: LocalHamiltonianSpec,
                       spec2: LocalHamiltonianSpec, t: float) -> QuaterState:
    """Explicit trig expressions for the evolved quaterbit at time t.

    Returns the pair q_i = a_{i0}(t) + a_{i1}(t)*e2 (second qubit packed).
    Written out term by term, independently of any matrix product, so the
    numeric propagator route can serve as a genuine cross-oracle.
    """
    # row i holds (Re, Im) of a_{i0}, a_{i1}: the quaternion a_{i0} + a_{i1}*e2
    return QuaterState(_closed_form_amplitudes(lam, spec1, spec2, t).view(float))


def _closed_form_amplitudes(lam: float, spec1: LocalHamiltonianSpec,
                            spec2: LocalHamiltonianSpec, t: float) -> np.ndarray:
    """The evolved amplitudes a_{ij}(t) of evolve_closed_form, as a 2 x 2 complex array."""
    _check_weight(lam)
    root_lam = math.sqrt(lam)
    root_mu = math.sqrt(1.0 - lam)
    phase1, phase2 = _phase(spec1.r, t), _phase(spec2.r, t)
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
    return np.array([[a00, a01], [a10, a11]])


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
    """The points of schmidt_trajectory one at a time, each formed when it is asked for."""
    _check_weight(lam)
    weight = 2.0 * lam - 1.0
    conc = math.sqrt(lam * (1.0 - lam))
    cth, sth = math.cos(spec1.theta), math.sin(spec1.theta)
    cph, sph = math.cos(spec1.phi), math.sin(spec1.phi)
    for t in times:
        phase = _phase(spec1.r, t)
        c, s = math.cos(phase), math.sin(phase)
        re = weight * s * sth * (s * cth * cph + c * sph)
        im = weight * s * sth * (c * cph - s * cth * sph)
        yield TrajectoryPoint(float(t), re + 0.0, im + 0.0, conc)


def evolve_numeric(state: PureState, spec1: LocalHamiltonianSpec,
                   spec2: LocalHamiltonianSpec, t: float) -> PureState:
    """Exact local evolution of a two-qubit state via the Pauli propagators."""
    return apply_local(state, pauli_propagator(spec1, t), pauli_propagator(spec2, t))


def schmidt_initial_state(lam: float) -> PureState:
    """The Schmidt-form initial state sqrt(lam)|00> + sqrt(1-lam)|11>."""
    _check_weight(lam)
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(lam)
    amps[3] = math.sqrt(1.0 - lam)
    return PureState((2, 2), amps)
