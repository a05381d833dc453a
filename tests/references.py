"""Literal reference forms that the tests check the package's routes against."""

import numpy as np

from hopfcon import project


def quat_projection_bilinear(u, v) -> tuple[complex, complex]:
    """Schmidt and minor terms of a projected pair, directly from amplitudes.

    For columns u = (a_{0j}, a_{1j}) and v = (a_{0k}, a_{1k}) returns
    (S, C) with S = u0*conj(v0) + u1*conj(v1) and C = u0*v1 - u1*v0.
    The computed projection has schmidt == S and concurrence_part == -C.
    """
    schmidt = u[0] * np.conj(v[0]) + u[1] * np.conj(v[1])
    minor = u[0] * v[1] - u[1] * v[0]
    return complex(schmidt), complex(minor)


def oct_projection_bilinear(u, v) -> tuple[complex, complex, complex, complex]:
    """Projection parts of an octonion pair, directly from amplitude columns.

    For 4-component columns u, v (amplitudes of the [4, N] split) with
    minors M_ij = u_i*v_j - u_j*v_i:

        s0 = sum_i u_i * conj(v_i)
        s1 = -M_01 - conj(M_23)
        s2 = -M_02 + conj(M_13)
        s3 = -M_12 - conj(M_03)

    so |s1|^2 + |s2|^2 + |s3|^2 = sum |M_ij|^2: the cross terms cancel by
    the Pluecker identity M_01*M_23 - M_02*M_13 + M_03*M_12 = 0.
    """
    def minor(i, j):
        return u[i] * v[j] - u[j] * v[i]

    s0 = sum(u[i] * np.conj(v[i]) for i in range(4))
    s1 = -minor(0, 1) - np.conj(minor(2, 3))
    s2 = -minor(0, 2) + np.conj(minor(1, 3))
    s3 = -minor(1, 2) - np.conj(minor(0, 3))
    return complex(s0), complex(s1), complex(s2), complex(s3)


def transformed_schmidt_part(qstate, coefficient_unitary) -> complex:
    """Closed-form Schmidt part of a quaterbit after the coefficient-matrix action alone.

    With S the Schmidt part of the untransformed pair and (a, b) the
    parameters of coefficient_unitary:

        S' = (|q1|^2 - |q0|^2) * a * b + a^2 * S - b^2 * conj(S)
    """
    q0, q1 = qstate.coefficients
    schmidt = project(q0, q1).schmidt
    a, b = coefficient_unitary.a, coefficient_unitary.b
    return ((q1.norm_squared() - q0.norm_squared()) * a * b
            + a * a * schmidt - b * b * np.conj(schmidt))


def so_n_generators(n: int) -> list[np.ndarray]:
    """The n(n-1)/2 dense antisymmetric generators of SO(n), entries in {-1, 0, 1}.

    Labeled by the n-2 omitted axes in lexicographic order: k descending, then
    l descending, for the remaining axes k < l.  L[k, l] = -L[l, k] is the
    Levi-Civita sign of (omitted..., k, l), (-1)^((n-2-k) + (n-1-l)), one
    factor per inversion: n-2-k omitted axes lie above k and n-1-l above l.
    """
    generators = []
    for k in range(n - 2, -1, -1):
        for l in range(n - 1, k, -1):
            sign = (-1.0) ** ((n - 2 - k) + (n - 1 - l))
            gen = np.zeros((n, n))
            gen[k, l] = sign
            gen[l, k] = -sign
            generators.append(gen)
    return generators
