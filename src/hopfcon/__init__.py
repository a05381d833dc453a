"""Bipartite concurrence via quaternionic/octonionic stereographic projection.

Pure states on H_2 (x) H_N and H_4 (x) H_N are packed into quaternion and
octonion coefficient vectors; the pairwise stereographic projections split
into a Schmidt part and hypercomplex parts whose magnitudes assemble into
the concurrence.  Minor-determinant and group-generator oracles, which
never touch the hypercomplex algebra, cross-validate the pipeline, and a
closed-form two-qubit local-dynamics engine emits Schmidt-trajectory data.
"""

from .dynamics import (LocalHamiltonianSpec, TrajectoryPoint,
                       evolve_closed_form, evolve_numeric, pauli_propagator,
                       schmidt_initial_state, schmidt_trajectory)
from .errors import (DimensionMismatchError, HopfconError, NormalizationError,
                     ParameterError, SizeLimitError, SplitMismatchError)
from .hypercomplex import (FANO_TRIPLES, OCTONION_TABLE, QUATERNION_TABLE,
                           Octonion, Quaternion, oct_mul, quat_mul)
from .oracles import SO2_GENERATOR, generator_concurrence, minor_concurrence
from .projection import (OctProjection, PackedState, QuatProjection, concurrence,
                         equivariance_error, oct_concurrence, oct_pair_projections,
                         octonify, pack, pair_projections, project, quat_concurrence,
                         quat_pair_projections, quat_project, quaternify,
                         right_module_action, verify_equivariance)
from .states import (LocalUnitary2, PureState, apply_local, ghz_state, load_state,
                     make_state, random_local_unitary, random_state, random_unitary,
                     save_state, w_state)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError", "FANO_TRIPLES", "HopfconError",
    "LocalHamiltonianSpec", "LocalUnitary2", "NormalizationError",
    "OCTONION_TABLE", "OctProjection", "Octonion", "PackedState",
    "ParameterError", "PureState", "QUATERNION_TABLE", "QuatProjection",
    "Quaternion", "SO2_GENERATOR", "SizeLimitError", "SplitMismatchError",
    "TrajectoryPoint", "apply_local", "concurrence",
    "equivariance_error", "evolve_closed_form", "evolve_numeric",
    "generator_concurrence", "ghz_state", "load_state", "make_state",
    "minor_concurrence", "oct_concurrence", "oct_mul", "oct_pair_projections",
    "octonify", "pack", "pair_projections", "pauli_propagator", "project",
    "quat_concurrence", "quat_mul", "quat_pair_projections",
    "quat_project", "quaternify", "random_local_unitary", "random_state",
    "random_unitary", "right_module_action", "save_state",
    "schmidt_initial_state", "schmidt_trajectory", "verify_equivariance",
    "w_state",
]
