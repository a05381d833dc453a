"""Bipartite concurrence via quaternionic/octonionic stereographic projection.

Pure states on H_2 (x) H_N and H_4 (x) H_N are packed into quaternion and
octonion coefficient vectors; the pairwise stereographic projections split
into a Schmidt part and hypercomplex parts whose magnitudes assemble into
the concurrence.  Minor-determinant and group-generator oracles, which
never touch the hypercomplex algebra, cross-validate the pipeline, and a
closed-form two-qubit local-dynamics engine emits Schmidt-trajectory data.
"""

from .dynamics import (LocalHamiltonianSpec, TrajectoryPoint, evolve_closed_form,
                       pauli_propagator, schmidt_trajectory)
from .errors import (DimensionMismatchError, HopfconError, NormalizationError,
                     ParameterError, SizeLimitError, SplitMismatchError)
from .hypercomplex import FANO_TRIPLES, OCTONION_TABLE, QUATERNION_TABLE, Octonion, Quaternion
from .oracles import SO2_GENERATOR, generator_concurrence, minor_concurrence
from .projection import (OctProjection, PackedState, QuatProjection, concurrence,
                         equivariance_error, pack, pair_projections, project,
                         right_module_action)
from .states import (LocalUnitary2, PureState, apply_local, ghz_state, load_state,
                     make_state, random_local_unitary, random_state, random_unitary,
                     save_state, w_state)

# Benchmark hooks, not API: perfbench/ calls these as hopfcon.<name> and labels its spans
# by __name__, so they stay until it calls the general names.
from .dynamics import evolve_numeric, schmidt_initial_state
from .hypercomplex import oct_mul, quat_mul
from .projection import (oct_concurrence, oct_pair_projections, octonify, quat_concurrence,
                         quat_pair_projections, quat_project, quaternify, verify_equivariance)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError", "FANO_TRIPLES", "HopfconError", "LocalHamiltonianSpec",
    "LocalUnitary2", "NormalizationError", "OCTONION_TABLE", "OctProjection", "Octonion",
    "PackedState", "ParameterError", "PureState", "QUATERNION_TABLE", "QuatProjection",
    "Quaternion", "SO2_GENERATOR", "SizeLimitError", "SplitMismatchError", "TrajectoryPoint",
    "apply_local", "concurrence", "equivariance_error", "evolve_closed_form",
    "generator_concurrence", "ghz_state", "load_state", "make_state", "minor_concurrence",
    "pack", "pair_projections", "pauli_propagator", "project", "random_local_unitary",
    "random_state", "random_unitary", "right_module_action", "save_state",
    "schmidt_trajectory", "w_state",
]
