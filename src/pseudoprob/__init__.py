"""Pseudo-projections, joint pseudo-probability schemes, and negativity
diagnostics for small quantum systems.

The central objects are hermitized ordered products of projectors
(pseudo-projections), the tables of their expectations over all joint
outcomes (schemes), the negativity of those tables as a non-classicality
measure, and closed qubit forms with classicality thresholds plus a pure
two-qubit entanglement monotone derived from reduced-state purity.
"""

__version__ = "0.1.0"

from .entanglement import (
    TwoQubitPureState,
    apply_local_unitaries,
    monotone,
    random_single_qubit_unitary,
    reduced_bloch_norm,
    reduced_density,
)
from .errors import (
    DimensionMismatch,
    EigenConvergenceError,
    InvalidConvexWeights,
    InvalidRecipe,
    InvalidState,
    NonHermitianInput,
    NonHermitianTrace,
    NotAProjector,
    OrderingExplosion,
    PartitionSearchTooLarge,
    PseudoprobError,
    UnphysicalBloch,
)
from .operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HermitianOperator,
    commutator_norm,
    eigenvalues_hermitian,
    idempotency_residual,
    identity,
    symmetrized_product,
    tensor,
    trace_with,
)
from .pseudoprojection import (
    PseudoProjection,
    Recipe,
    SpectralAudit,
    combine,
    disjunction_operator,
    negation_operator,
    negation_product_residual,
    spectral_audit,
    unit_pseudo_projections,
    weyl_pseudo_projection,
)
from .qubit import (
    NegativityMax,
    PairGeometry,
    TripleGeometry,
    coplanar_triple_directions,
    critical_radius_bisection,
    negativity_max,
    negativity_special,
    pair_classical_radius,
    pair_entries,
    pair_scheme_closed,
    triple_classical_radius,
    triple_entries,
    triple_scheme_weyl_closed,
    worst_case_min_entry,
)
from .schemes import (
    Classification,
    CoarseGraining,
    Scheme,
    build_scheme,
    classify,
    marginal,
    minimal_coarse_graining,
    negativity,
)
from .states import (
    DensityDiagnostics,
    DensityMatrix,
    Observable,
    bloch_from_density,
    bloch_vector,
    density_from_bloch,
    direction,
    observable_from_direction,
    projector_from_direction,
    validate_density,
)
