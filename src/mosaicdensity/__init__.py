"""Edge densities of convex mosaics built from space-filling zonotopes.

The package parametrizes the five combinatorial types of 3-D
parallelohedra as zonotopes over a centered frame, evaluates weighted
edge functionals and their per-type minima, bounds the density of
decomposable mosaics, and simulates lattice tilings to measure edge
density empirically.  See the README for the CLI.
"""

from .decomposable import (
    CertificateFailed,
    ConstraintViolated,
    DecompositionSpec,
    PlanarComponent,
    SegmentComponent,
    brute_force_minimize,
    density_bound_even,
    density_bound_odd,
    minimize_density,
    monotonicity_certificates,
)
from .simplex import (
    DomainError,
    SimplexPoint,
    boundary_candidates,
    grid_simplex_max,
    scaled_simplex_max,
)
from .tetra import (
    CenteredTetrahedron,
    PairInvariants,
    center,
    pair_invariants,
)
from .tiling import (
    DensityEstimate,
    Gap,
    Lattice,
    NoValidBasis,
    Overlap,
    RadiusTooSmall,
    convergence_series,
    lattice_from_parallelohedron,
    skeleton_density,
    validate_tiling,
)
from .weights import (
    FacetMeasure,
    NegativeBeta,
    NoConvergence,
    NotOrthogonal,
    OptimalAnswer,
    TypeMinimum,
    Winner,
    classify_optimal,
    stationary_betas_type4,
    type4_sweep,
    type_minimum,
)
from .zonotope import (
    BeltAnomaly,
    BeltClass,
    BetaVector,
    DegenerateFrame,
    FlatBody,
    GeneratorSet,
    GeometryError,
    NotCentered,
    WeightPair,
    Zonotope,
    belts,
    build_from_parameters,
    build_zonotope,
    cube,
    elongated_rhombic_dodecahedron,
    from_json,
    hexagonal_prism,
    rhombic_dodecahedron,
    to_json,
    truncated_octahedron,
    unit_volume,
    validate_generators,
    volume_polynomial,
    weighted_edge_functional,
)

__version__ = "0.1.0"

NUMBA_ENABLED = False  # kernels are numpy-only; kept for the benchmark's environment block

__all__ = [
    "NUMBA_ENABLED",
    "__version__",
    # zonotope construction
    "GeometryError", "NotCentered", "DegenerateFrame", "FlatBody", "BeltAnomaly",
    "BeltClass", "GeneratorSet", "BetaVector", "WeightPair",
    "Zonotope", "validate_generators", "volume_polynomial",
    "build_zonotope", "build_from_parameters", "belts", "weighted_edge_functional",
    "to_json", "from_json",
    "cube", "hexagonal_prism", "rhombic_dodecahedron",
    "elongated_rhombic_dodecahedron", "truncated_octahedron", "unit_volume",
    # tetrahedra
    "CenteredTetrahedron", "PairInvariants", "center", "pair_invariants",
    # simplex maximization
    "DomainError", "SimplexPoint", "scaled_simplex_max", "grid_simplex_max",
    "boundary_candidates",
    # weighted minima
    "TypeMinimum", "OptimalAnswer", "Winner", "FacetMeasure", "type_minimum",
    "classify_optimal", "stationary_betas_type4", "type4_sweep",
    "NotOrthogonal", "NegativeBeta", "NoConvergence",
    # decomposable bounds
    "PlanarComponent", "SegmentComponent", "DecompositionSpec", "ConstraintViolated",
    "CertificateFailed", "density_bound_even", "density_bound_odd", "minimize_density",
    "brute_force_minimize", "monotonicity_certificates",
    # tiling simulation
    "Lattice", "DensityEstimate", "NoValidBasis", "Overlap", "Gap",
    "RadiusTooSmall", "lattice_from_parallelohedron", "validate_tiling",
    "skeleton_density", "convergence_series",
]
