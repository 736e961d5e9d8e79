"""Galerkin machinery for Dirichlet problems driven by a competing
(p,q)-Laplacian with an intrinsic operator inside the convection term."""

from .discretization import (
    DomainMesh,
    FEFunction,
    QuadratureSamples,
    SpaceHierarchy,
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    prolongate,
    sample,
    unit_square_mesh,
)
from .operators import (
    ConvectionTerm,
    GrowthEnvelope,
    SigmaWeight,
    assemble_jacobian,
    assemble_residual,
    competing_pairing,
    convection_from_catalog,
    p_laplace_pairing,
)
from .intrinsic import (
    BoundaryLift,
    Convolution,
    Identity,
    IntrinsicCertificate,
    IntrinsicOperator,
    apply,
    certificate,
)
from .constants import (
    EmbeddingConstants,
    HypothesisReport,
    build_constants,
    check_smallness,
    coercivity_radius,
    critical_surrogate,
    estimate_embedding_constant,
    estimate_lambda1p,
    smallness_pairings,
)
from .solver import (
    BrouwerResult,
    LevelSolve,
    ProblemInstance,
    SolveReport,
    brouwer_zero,
    convergence_diagnostics,
    run_hierarchy,
    solve_level,
    sphere_certificate,
)
from .config import ProblemSpec, build_instance, parse_config, parse_config_dict

__version__ = "0.1.0"
