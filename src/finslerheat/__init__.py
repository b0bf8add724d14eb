"""Numerical laboratory for nonlinear heat flow on flat weighted tori.

Solves the flow generated by an anisotropic (possibly asymmetric)
Minkowski norm, realizes the linearized transport semigroup along
recorded trajectories, and verifies parabolic gradient bounds, Harnack
inequalities, and entropy estimates with explicit discretization
tolerances.
"""

from ._version import __version__
from .errors import (
    AlphaSignChange,
    ConfigError,
    DomainError,
    FinslerHeatError,
    IndexRange,
    NoConvergence,
    NoRoot,
    ProfileInadmissible,
    SolverDivergence,
    Unbounded,
    UnsupportedFamily,
)
from .geometry import (
    CurvatureBound,
    CovectorField,
    MeasureField,
    ScalarField,
    TorusGrid,
    VectorField,
    finsler_distance,
    gradient_field,
    ricci_lower_bound,
)
from .harnack import (
    CallableFlow,
    ThetaDescriptor,
    harnack_bound_integral,
    harnack_bound_lf,
    theta,
    theta_conjugate,
    theta_descriptor,
    verify_harnack,
)
from .heat import (
    BochnerResult,
    DiffusionAssembly,
    Trajectory,
    bochner_residual,
    heat_step,
    solve_heat_flow,
    weighted_laplacian,
)
from .liyau import (
    LiYauCoefficients,
    LiYauProfile,
    PsiEvaluator,
    alpha_phi,
    check_exp_uu,
    check_log_sob_weak,
    envelope_zeros,
    kernel_equality_residual,
    linearize_psi,
    residual_linear,
    residual_psi,
)
from .metrics import (
    Asym1DNorm,
    EuclideanNorm,
    MetricField,
    RandersNorm,
    RiemannianNorm,
    reversibility,
)
from .reporting import InequalityReport, compare, compare_discretized
from .semigroup import (
    check_cauchy_schwarz,
    check_conservative,
    check_contraction,
    check_duality,
    check_order_and_bounds,
    check_positivity,
    check_semigroup_law,
    gradient_estimate_check,
    laplacian_commutation,
    lipschitz_decay,
    local_logsob_check,
    variance_identity,
)
