"""Numerical toolkit for noncommutative pseudometrics and free convolution.

Infinitesimal metrics on matrix-level nc domains (ray search, closed
forms, kernel formula), a division distance bound and a path distance
estimate, contraction reports for nc functions, and the operator-valued
subordination solver with spectral-density output.
"""

from .matcore import (
    InputError,
    NcmetricError,
    NonHermitianInput,
    NotPositiveDefinite,
    NumericalFailure,
    SingularMatrix,
    herm_eig,
    herm_part,
    imag_part,
    inverse,
    is_hermitian,
    operator_norm,
    psd_inv_sqrt,
)
from .ncpoint import (
    BaseDimMismatch,
    DimMismatch,
    NcDirection,
    NcPoint,
    NotUnitary,
    amplify,
    block_upper,
    direct_sum,
    direction,
    point,
    unitary_conjugate,
)
from .ncfunc import (
    CayleyLike,
    Composition,
    DomainViolation,
    MoebiusBall,
    Polynomial,
    ScalarCalculus,
    SeriesNotConverged,
    check_axioms,
    delta_f,
    eval_mat,
    eval_point,
)
from .domains import (
    BallKernel,
    ComposedBallKernel,
    ComposedHalfPlaneKernel,
    EvaluationFailure,
    HalfPlaneKernel,
    KernelDomain,
    NilpotentCone,
    NormBound,
    PointOutsideDomain,
    SpectralDisk,
    ball_domain,
    contains,
    gram,
    halfplane_domain,
    kernel_diffs,
    kernel_eval,
    members,
    require_inside,
)
from .metric import (
    DeltaResult,
    DtildeBound,
    NestingViolation,
    PathBlocked,
    PathBound,
    check_contraction,
    compare_nested,
    d_upper,
    delta_auto,
    delta_auto_tilde,
    delta_closed,
    delta_kernel,
    delta_ray,
    delta_routes,
    delta_tilde,
    dtilde_upper,
)
from .freeprob import (
    DensityResult,
    FixedPointResult,
    H0Map,
    KrausAugment,
    MatrixModel,
    MaxIterExceeded,
    NotInHalfPlane,
    RangeViolation,
    ScalarLaw,
    ScalarPower,
    SingularResolvent,
    SolveTrace,
    cauchy_G,
    density_grid,
    expectation,
    F_and_h,
    k0_and_fixed_point,
    make_h0,
    picard_ratio,
    subordination_solve,
    support_interval,
)
from .props import CheckResult, report_csv, run_suite
from .sampling import rng_stream

__version__ = "0.1.0"
