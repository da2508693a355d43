"""Positive definite kernels indexed by measurable sets over a finite weighted space.

The library realizes such kernels as inner products in the weighted L2 space
(factorization through a positive operator and its square root), builds Green
kernels of reversible transient Markov chains, and samples the associated
mean-zero Gaussian fields to test stochastic-integral second moments.
"""

from .errors import (
    AbsoluteContinuityError,
    ConfigError,
    DomainError,
    InconsistencyError,
    InvalidBasisError,
    InvalidChainError,
    InvalidCovarianceError,
    InvalidMapError,
    InvalidOperatorError,
    InvalidSetError,
    NotPositiveError,
    NotTransientError,
    OrderingError,
    SetKernError,
    VerificationError,
)
from .factorization import (
    AbsoluteContinuityReport,
    DensityReport,
    Factorization,
    RkhsElement,
    b_range_dimension,
    build_T,
    check_absolute_continuity,
    coisometry_b_star_batch,
    export_factorization,
    isometry_b,
    isometry_b_batch,
    onb_factorization,
    onb_gram,
    realize,
    reverse_direction,
    verify_pushforward,
    write_factorization,
)
from .field import (
    FieldSampler,
    ItoResult,
    build_sampler,
    cross_moment_check,
    ito_isometry_check,
    projection_second_moment,
    refinement_sweep,
)
from .kernels import (
    GramMatrix,
    SetKernel,
    counting_kernel,
    gram,
    operator_kernel,
    rank_one_kernel,
    wiener_kernel,
)
from .markov import (
    GreenData,
    MarkovChain,
    check_reversibility,
    check_transient,
    contractivity_check,
    green,
    green_kernel,
    green_root,
    reversibility_defect,
    spectral_gap,
)
from .measure import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    is_partition,
    is_refinement,
)

__version__ = "0.1.0"
