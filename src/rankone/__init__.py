"""Spectral/Frobenius norm ratios of tensors and homogeneous forms:
geometry, closed-form bounds, probabilistic models and Monte Carlo
verification."""

from .bounds import (
    BoundSet,
    TailBound,
    bounds_general,
    bounds_partially_symmetric,
    bounds_symmetric,
    bounds_symmetric_large_d,
    io_jacobian_det,
    log_covering_constant,
    lower_bound_general,
    projection_moment,
    projection_tail_bound,
    upper_bound_general,
)
from .experiments import (
    RatioStats,
    VerificationReport,
    estimate_ratio_distribution,
    export_report,
    verify_bw_l2_constant,
    tail_empirical_vs_bound,
    trend_large_d,
    verify_bounds,
)
from .harmonic import (
    HarmonicBasis,
    harmonic_basis,
    harmonic_dimension,
    l2_sphere_inner,
    bw_l2_constant,
    sphere_surface,
    zonal,
    zonal_pole_value,
)
from .poly import (
    HomogPoly,
    MultiHomogPoly,
    bw_inner,
    bw_norm,
    evaluate,
    gradient,
    laplacian,
    poly_from_symmetric_tensor,
    symmetric_tensor_from_poly,
)
from .sampling import (
    SeedSpec,
    gaussian_harmonic,
    gaussian_multi_harmonic,
    gaussian_tensor,
    kostlan_form,
    kostlan_multi,
    projection_ratio_sample,
    uniform_sphere,
)
from .spectral import (
    MaximizerConfig,
    SpectralResult,
    approx_error,
    brute_force_uniform_norm,
    ratio,
    spectral_norm_symmetric,
    spectral_value,
    total_norm,
)
from .tensor import (
    COMPLEX,
    REAL,
    Tensor,
    UnitVectorTuple,
    frobenius_inner,
    frobenius_norm,
    rank_one,
    symmetrize,
    tensor_from_array,
)

__version__ = "0.1.0"
