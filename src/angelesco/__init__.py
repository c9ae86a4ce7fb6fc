"""Type I multiple orthogonal polynomials on an r-star.

An Angelesco system whose r measures live on the star segments
[0, omega^(j-1)], omega = exp(2 pi i/r), with weight |x|^beta (1-x^r)^alpha.
The library builds the type I vectors at and next to the diagonal
multi-index in closed form, verifies them against an analytic moment
oracle, and provides their recurrence coefficients, the order-(r+1)
differential equation, zeros, and the asymptotic zero distribution with
its algebraic Stieltjes transform.
"""

from .asymptotics import (
    DensityCurve,
    algebraic_residual_w,
    cubic_branches_r2,
    density_curve,
    endpoint_exponents,
    hatx_of_theta,
    ks_distance,
    limit_cdf,
    perron_density,
    solve_stieltjes_boundary,
    stieltjes_branches,
    stieltjes_limit,
    theta_of_hatx,
    u_closed_r2,
    u_density,
    w_density,
)
from .numerics import (
    DegenerateParameters,
    DoubleRangeError,
    gamma_ratio,
    pochhammer,
)
from .operators import (
    OdeSpec,
    lowering_check,
    ode_coeffs,
    ode_residual,
    raising_check,
    raising_coeffs,
)
from .orthogonality import (
    OrthoReport,
    moment,
    ray_form,
    verify_level,
    verify_type1,
    verify_type1_many,
)
from .poly import poly_eval
from .polynomials import (
    DEGREE_CAP,
    Constants,
    DegreeCapError,
    MultiIndexTag,
    Params,
    TypeIVector,
    base_poly,
    diagonal_normalizer,
    down_normalizer,
    leading_coefficient,
    normalization_constants,
    type1_diagonal,
    type1_down,
    type1_up,
    up_normalizer,
)
from .recurrence import (
    coeff_a,
    coeff_b,
    limit_a,
    limit_b,
    recurrence_residual,
    recurrence_residuals,
)
from .zeros import ZeroFindingError, ZeroSet, empirical_cdf, find_zeros, stieltjes_empirical

__version__ = "0.1.0"
