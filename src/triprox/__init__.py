"""triprox: exact point counts and leading-constant prediction for the
trilinear hypersurface x0*y0*z0 + ... + xn*yn*zn = 0 over triples of
projective spaces."""

__version__ = "0.1.0"

from .archimedean import (
    ArchEstimate,
    Target,
    mc_sigma1,
    mc_sigma2,
    mc_sigma_diag,
    mc_sigma_prime,
    sigma_infty_components,
    sigma_infty_prime,
)
from .arith import (
    divisor_count,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    prime_table,
    ramanujan_sum,
)
from .assembly import (
    CensusResult,
    Prediction,
    census,
    predicted_constant,
)
from .counting import (
    NAMED_CONVENTIONS,
    CountingConvention,
    Domain,
    ExactCount,
    count_points,
    mobius_count,
)
from .delta_method import bump, bump_integral, delta_series, kernel_h, q_range, window
from .errors import BudgetExceededError, OverflowGuardError
from .local_densities import (
    EulerProductResult,
    LocalDensityResult,
    euler_product,
    exp_sum_oracle,
    local_density,
    pair_zero_count,
    zero_freq_total,
)
from .oracle import oracle_sweep
