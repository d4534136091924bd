"""Singular-locus census and assembly of the predicted leading constant.

The singular locus of the hypersurface is a union of coordinate subvarieties
indexed by triples (I, J, K) of proper subsets of {0..n} whose pairwise
intersections cover every index.  Their number has the closed form
4^(n+1) - 3*3^(n+1) + 3*2^(n+1) - 1 (each index lies in at least two of the
three sets, minus the triples using a full set), checked here against direct
enumeration.

The predicted leading constant is

    C = (1/(2n)) * (euler product of rescaled local densities) * sigma_inf'.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .archimedean import ArchEstimate, _check_indices, _check_mc_inputs, sigma_infty_prime
from .errors import BudgetExceededError, check_dim
from .local_densities import EulerProductResult, euler_product

_CENSUS_ORACLE_MAX_N = 4


@dataclass
class CensusResult:
    count: int
    by_dimension: dict[int, int] | None = None


def census(n: int, mode: str = "formula") -> CensusResult:
    """Number of singular index triples (I, J, K).

    formula mode evaluates 4^(n+1) - 3*3^(n+1) + 3*2^(n+1) - 1; oracle mode
    enumerates all subset triples with (I&J)|(J&K)|(I&K) covering {0..n} and
    no set equal to the full index set, reporting counts by stratum dimension
    3n - (|I| + |J| + |K|).
    """
    check_dim(n)
    if mode == "formula":
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # str()'s digits, 0: no limit
        if limit and math.floor((n + 1) * math.log10(4)) >= limit:  # 4^(n+1)'s digits, the count's for n >= 10
            raise BudgetExceededError(f"census count for n={n} has more than the {limit} digits str() prints")
        count = 4 ** (n + 1) - 3 * 3 ** (n + 1) + 3 * 2 ** (n + 1) - 1
        return CensusResult(count)
    if mode != "oracle":
        raise ValueError(f"mode must be 'formula' or 'oracle', got {mode!r}")
    if n > _CENSUS_ORACLE_MAX_N:
        raise BudgetExceededError(f"census oracle enumerates 8^(n+1) triples; n={n} > {_CENSUS_ORACLE_MAX_N}")
    full = (1 << (n + 1)) - 1
    popcount = [bin(m).count("1") for m in range(full + 1)]
    count = 0
    by_dim: dict[int, int] = {}
    for I in range(full):
        for J in range(full):
            IJ = I & J
            for K in range(full):
                if (IJ | (J & K) | (I & K)) == full:
                    count += 1
                    dim = 3 * n - (popcount[I] + popcount[J] + popcount[K])
                    by_dim[dim] = by_dim.get(dim, 0) + 1
    return CensusResult(count, dict(sorted(by_dim.items())))


@dataclass
class Prediction:
    euler_product: EulerProductResult
    sigma_inf_prime: ArchEstimate
    C: float
    C_stderr: float


def predicted_constant(n: int, p_max: int, t_max: int, mc_samples: int, seed: int) -> Prediction:
    """Predicted leading constant C with propagated uncertainty.

    C_stderr combines the Monte Carlo stderr of the archimedean factor with
    the Euler-product tail estimate in quadrature.  The MC runs once;
    sigma_inf_prime.components holds its diagonal/off-diagonal split.
    """
    _check_indices(n, 0)  # check_dim, and the MC's n < 64, before the Euler product
    if n < 2:
        raise ValueError("the predicted constant requires n >= 2 (the Euler product diverges at n=1)")
    _check_mc_inputs(mc_samples, seed)  # before the Euler product, which can take a while
    ep = euler_product(n, p_max, t_max)
    arch = sigma_infty_prime(n, mc_samples, seed)
    C = ep.value * arch.mean / (2.0 * n)
    C_stderr = math.hypot(ep.value * arch.stderr, ep.tail * arch.mean) / (2.0 * n)
    return Prediction(euler_product=ep, sigma_inf_prime=arch, C=C, C_stderr=C_stderr)
