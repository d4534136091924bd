"""Complete exponential sums mod q and the non-archimedean local densities.

The zero-frequency sum over a residue pair (a, b) factors over coordinates:
each coordinate contributes q when q | d*a_k*b_k (d a unit) and 0 otherwise,
so the pair contributes q^(n+1)*phi(q) iff a_k*b_k = 0 mod q for every k.
Summing over all pairs gives the exact closed form

    total(q, n) = phi(q) * q^(n+1) * M(q)^(n+1),

with M(q) = #{(a,b) mod q : a*b = 0 mod q}, M(p^t) = p^t * (1 + t*(1 - 1/p)).
Everything here is exact integer arithmetic; complex exponentials appear only
in the brute-force oracle path.

The local density at p is sigma_p = sum_{t>=0} total(p^t, n) / p^((3n+3)t);
its terms collapse to (1 - 1/p) * p^(-n*t) * (1 + t*(1 - 1/p))^(n+1) for t >= 1
(re-derived from the closed form above, and validated against the oracle in
the test suite).  The truncation tail is bounded by the explicit majorant
(1 + t)^(n+1) * p^(-n*t), summed with a geometric tail once the term ratio
drops below 0.9.

The truncated sum stops at the first term that leaves the float sum unchanged.
The terms are positive with ratio p^(-n) * (1 + r/(1 + t*r))^(n+1) <= (4/3)(2/3)^n
< 1 (r = 1 - 1/p), so each later term is smaller and, float addition being monotone,
changes nothing either: the result is bit-for-bit the sum over all t <= t_max.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .arith import _SIEVE_LIMIT, euler_phi, factorize, is_prime, prime_table
from .errors import BudgetExceededError
from .lattice import check_dim

_COMPLEX_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# Exponential sums
# ---------------------------------------------------------------------------


def exp_sum_oracle(q: int, n: int, a, b, c=None, use_complex: bool = False):
    """Zero-or-nonzero-frequency complete exponential sum for one residue pair.

    Sums over units d mod q and residue vectors mod q of the additive
    character at (d * sum_k a_k*b_k*v_k + sum_k c_k*v_k)/q.  The default path
    collapses the inner vector sum coordinate-by-coordinate to the exact
    indicator q * [q | d*a_k*b_k + c_k] and returns an int; with
    ``use_complex=True`` the double sum is evaluated literally in complex
    arithmetic (budget-guarded) and returned as a complex number.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    check_dim(n)
    a = [int(v) % q for v in a]
    b = [int(v) % q for v in b]
    if len(a) != n + 1 or len(b) != n + 1:
        raise ValueError("residue vectors must have length n+1")
    c = [0] * (n + 1) if c is None else [int(v) for v in c]
    if len(c) != n + 1:
        raise ValueError("frequency vector must have length n+1")

    if use_complex:
        if q ** (n + 1) * euler_phi(q) > _COMPLEX_BUDGET:
            raise BudgetExceededError(f"complex double sum for q={q}, n={n} is too large")
        units = [d for d in range(q) if math.gcd(d, q) == 1]
        vecs = np.indices((q,) * (n + 1)).reshape(n + 1, -1)
        ab = np.array([ai * bi for ai, bi in zip(a, b)], dtype=np.int64)
        cc = np.array(c, dtype=np.int64)
        total = 0j
        for d in units:
            phase = ((d * ab + cc)[:, None] * vecs).sum(axis=0)
            total += np.exp(2j * np.pi * (phase % q) / q).sum()
        return complex(total)

    total = 0
    for d in range(q) if q > 1 else [0]:
        if q > 1 and math.gcd(d, q) != 1:
            continue
        term = 1
        for k in range(n + 1):
            if (d * a[k] * b[k] + c[k]) % q == 0:
                term *= q
            else:
                term = 0
                break
        total += term
    return total


def pair_zero_count(q: int) -> int:
    """M(q) = #{(a, b) in (Z/q)^2 : a*b = 0 mod q}.

    Multiplicative; at a prime power, M(p^t) = p^t * (1 + t*(1 - 1/p)) =
    p^t + t*phi(p^t) (validated against a direct double scan in the tests).
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    result = 1
    for p, t in factorize(q).factors:
        pt = p**t
        result *= pt + t * (pt - pt // p)
    return result


def zero_freq_total(q: int, n: int) -> int:
    """Total of the zero-frequency exponential sums over all residue pairs mod q.

    Exact: phi(q) * q^(n+1) * M(q)^(n+1).  Multiplicative in q.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    check_dim(n)
    return euler_phi(q) * q ** (n + 1) * pair_zero_count(q) ** (n + 1)


# ---------------------------------------------------------------------------
# Local densities and their Euler product
# ---------------------------------------------------------------------------


@dataclass
class LocalDensityResult:
    sigma_p: float
    sigma_p_prime: float
    tail_bound: float


def _density_term(p: int, n: int, t: int) -> float:
    """Exact-in-structure term of sigma_p at prime-power exponent t >= 1."""
    r = 1.0 - 1.0 / p
    return r * p ** (-n * t) * (1.0 + t * r) ** (n + 1)


def _tail_bound(p: int, n: int, t_max: int) -> float:
    """Rigorous bound on sum_{t > t_max} of the density terms.

    Terms are majorized by g(t) = (1+t)^(n+1) * p^(-n t), whose consecutive
    ratio g(t+1)/g(t) = ((t+2)/(t+1))^(n+1) * p^(-n) decreases in t and tends
    to p^(-n) <= 1/2.  Beyond the first T with ratio <= 0.9 the sum is
    dominated geometrically.
    """
    q = p ** (-n)
    e = n + 1
    total = 0.0
    t = t_max + 1
    while True:
        g = (1.0 + t) ** e * p ** (-n * t)
        ratio = ((t + 2.0) / (t + 1.0)) ** e * q
        if ratio <= 0.9:
            return total + g / (1.0 - ratio)
        total += g
        t += 1


def _sigma(p: int, n: int, t_max: int) -> tuple[float, float]:
    """(sigma_p, sigma_p') over t <= t_max, leaving the loop at the first term
    that no longer changes the float sum (bit-for-bit the full sum; the module
    docstring gives the argument)."""
    s = 1.0
    for t in range(1, t_max + 1):
        term = _density_term(p, n, t)
        if s + term == s:
            break
        s += term
    return s, (1.0 - p ** (-n)) ** 3 * s


def local_density(p: int, n: int, t_max: int) -> LocalDensityResult:
    """Truncated local density sigma_p with a rigorous truncation tail bound.

    sigma_p >= 1 always (the t = 0 term is 1 and all terms are nonnegative);
    sigma_p_prime = (1 - p^(-n))^3 * sigma_p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_dim(n)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    s, s_prime = _sigma(p, n, t_max)
    return LocalDensityResult(s, s_prime, _tail_bound(p, n, t_max))


@dataclass
class EulerProductResult:
    value: float
    tail: float


def euler_product(n: int, p_max: int, t_max: int = 40) -> EulerProductResult:
    """prod_{p <= p_max} sigma_p' with an absolute estimate of the neglected part.

    The tail combines (i) the prime cutoff: for p with p^n >= 2^(n+2) one has
    sigma_p - 1 <= 2^(n+2) * p^(-n), so sum_{p > P} |log sigma_p'| <=
    (2^(n+2) + 6) * P^(1-n)/(n-1) (n >= 2; infinite for n = 1, where the
    product itself need not converge), and (ii) the per-factor truncation
    tails at t_max.  Reported as value * expm1(log-tail).  p_max may not
    exceed the prime table, which would drop factors without widening the tail.
    Each t-sum stops at the first term that leaves it unchanged; the terms fall
    strictly, so it is bit-for-bit the all-t sum.  Primes come from the table.
    Only the value and the tail are returned; the factors are not kept
    (``local_density(p, n, t_max).sigma_p_prime`` gives any one of them).
    """
    check_dim(n)
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    if p_max > _SIEVE_LIMIT:
        raise ValueError(f"p_max must be <= {_SIEVE_LIMIT} (the prime table limit), got {p_max}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    primes = prime_table()
    stop = bisect.bisect_right(primes, p_max)
    value = 1.0
    log_trunc = 0.0
    for p in primes[:stop]:
        s, s_prime = _sigma(p, n, t_max)
        value *= s_prime
        log_trunc += _tail_bound(p, n, t_max) / s

    if n == 1:
        log_prime_tail = math.inf
    else:
        # Cover explicitly the few primes beyond p_max where the closed-form
        # majorant sigma_p - 1 <= 2^(n+2) * p^(-n) is not yet valid.
        p_cut = p_max
        log_small = 0.0
        for p in primes[stop:]:
            if p**n >= 2 ** (n + 2):
                break
            _, s_prime = _sigma(p, n, t_max)
            log_small += abs(math.log(s_prime)) + _tail_bound(p, n, t_max)
            p_cut = p
        log_prime_tail = log_small + (2 ** (n + 2) + 6) * p_cut ** (1 - n) / (n - 1)

    tail = value * math.expm1(log_prime_tail + log_trunc) if math.isfinite(log_prime_tail) else math.inf
    return EulerProductResult(value, tail)
