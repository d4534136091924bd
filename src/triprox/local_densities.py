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
(1 + t)^(n+1) * p^(-n*t), summed as a geometric series from t_max + 1 on,
where its term ratio is already at most 8/9.

The truncated sum stops at the first term that leaves the float sum unchanged.
The terms are positive with ratio p^(-n) * (1 + r/(1 + t*r))^(n+1) <= (4/3)(2/3)^n
< 1 (r = 1 - 1/p), so each later term is smaller and, float addition being monotone,
changes nothing either: the result is bit-for-bit the sum over all t <= t_max.
A prime may also stop before computing its term at t, once (1+t)^(n+1) * q^t
<= 2^-55, q = p^(-n) and q^t by repeated products: the term is at most that
majorant, both round by a few ulps, and a term below 2^-53 is under half an
ulp of the sum (>= 1), so the stop is the same.  At n = 2 this skips the t = 2
powers from p = 31,469 on.

The densities of an array of primes are computed at once, element by element
in the order of the one-prime formulas, so each keeps its bits: numpy's
+ - * / are exact IEEE.  Powers are math.pow mapped over the array, the libm
pow that Python's ** calls.  numpy 2.4's SIMD np.power differs in the last bit
on AVX-512 (in 4,214 of the 78,498 values of p^-2 and 8,749 of (1+r)^3), which
changes 162 values of sigma_p at n = 2, and the product.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import _SIEVE_LIMIT, euler_phi, factorize, is_prime, prime_table
from .errors import BudgetExceededError, check_dim

_COMPLEX_BUDGET = 5_000_000
_CHUNK = 4096  # primes per array pass of euler_product


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
    for p, t in factorize(q):
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


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """x**e element by element through libm pow, the one Python's ** calls."""
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(e)), float, len(x))


def _densities(p: np.ndarray, n: int, t_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_p, sigma_p', tail bound) for each prime of the float array p.

    Each t-sum stops as the module docstring describes.  The tail bound
    majorizes the terms by g(t) = (1+t)^(n+1) * p^(-n t), whose consecutive
    ratio g(t+1)/g(t) = ((t+2)/(t+1))^(n+1) * p^(-n) decreases in t and tends
    to p^(-n) <= 1/2; the sum over t > t_max is at most g(t_max+1) / (1 - ratio).
    """
    e = n + 1
    r = 1.0 - 1.0 / p
    q = _pow(p, -n)
    s = np.ones(len(p))
    live = np.arange(len(p))
    qt = np.ones(len(p))
    for t in range(1, t_max + 1):
        qt = qt * q[live]
        keep = (1.0 + t) ** e * qt > 2.0**-55
        live, qt = live[keep], qt[keep]
        ra = r[live]
        term = ra * (qt if t == 1 else _pow(p[live], -n * t)) * _pow(1.0 + t * ra, e)
        new = s[live] + term
        keep = new != s[live]
        live, qt = live[keep], qt[keep]
        s[live] = new[keep]
        if not len(live):
            break

    tail = np.zeros(len(p))
    # Where p^(-n t) <= 2^-1080, far below 2^-1075, pow rounds every g to 0.0: tail stays 0.0.
    live = np.flatnonzero(n * (t_max + 1) * np.log2(p) < 1080)
    t = t_max + 1
    g = (1.0 + t) ** e * _pow(p[live], -n * t)
    # t >= 2 (callers refuse t_max < 1), so ratio <= (4/3)^(n+1) * 2^-n <= 8/9
    # for every p >= 2 and n >= 1: the geometric bound holds from the first term.
    ratio = ((t + 2.0) / (t + 1.0)) ** e * q[live]
    tail[live] = g / (1.0 - ratio)
    return s, _pow(1.0 - q, 3) * s, tail


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
    s, s_prime, tail = _densities(np.array([float(p)]), n, t_max)
    return LocalDensityResult(float(s[0]), float(s_prime[0]), float(tail[0]))


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
    Each t-sum is bit-for-bit the all-t sum (see the module docstring).  Primes
    come from the table _CHUNK at a time, so the peak memory does not grow with
    p_max; value *= sigma_p' and log_trunc += tail/sigma_p fold in prime order
    across chunks by ufunc accumulate, left to right (np.prod and np.sum go
    pairwise).  Only the value and the tail are returned; the factors are not
    kept (``local_density(p, n, t_max).sigma_p_prime`` gives any one of them).
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
    value, log_trunc = 1.0, 0.0
    for lo in range(0, stop, _CHUNK):
        s, s_prime, tail = _densities(np.array(primes[lo : min(lo + _CHUNK, stop)], float), n, t_max)
        value = np.multiply.accumulate(np.concatenate(([value], s_prime)))[-1].item()
        log_trunc = np.add.accumulate(np.concatenate(([log_trunc], tail / s)))[-1].item()

    if n == 1:
        log_prime_tail = math.inf
    else:
        # Cover explicitly the few primes beyond p_max where the closed-form
        # majorant sigma_p - 1 <= 2^(n+2) * p^(-n) is not yet valid.
        small = list(itertools.takewhile(lambda p: p**n < 2 ** (n + 2), primes[stop:]))
        p_cut = small[-1] if small else p_max
        log_small = 0.0
        _, s_primes, tails = _densities(np.array(small, float), n, t_max)
        for s_prime, tail in zip(s_primes.tolist(), tails.tolist()):
            log_small += abs(math.log(s_prime)) + tail
        log_prime_tail = log_small + (2 ** (n + 2) + 6) * p_cut ** (1 - n) / (n - 1)

    tail = value * math.expm1(log_prime_tail + log_trunc) if math.isfinite(log_prime_tail) else math.inf
    return EulerProductResult(value, tail)
