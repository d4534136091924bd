"""Elementary multiplicative number theory: factorization, Mobius mu, Euler phi,
divisor counts, and Ramanujan sums.

Arguments at desk scale are tiny, so factorization is trial division against a
sieved prime table (primes up to 10**6, covering trial division of q < 10**12).
The table is a read-only memoryview of one int32 array, 4 bytes a prime; its
items index, slice and iterate as Python ints.  ``mobius_sieve`` takes its
primes from the same sieve.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SIEVE_LIMIT = 10**6


def _primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit, increasing, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


@lru_cache(maxsize=1)
def prime_table() -> memoryview:
    """All 78,498 primes up to 10**6, as a read-only memoryview of one int32 array (314 KB)."""
    return memoryview(_primes_upto(_SIEVE_LIMIT).astype(np.int32)).toreadonly()


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in prime_table():
        if p * p > q:
            return True
        if q % p == 0:
            return q == p
    raise ValueError(f"{q} too large for the 10**6 trial-division table")


def factorize(q: int) -> list[tuple[int, int]]:
    """The (p, e) pairs with q = prod(p**e), primes strictly increasing."""
    if q < 1:
        raise ValueError(f"need a positive integer, got {q}")
    rem = q
    factors = []
    for p in prime_table():
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        if rem > _SIEVE_LIMIT**2:
            raise ValueError(f"{q} has a factor too large for the trial-division table")
        factors.append((rem, 1))
    return factors


def mobius(k: int) -> int:
    """Standard Mobius function: 0 on non-squarefree k, else (-1)^(#prime factors)."""
    if k < 1:
        raise ValueError(f"need a positive integer, got {k}")
    result = 1
    for _, e in factorize(k):
        if e > 1:
            return 0
        result = -result
    return result


def euler_phi(q: int) -> int:
    """Euler totient via factorization."""
    if q < 1:
        raise ValueError(f"need a positive integer, got {q}")
    result = q
    for p, _ in factorize(q):
        result -= result // p
    return result


def divisor_count(q: int) -> int:
    """Number of divisors tau(q) via factorization."""
    result = 1
    for _, e in factorize(q):
        result *= e + 1
    return result


def ramanujan_sum(q: int, l: int) -> int:
    """Sum of e^(2*pi*i*d*l/q) over units d mod q, by the closed form
    mu(q/g) * phi(q) / phi(q/g) with g = gcd(|l|, q) (g = q when l = 0)."""
    if q < 1:
        raise ValueError(f"need a positive modulus, got {q}")
    g = q if l == 0 else math.gcd(abs(l), q)
    m = q // g
    mu = mobius(m)
    if mu == 0:
        return 0
    return mu * (euler_phi(q) // euler_phi(m))


def ramanujan_sum_complex(q: int, l: int) -> complex:
    """Direct complex evaluation of the Ramanujan sum (test oracle)."""
    total = 0j
    for d in range(q):
        if math.gcd(d, q) == 1:
            total += np.exp(2j * np.pi * d * l / q)
    return total


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(1..limit) as an int8 array indexed from 0 (index 0 unused).  Only
    the primes p <= isqrt(limit) have a square within the array to clear."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    root = math.isqrt(limit)
    for p in _primes_upto(limit).tolist():
        mu[p::p] *= -1
        if p <= root:
            mu[p * p :: p * p] = 0
    return mu
