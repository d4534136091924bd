import math

import pytest

from triprox import divisor_count, euler_phi, factorize, mobius, ramanujan_sum
from triprox.arith import is_prime, mobius_sieve, ramanujan_sum_complex


def test_factorize_roundtrip():
    for q in range(1, 500):
        f = factorize(q)
        prod = 1
        for p, e in f:
            prod *= p**e
        assert prod == q
        assert f == sorted(f)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(8) == 4
    assert euler_phi(36) == 12


def test_divisor_count_values():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(360) == 24


def test_ramanujan_examples():
    assert ramanujan_sum(4, 0) == euler_phi(4) == 2
    assert ramanujan_sum(2, 1) == -1
    assert ramanujan_sum(6, 2) == -1


def test_ramanujan_matches_complex_sum():
    for q in range(1, 31):
        for l in range(-10, 11):
            direct = ramanujan_sum_complex(q, l)
            assert abs(direct.imag) < 1e-9
            assert abs(direct.real - ramanujan_sum(q, l)) < 1e-9


def test_multiplicativity_exhaustive():
    for q1 in range(1, 31):
        for q2 in range(1, 31):
            if math.gcd(q1, q2) != 1:
                continue
            assert mobius(q1 * q2) == mobius(q1) * mobius(q2)
            assert euler_phi(q1 * q2) == euler_phi(q1) * euler_phi(q2)
            assert divisor_count(q1 * q2) == divisor_count(q1) * divisor_count(q2)
            for l in (0, 1, 5, 12):
                assert ramanujan_sum(q1 * q2, l) == ramanujan_sum(q1, l) * ramanujan_sum(q2, l)


def test_ramanujan_periodicity_and_evenness():
    for q in range(1, 25):
        for l in range(-2 * q, 2 * q + 1):
            assert ramanujan_sum(q, l) == ramanujan_sum(q, l % q)
            assert ramanujan_sum(q, l) == ramanujan_sum(q, -l)


def test_ramanujan_divisor_sum_identity():
    for q in range(1, 51):
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        for l in range(-50, 51):
            total = sum(ramanujan_sum(d, l) for d in divisors)
            assert total == (q if l % q == 0 else 0)


def test_mobius_sieve_agrees():
    # limits 0-4: the loop over primes is empty or a single step
    for limit in range(5):
        assert mobius_sieve(limit).tolist() == [0, 1, -1, -1, 0][: limit + 1]
    mu = mobius_sieve(10**4)
    assert mu.dtype.name == "int8" and len(mu) == 10**4 + 1
    for k in range(1, 10**4 + 1):
        assert int(mu[k]) == mobius(k)


def test_positive_argument_required():
    for fn in (mobius, euler_phi, divisor_count, factorize):
        with pytest.raises(ValueError):
            fn(0)


def test_is_prime_matches_trial_division():
    for q in range(10**4):
        trial = q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))
        assert is_prime(q) == trial, q
    assert is_prime(999983) and not is_prime(10**6) and is_prime(1000003)
    with pytest.raises(ValueError):
        is_prime(1000003**2)  # beyond the table's trial-division reach (10^12)
