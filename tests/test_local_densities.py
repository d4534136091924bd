import math
from fractions import Fraction

import numpy as np
import pytest

from triprox import (
    euler_product,
    exp_sum_oracle,
    local_density,
    pair_zero_count,
    zero_freq_total,
)
from triprox import divisor_count, euler_phi
from triprox.arith import prime_table
from triprox.local_densities import _densities

from test_imports import run_fresh


def pair_zero_scan(q):
    return sum(1 for a in range(q) for b in range(q) if (a * b) % q == 0)


# The scalar formulas, one prime at a time, as the library first computed them.


def oracle_term(p, n, t):
    """Term of sigma_p at prime-power exponent t >= 1."""
    r = 1.0 - 1.0 / p
    return r * p ** (-n * t) * (1.0 + t * r) ** (n + 1)


def oracle_sigma(p, n, t_max):
    """(sigma_p, sigma_p') over t <= t_max, leaving at the first term that
    no longer changes the float sum."""
    s = 1.0
    for t in range(1, t_max + 1):
        term = oracle_term(p, n, t)
        if s + term == s:
            break
        s += term
    return s, (1.0 - p ** (-n)) ** 3 * s


def oracle_tail(p, n, t_max):
    """Bound on the terms beyond t_max: the majorant (1+t)^(n+1) * p^(-n t),
    summed term by term until its ratio drops to 0.9, then geometrically."""
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


def oracle_euler_product(n, p_max, t_max):
    """(value, tail) of euler_product, folded one prime at a time."""
    primes = prime_table()
    value, log_trunc = 1.0, 0.0
    for p in primes:
        if p > p_max:
            break
        s, s_prime = oracle_sigma(p, n, t_max)
        value *= s_prime
        log_trunc += oracle_tail(p, n, t_max) / s
    log_prime_tail = (2 ** (n + 2) + 6) * p_max ** (1 - n) / (n - 1)
    return value, value * math.expm1(log_prime_tail + log_trunc)


class TestExpSum:
    def test_trivial_modulus(self):
        assert exp_sum_oracle(1, 2, [0, 0, 0], [0, 0, 0]) == 1

    def test_unit_products_vanish(self):
        assert exp_sum_oracle(2, 2, [1, 1, 1], [1, 1, 1]) == 0

    def test_zero_row_gives_full_mass(self):
        assert exp_sum_oracle(2, 2, [0, 0, 0], [1, 1, 1]) == euler_phi(2) * 2**3

    def test_factored_matches_complex(self):
        cases = [
            (2, 1, [1, 0], [1, 1], [0, 0]),
            (3, 1, [1, 2], [2, 2], [1, 0]),
            (4, 2, [2, 0, 1], [2, 1, 3], [0, 2, 1]),
            (5, 2, [1, 2, 3], [4, 0, 2], None),
            (6, 1, [3, 2], [2, 3], [1, 1]),
        ]
        for q, n, a, b, c in cases:
            exact = exp_sum_oracle(q, n, a, b, c)
            direct = exp_sum_oracle(q, n, a, b, c, use_complex=True)
            assert abs(direct.imag) < 1e-6
            assert abs(direct.real - exact) < 1e-6


class TestPairZeroCount:
    def test_examples(self):
        assert pair_zero_count(2) == 3
        assert pair_zero_count(4) == 8
        assert pair_zero_count(12) == pair_zero_count(4) * pair_zero_count(3) == 40

    def test_closed_form_against_scan(self):
        for q in range(1, 65):
            assert pair_zero_count(q) == pair_zero_scan(q)


class TestZeroFreqTotal:
    def test_trivial(self):
        assert zero_freq_total(1, 2) == 1

    def test_q2_n2(self):
        assert zero_freq_total(2, 2) == 216

    def test_matches_oracle_double_sum_small(self):
        for q, n in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]:
            total = 0
            for a_idx in range(q ** (n + 1)):
                a = [(a_idx // q**k) % q for k in range(n + 1)]
                for b_idx in range(q ** (n + 1)):
                    b = [(b_idx // q**k) % q for k in range(n + 1)]
                    total += exp_sum_oracle(q, n, a, b)
            assert total == zero_freq_total(q, n)

    def test_multiplicative(self):
        for q1 in range(1, 13):
            for q2 in range(1, 13):
                if math.gcd(q1, q2) != 1:
                    continue
                assert zero_freq_total(q1 * q2, 2) == zero_freq_total(q1, 2) * zero_freq_total(q2, 2)

    def test_growth_bound_surrogate(self):
        for n in (2, 3):
            for q in range(1, 25):
                assert zero_freq_total(q, n) <= q ** (3 + 2 * n) * divisor_count(q) ** (n + 1)


class TestLocalDensity:
    def test_leading_term_only(self):
        # the t = 0 term contributes exactly 1
        res = local_density(7, 2, 1)
        assert res.sigma_p >= 1.0

    def test_exact_value_p2_n2(self):
        res = local_density(2, 2, 1)
        assert res.sigma_p == 1.421875
        assert res.sigma_p_prime == (1 - 0.25) ** 3 * 1.421875

    def test_terms_match_exact_rational_route(self):
        # closed-form float terms vs zero_freq_total(p^t) / p^((3n+3)t)
        for p in (2, 3, 5):
            for n in (1, 2, 3):
                got = local_density(p, n, 4).sigma_p
                exact = Fraction(1)
                for t in range(1, 5):
                    exact += Fraction(zero_freq_total(p**t, n), p ** ((3 * n + 3) * t))
                assert abs(got - float(exact)) < 1e-12

    def test_stability_under_longer_truncation(self):
        for p in (2, 3, 47):
            lo = local_density(p, 2, 40).sigma_p
            hi = local_density(p, 2, 50).sigma_p
            assert hi >= lo
            assert hi - lo < 1e-12

    def test_tail_bound_brackets_truth(self):
        for p in (2, 3, 5, 11):
            for t_max in (1, 3, 8):
                res = local_density(p, 2, t_max)
                further = local_density(p, 2, t_max + 10)
                assert further.sigma_p <= res.sigma_p + res.tail_bound

    def test_early_exit_sum_is_the_all_t_sum_bit_for_bit(self):
        primes = prime_table()[:1229]  # every prime < 10^4
        for n in (1, 2, 3, 5):
            for t_max in (1, 2, 5, 40):
                s, s_prime, tail = _densities(np.array(primes, float), n, t_max)
                for p, got, got_prime, got_tail in zip(primes, s.tolist(), s_prime.tolist(), tail.tolist()):
                    full = 1.0
                    for t in range(1, t_max + 1):
                        full += oracle_term(p, n, t)
                    expected = (full, (1.0 - p ** (-n)) ** 3 * full)
                    assert oracle_sigma(p, n, t_max) == (got, got_prime) == expected
                    assert got_tail == oracle_tail(p, n, t_max)

    def test_array_helper_is_the_scalar_oracle_on_the_whole_table(self):
        primes = prime_table()
        s, s_prime, tail = _densities(np.array(primes, float), 2, 40)
        got = list(zip(s.tolist(), s_prime.tolist(), tail.tolist()))
        assert got == [(*oracle_sigma(p, 2, 40), oracle_tail(p, 2, 40)) for p in primes]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            local_density(6, 2, 5)


class TestEulerProduct:
    def test_single_factor(self):
        ep = euler_product(2, 2, 30)
        assert ep.value == local_density(2, 2, 30).sigma_p_prime

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smallest_cutoff_tail_covers_the_rest(self, n):
        # the prime-tail majorant holds from p = 3 on, so p_max = 2 needs no
        # prime summed beyond it: its tail still bounds every later factor
        lo, hi = euler_product(n, 2, 40), euler_product(n, 10**6, 40)
        assert abs(hi.value - lo.value) <= lo.tail

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t_max", [1, 40])
    def test_value_is_the_product_of_local_densities(self, n, t_max):
        value = 1.0
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            value *= local_density(p, n, t_max).sigma_p_prime
        assert euler_product(n, 20, t_max).value == value

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("index", [4095, 4096, 8191])
    def test_chunk_edges_fold_in_prime_order(self, n, index):
        p_max = prime_table()[index]
        ep = euler_product(n, p_max, 40)
        assert (ep.value, ep.tail) == oracle_euler_product(n, p_max, 40)

    def test_full_table_adds_little_to_peak_memory(self):
        # the factors are formed a chunk of primes at a time, not for the
        # whole table at once
        code = ("import json, resource\n"
                "from triprox.arith import prime_table\n"
                "from triprox.local_densities import euler_product\n"
                "prime_table()\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "euler_product(2, 10**6, 40)\n"
                "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(json.dumps((after - before) / 1024))")
        assert run_fresh(code) < 2.0

    def test_positive_and_finite(self):
        ep = euler_product(2, 200, 30)
        assert 0 < ep.value < math.inf
        assert ep.tail > 0

    def test_doubling_pmax_within_tail(self):
        lo = euler_product(2, 100, 40)
        hi = euler_product(2, 200, 40)
        assert abs(hi.value - lo.value) < lo.tail

    def test_n1_tail_infinite(self):
        assert math.isinf(euler_product(1, 50, 20).tail)

    def test_p_max_beyond_prime_table_refused(self):
        # the table ends at 10^6: a larger p_max would drop factors silently
        # while shrinking the reported prime tail
        with pytest.raises(ValueError):
            euler_product(2, 10**6 + 1, 40)
        with pytest.raises(ValueError):
            euler_product(2, 2 * 10**6, 40)

    def test_t_max_below_one_refused(self):
        for t_max in (0, -2, -3):
            with pytest.raises(ValueError):
                euler_product(2, 100, t_max)

    def test_p_max_at_prime_table_limit_unchanged(self):
        ep = euler_product(2, 10**6, 40)
        assert ep.value == 1.046388128921806
        assert ep.tail == pytest.approx(2.302079206406394e-05, rel=1e-12)

    def test_p_max_at_prime_table_limit_tail_exact(self):
        assert euler_product(2, 10**6, 40).tail == 2.302079206406394e-05

    @pytest.mark.parametrize("n, t_max, value, tail", [
        (3, 1, 1.0147799256318653, 4.544088687631159),
        (3, 5, 1.1821633541358156, 0.009268254683347143),
        (3, 40, 1.1826469334791727, 2.2470291736317747e-11),
        (4, 1, 1.1175430927106842, 2.1648683255117023),
        (4, 5, 1.1948540035784776, 0.0010379948726257039),
        (4, 40, 1.1948852592462031, 2.788065604907808e-17),
    ])
    def test_p_max_at_prime_table_limit_exact_n3_n4(self, n, t_max, value, tail):
        ep = euler_product(n, 10**6, t_max)
        assert (ep.value, ep.tail) == (value, tail)
