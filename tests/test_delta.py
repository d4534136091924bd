import math

import numpy as np
import pytest

from triprox import BudgetExceededError, bump, bump_integral, delta_series, kernel_h, q_range, ramanujan_sum, window

C0_GOLDEN = 0.4439938161680786  # frozen from the first converged quadrature run


def naive_h_partial_sum(x, y, terms, c0):
    """Literal partial sum of the divisor-kernel series, evaluated term by term."""
    j = np.arange(1, terms + 1, dtype=float)
    xj = x * j

    def w(z):
        inside = np.abs(4.0 * z - 3.0) < 1.0
        val = np.zeros_like(z)
        zz = np.where(inside, 4.0 * z - 3.0, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            val = np.where(inside, np.exp(-1.0 / (1.0 - zz * zz)), 0.0)
        return 4.0 / c0 * val

    return float(((w(xj) - w(abs(y) / xj)) / xj).sum())


class TestBump:
    def test_center(self):
        assert bump(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_boundary_and_outside(self):
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.0) == 0.0
        assert bump(-2.0) == 0.0


class TestBumpIntegral:
    def test_golden_value(self):
        assert bump_integral() == pytest.approx(C0_GOLDEN, abs=1e-9)

    def test_bounds(self):
        v = bump_integral()
        assert 0.0 < v < 2.0 * math.exp(-1.0)

    def test_correctly_rounded(self):
        # 0.443993816168079437823... by mpmath.quad at 40 digits, which
        # rounds to this double
        assert abs(bump_integral() - 0.44399381616807944) <= 1e-15

    @pytest.mark.parametrize("N", [1024, 2048, 4096])
    def test_more_steps_leave_the_bits_unchanged(self, N):
        # the 512-step rule has converged: finer sums at the same kind of
        # nodes give the same double
        finer = 2.0 / N * math.fsum(bump(-1.0 + 2.0 * i / N) for i in range(1, N))
        assert finer == bump_integral() == float.fromhex("0x1.c6a650a045c5cp-2")


class TestKernelH:
    def test_vanishes_beyond_support(self):
        assert kernel_h(2.0, 0.0) == 0.0

    def test_single_window_term(self):
        # only j = 1 survives: h(3/4, 0) = window(3/4)/(3/4) = (4/(0.75*c0)) e^-1
        c0 = bump_integral()
        expect = 4.0 / (0.75 * c0) * math.exp(-1.0)
        assert kernel_h(0.75, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_support_zero_region_grid(self):
        for x in np.linspace(0.05, 3.0, 40):
            for y in np.linspace(-1.0, 1.0, 21):
                if x > max(1.0, 2.0 * abs(y)):
                    assert kernel_h(float(x), float(y)) == 0.0

    def test_window_sum_matches_naive_partial_sum(self):
        c0 = bump_integral()
        for x in np.linspace(0.02, 1.5, 25):
            for y in (-0.9, -0.3, 0.0, 0.4, 1.0):
                win = kernel_h(float(x), float(y))
                naive = naive_h_partial_sum(float(x), float(y), 20000, c0)
                assert abs(win - naive) < 1e-12

    def test_bounded_by_k_over_x(self):
        # K frozen at 4.0 after a calibration sweep (observed max of x*|h| ~ 3.315)
        K = 4.0
        for x in np.linspace(0.01, 1.0, 50):
            for y in np.linspace(-1.0, 1.0, 21):
                assert abs(kernel_h(float(x), float(y))) <= K / x

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            kernel_h(0.0, 0.5)

    def test_term_budget(self):
        with pytest.raises(BudgetExceededError):
            kernel_h(1e-8, 0.0)
        with pytest.raises(BudgetExceededError):
            kernel_h(0.5, 2.5e8)
        # the widest call q_range admits: Q = 10^5, q = 1, |l| = Q^2/2
        assert math.isfinite(kernel_h(1e-5, 0.5))


class TestDeltaSeries:
    def test_zero_frequency_near_one(self):
        raw0 = delta_series(0, 32.0)
        assert abs(raw0 - 1.0) <= 1e-3  # frozen from pilot: |raw(0)-1| ~ 1.9e-4 at Q=32

    def test_nonzero_frequencies_vanish(self):
        for l in range(1, 9):
            assert abs(delta_series(l, 32.0)) <= 1e-12  # exact identity; pilot ~1e-17

    def test_even_in_l(self):
        for l in (1, 2, 5, 11):
            assert delta_series(l, 16.0) == delta_series(-l, 16.0)

    @pytest.mark.parametrize("Q, l", [(16.0, 0), (16.0, 3), (16.0, 7), (4.0, 21), (4.0, 30), (8.0, 100), (3.0, -12)])
    def test_truncation_exhaustive(self, Q, l):
        # the same sum, term by term, over twice the range: the terms past
        # q_range add nothing (the last four cases need q > ceil(2Q))
        longer = sum(ramanujan_sum(q, l) * kernel_h(q / Q, l / Q**2) for q in range(1, 2 * q_range(Q, l) + 1))
        raw = delta_series(l, Q)
        assert raw == longer / Q**2
        assert l == 0 or abs(raw) <= 1e-12

    def test_q_range_is_the_support_bound_and_grows_with_l(self):
        # the CLI checks the range once, at the largest |l|
        for Q in (2.0, 3.0, 4.0, 5.5, 8.0, 16.0, 32.0):
            ranges = [q_range(Q, l) for l in range(0, 4 * int(Q * Q))]
            assert ranges == [math.ceil(max(Q, 2 * l / Q)) for l in range(0, 4 * int(Q * Q))]
            assert ranges == sorted(ranges)
            assert all(q_range(Q, -l) == r for l, r in enumerate(ranges))

    def test_ladder_strict_decrease(self):
        errs = [abs(delta_series(0, Q) - 1.0) for Q in (4.0, 8.0, 16.0, 32.0)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            q_range(1.0, 0)
        with pytest.raises(BudgetExceededError):
            q_range(8.0, 10**9)
        with pytest.raises(BudgetExceededError):
            q_range(1e9, 0)
