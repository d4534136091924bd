import math
import os
import threading

import numpy as np
import pytest

from triprox import (
    chi_diag,
    chi_offdiag,
    mc_sigma1,
    mc_sigma2,
    mc_sigma_diag,
    mc_sigma_prime,
    predicted_constant,
    sigma_infty,
    sigma_infty_components,
    sigma_infty_prime,
)
from triprox.archimedean import _BLOCK, Target, _block_rng, _diag_f, _mc_blocks, _offdiag_f, _tag


def combined(se1, se2):
    return math.hypot(se1, se2)


def literal_diag_f(n):
    """The diagonal integrand as first written: a row sum of the (s*t*u) array."""

    def f(pts):
        s, t, u = pts[:, :n], pts[:, n : 2 * n], pts[:, 2 * n :]
        return (np.abs((s * t * u).sum(axis=1)) <= 1.0).astype(float)

    return f


def literal_offdiag_f(n):
    """The off-diagonal integrand as first written: interval ends from both
    quotients, with u0 = 0 handled by an explicit branch."""

    def f(pts):
        w = pts[:, 0]
        sr = pts[:, 1:n]
        tr = pts[:, n : 2 * n - 1]
        u0 = pts[:, 2 * n - 1]
        ur = pts[:, 2 * n :]
        A = (sr * tr * ur).sum(axis=1)
        aw = np.abs(w)
        cap = np.minimum(1.0, aw)
        u_safe = np.where(u0 == 0.0, 1.0, u0)
        e1 = (-aw - A) / u_safe
        e2 = (aw - A) / u_safe
        lo = np.minimum(e1, e2)
        hi = np.maximum(e1, e2)
        free = np.abs(A) <= aw
        lo = np.where(u0 == 0.0, np.where(free, -np.inf, np.inf), lo)
        hi = np.where(u0 == 0.0, np.where(free, np.inf, -np.inf), hi)
        length = np.clip(np.minimum(hi, cap) - np.maximum(lo, -cap), 0.0, None)
        return np.where(aw > 0.0, length / np.where(aw == 0.0, 1.0, aw), 0.0)

    return f


def offdiag_edge_rows(n):
    """Rows on every special case of the off-diagonal interval: w and u0 at
    +-0 (and u0 subnormal), |A| = |w|, A = +-0 and |A| > |w|."""
    ws = [0.0, -0.0, 0.25, -0.25, 0.5, 1.0, -1.0]
    slabs = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]
    u0s = [0.0, -0.0, 5e-324, -5e-324, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0]
    rows = []
    for w in ws:
        for a in slabs:
            for u0 in u0s:
                row = np.zeros(3 * n - 1)
                row[[0, 1, n, 2 * n - 1, 2 * n]] = w, a, 1.0, u0, 1.0  # A = a*1*1
                rows.append(row)
    return np.array(rows)


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFusedIntegrands:
    """The in-place integrands equal their literal formulas bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diag_equals_literal_formula(self, n, seed):
        pts = np.random.default_rng(seed).uniform(-1, 1, (16384, 3 * n))
        assert same_bits(_diag_f(n)(pts), literal_diag_f(n)(pts))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offdiag_equals_literal_formula(self, n, seed):
        pts = np.random.default_rng(seed).uniform(-1, 1, (16384, 3 * n - 1))
        assert same_bits(_offdiag_f(n)(pts), literal_offdiag_f(n)(pts))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offdiag_equals_literal_formula_on_edge_rows(self, n):
        pts = offdiag_edge_rows(n)
        got = _offdiag_f(n)(pts)
        with np.errstate(over="ignore"):  # the literal quotients overflow at subnormal u0
            expected = literal_offdiag_f(n)(pts)
        assert same_bits(got, expected)
        assert np.isfinite(got).all() and (got >= 0.0).all()
        # u0 = +-0: the whole cap interval when |A| <= |w|, nothing otherwise
        rows = pts[(pts[:, 2 * n - 1] == 0.0) & (pts[:, 0] != 0.0)]
        aw = np.abs(rows[:, 0])
        whole = 2.0 * np.minimum(1.0, aw) / aw
        assert np.array_equal(_offdiag_f(n)(rows), np.where(np.abs(rows[:, 1]) <= aw, whole, 0.0))
        assert (got[pts[:, 0] == 0.0] == 0.0).all()


class TestIndicators:
    def test_diag_origin(self):
        assert chi_diag([0, 0], [0, 0], [0, 0]) == 1

    def test_diag_box_violation(self):
        assert chi_diag([2, 0], [0, 0], [0, 0]) == 0

    def test_diag_slab_violation(self):
        assert chi_diag([1, 1], [1, 1], [1, 1]) == 0

    def test_offdiag_basic(self):
        assert chi_offdiag(1, [1, 0], [0, 0], [0, 0]) == 1

    def test_offdiag_ordering(self):
        # |t_pivot| > |s_pivot| kills branch 1
        assert chi_offdiag(1, [0.5, 0], [0.9, 0], [0, 0]) == 0
        assert chi_offdiag(2, [0.5, 0], [0.9, 0], [0, 0]) == 1

    def test_branches_double_count_ordering_boundary(self):
        # on |t_pivot| == |s_pivot| with both slabs satisfied, both branches fire
        s, t, u = [0.5, 0.1], [0.5, 0.2], [0.3, 0.1]
        if abs(t[0] * u[0] + s[1] * t[1] * u[1]) <= abs(s[0]):
            assert chi_offdiag(1, s, t, u) + chi_offdiag(2, s, t, u) == 2


class TestDeterminism:
    def test_bit_identical_reruns(self):
        a = mc_sigma_diag(2, 0, 30000, 7)
        b = mc_sigma_diag(2, 0, 30000, 7)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        c = mc_sigma1(2, 0, 1, 30000, 7)
        d = mc_sigma1(2, 0, 1, 30000, 7)
        assert (c.mean, c.stderr) == (d.mean, d.stderr)

    def test_distinct_streams_per_target_and_index(self):
        a = mc_sigma_diag(2, 0, 30000, 7)
        b = mc_sigma_diag(2, 1, 30000, 7)
        assert a.mean != b.mean  # independent streams, same integral

    @staticmethod
    def one_uniform_per_block(samples, dims, seed, tag, f_of_block):
        """The single-threaded loop: one uniform(-1, 1) draw per whole block."""
        sums, sqsums = [], []
        for block, start in enumerate(range(0, samples, _BLOCK)):
            m = min(_BLOCK, samples - start)
            f = f_of_block(_block_rng(seed, tag, block).uniform(-1.0, 1.0, (m, dims)))
            sums.append(float(f.sum()))
            sqsums.append(float((f * f).sum()))
        mean = math.fsum(sums) / samples
        var = max(0.0, (math.fsum(sqsums) - samples * mean * mean) / (samples - 1))
        return mean, math.sqrt(var / samples)

    @staticmethod
    def integrand(dims):
        """The diagonal integrand for dims = 3n, the off-diagonal one for 3n - 1."""
        if dims % 3 == 2:
            return _offdiag_f((dims + 1) // 3)
        return _diag_f(dims // 3)

    @pytest.mark.parametrize("dims", [5, 6, 8, 9])
    @pytest.mark.parametrize("samples", [2, 5, 16385, _BLOCK + 13, 3 * _BLOCK])
    def test_sliced_blocks_equal_whole_blocks_for_any_worker_count(self, monkeypatch, samples, dims):
        f = self.integrand(dims)
        expected = self.one_uniform_per_block(samples, dims, 7, 262208, f)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert _mc_blocks(samples, dims, 7, 262208, f) == expected

    def test_no_thread_outlives_the_estimate(self):
        before = threading.active_count()
        predicted_constant(2, 50, 25, 3 * _BLOCK, 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_stream_tags_injective(self, n):
        # every (target, i0, j0, k0) with indices in [0, n] keys its own
        # stream, also after the 24-bit mask of the Philox key
        i0, j0, k0 = (a.ravel() for a in np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij"))
        tags = np.concatenate([_tag(t, i0, j0, extra=k0) for t in Target])
        assert len(np.unique(tags & 0xFFFFFF)) == len(tags) == len(Target) * (n + 1) ** 3

    def test_stream_tag_values_pinned(self):
        # fixed-seed output depends on these values
        assert _tag(Target.SIGMA_II, 0, 0) == 0
        assert _tag(Target.SIGMA1, 0, 1) == 262208
        assert _tag(Target.SIGMA2_PRIME, 2, 1, extra=3) == 1056835

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, -(2**64)])
    def test_seed_outside_the_key_word_refused(self, seed):
        # the seed is one 64-bit key word: wrapping it would share streams
        with pytest.raises(ValueError, match="seed"):
            mc_sigma_diag(2, 0, 1000, seed)
        with pytest.raises(ValueError, match="seed"):
            predicted_constant(2, 30, 15, 1000, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_both_ends_of_the_key_word_accepted(self, seed):
        assert 0.0 < mc_sigma1(2, 0, 1, 1000, seed).mean <= 2.0 * 2.0**5  # integrand <= 2

    def test_dimension_beyond_tag_range_refused(self):
        with pytest.raises(ValueError):
            mc_sigma_diag(64, 0, 1000, 0)
        with pytest.raises(ValueError):
            mc_sigma1(64, 0, 1, 1000, 0)
        with pytest.raises(ValueError):
            mc_sigma_prime(64, 0, 1, 1, 1000, 0)


class TestBasicContracts:
    def test_diag_bounded_by_box_volume(self):
        for n in (1, 2, 3):
            est = mc_sigma_diag(n, 0, 20000, 1)
            assert 0.0 <= est.mean <= 8.0**n
            if n >= 2:
                assert est.stderr > 0.0
            else:
                # n = 1: |s*t*u| <= 1 holds on the whole box, so the indicator
                # is constant and the sample variance is exactly zero
                assert est.stderr == 0.0 and est.mean == 8.0

    def test_offdiag_integrand_bounded_by_two(self):
        f = _offdiag_f(2)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (200000, 5))
        vals = f(pts)
        assert vals.min() >= 0.0
        assert vals.max() <= 2.0 + 1e-12

    def test_conditional_interval_against_numeric_integration(self):
        n = 2
        f = _offdiag_f(n)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, (200, 3 * n - 1))
        vals = f(pts)
        taus = np.linspace(-1, 1, 20001)
        for row, got in zip(pts, vals):
            w, s1, t1, u0, u1 = row
            aw = abs(w)
            cap = min(1.0, aw)
            A = s1 * t1 * u1
            ok = (np.abs(taus) <= cap) & (np.abs(A + taus * u0) <= aw)
            L = ok.mean() * 2.0
            expect = L / aw if aw > 0 else 0.0
            assert abs(got - expect) < 5e-3

    def test_stderr_scaling_with_samples(self):
        lo = mc_sigma1(2, 0, 1, 100000, 3)
        hi = mc_sigma1(2, 0, 1, 200000, 3)
        ratio = lo.stderr / hi.stderr
        assert 1.3 <= ratio <= 1.5


class TestSymmetries:
    def test_diag_index_independence(self):
        a = mc_sigma_diag(2, 0, 150000, 0)
        b = mc_sigma_diag(2, 1, 150000, 0)
        assert abs(a.mean - b.mean) <= 3 * combined(a.stderr, b.stderr)

    def test_offdiag_index_symmetry(self):
        a = mc_sigma1(2, 0, 1, 150000, 0)
        b = mc_sigma1(2, 1, 2, 150000, 0)
        assert abs(a.mean - b.mean) <= 3 * combined(a.stderr, b.stderr)

    def test_branch_swap_symmetry(self):
        a = mc_sigma1(2, 0, 1, 150000, 0)
        b = mc_sigma2(2, 0, 1, 150000, 0)
        assert abs(a.mean - b.mean) <= 3 * combined(a.stderr, b.stderr)


class TestMaxExtractedVariant:
    def test_nonnegative(self):
        est = mc_sigma_prime(2, 0, 1, 1, 50000, 2)
        assert est.mean >= 0.0

    def test_corrected_rescaling_identity(self):
        """The faithful decomposition: unprimed = (2/n) * primed + R, where R is
        the region where the reconstructed coordinate dominates all free ones.
        (The nominal (2/n) relation alone fails at small n; see the ledgered
        analysis -- R only vanishes as n grows.)"""
        n, N = 2, 400000
        full = mc_sigma1(n, 0, 1, N, 9)
        primed = mc_sigma_prime(n, 0, 1, 1, N, 9)

        # test-local MC for R, same parametrization as the plain estimator
        rng = np.random.default_rng(123)
        w = rng.uniform(-1, 1, N)
        sr = rng.uniform(-1, 1, (N, n - 1))
        ti = rng.uniform(-1, 1, N)
        tr = rng.uniform(-1, 1, (N, n - 1))
        uu = rng.uniform(-1, 1, (N, n))
        aw = np.abs(w)
        slab = ti * uu[:, 0] + (sr * tr * uu[:, 1:]).sum(axis=1)
        recon = np.abs(slab) / np.where(aw == 0, 1.0, aw)
        chi = (np.abs(slab) <= aw) & (np.abs(ti) <= aw) & (aw > 0)
        dominates = recon >= np.abs(uu).max(axis=1)
        fR = np.where(chi & dominates, 1.0 / np.where(aw == 0, 1.0, aw), 0.0)
        vol = 2.0 ** (3 * n)
        R = vol * fR.mean()
        R_se = vol * fR.std(ddof=1) / math.sqrt(N)

        lhs = full.mean
        rhs = (2.0 / n) * primed.mean + R
        tol = 4 * math.hypot(full.stderr, math.hypot((2.0 / n) * primed.stderr, R_se))
        assert abs(lhs - rhs) <= tol


class TestAssembly:
    def test_symmetry_reduction_matches_naive_double_sum(self):
        # independent estimates for every (i0, j0) pair vs the reduced assembly
        n, N, seed = 2, 120000, 21
        naive = 0.0
        var = 0.0
        for i0 in range(n + 1):
            for j0 in range(n + 1):
                if i0 == j0:
                    est = mc_sigma_diag(n, i0, N, seed)
                    naive += est.mean
                    var += est.stderr**2
                else:
                    a = mc_sigma1(n, i0, j0, N, seed)
                    b = mc_sigma2(n, i0, j0, N, seed)
                    naive += a.mean + b.mean
                    var += a.stderr**2 + b.stderr**2
        reduced = sigma_infty(n, N, seed)
        tol = 3 * math.hypot(math.sqrt(var), reduced.stderr)
        assert abs(naive - reduced.mean) <= tol

    def test_composition_consistency(self):
        n, N, seed = 2, 60000, 4
        parts = sigma_infty_components(n, N, seed)
        est = sigma_infty(n, N, seed)
        expect = parts["diagonal_total"] + parts["offdiagonal_total"]
        assert est.mean == pytest.approx(expect, rel=1e-15)
        assert est.mean > 0

    def test_prime_is_half_n_scaling(self):
        n, N, seed = 3, 40000, 4
        base = sigma_infty(n, N, seed)
        primed = sigma_infty_prime(n, N, seed)
        assert primed.mean == pytest.approx(n / 2 * base.mean, rel=1e-15)
        assert primed.stderr == pytest.approx(n / 2 * base.stderr, rel=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            mc_sigma1(2, 1, 1, 1000, 0)
        with pytest.raises(ValueError):
            mc_sigma_diag(2, 5, 1000, 0)
        with pytest.raises(ValueError):
            mc_sigma_prime(2, 0, 1, 3, 1000, 0)
