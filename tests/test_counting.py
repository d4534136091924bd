import functools
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

import triprox.counting as counting
from triprox import (
    BudgetExceededError,
    CountingConvention,
    Domain,
    NAMED_CONVENTIONS,
    OverflowGuardError,
    count_points,
    mobius_count,
    oracle_sweep,
)
from triprox.arith import mobius, mobius_sieve
from triprox.counting import (
    _canonical_rows,
    _check_z_grid,
    _exact_max_vectors,
    _histograms,
    _icbrt,
    _in_domain,
    _kernel_rows,
    _mobius_inverse,
    _orbits,
    _pair_blocks,
    _prefix_reads,
    _primitive_mask,
    _z_caps,
    count_at_bounds,
)
from triprox.oracle import _first_max_positive

ALL = NAMED_CONVENTIONS["all"]

# Every convention: 8 sign-fix sets x 4 domains x primitive on/off.
EVERY_CONVENTION = [
    CountingConvention(primitive, frozenset(sf), domain)
    for primitive in (False, True)
    for r in range(4)
    for sf in itertools.combinations("xyz", r)
    for domain in Domain
]


def rows(*vectors):
    return np.array(vectors, dtype=np.int64)


def stream(blocks):
    """The (m, k, Z) of each pair block of a ``_pair_blocks`` stream, as ints."""
    return list(zip(*(v.tolist() for v in blocks)))


class TestCountZ:
    """Total z-solution counts of one coefficient row: twice the kernel's half."""

    def test_parity_kills_units(self):
        assert 2 * _kernel_rows(rows((1, 1, 1)), 1).sum() == 0

    def test_small_example(self):
        # z = (1, 1, -1) and its negative
        assert 2 * _kernel_rows(rows((1, 1, 2)), 1).sum() == 2

    def test_z_grid_budget(self):
        with pytest.raises(BudgetExceededError):
            _check_z_grid(3, 300)

    @pytest.mark.parametrize("n, Z", [(24, 1), (13, 2), (10, 3)])
    def test_z_table_budget(self, n, Z):
        # within the cell budget, but (2Z)^(n-1) > 2^22 points of z_2..z_n,
        # while one dimension less is admitted
        _check_z_grid(n - 1, Z)
        with pytest.raises(BudgetExceededError, match="z-table"):
            _check_z_grid(n, Z)


class TestPredicates:
    """The sign-fix and primitivity predicates shared by the engine and the oracle."""

    def test_primitive(self):
        assert _primitive_mask(rows((2, 4, 6), (1, 7, -9), (6, 10, 15))).tolist() == [False, True, True]

    def test_sign_fix(self):
        assert _first_max_positive(rows((3, -3, 1), (-3, 3, 1), (1, 1, 1))).tolist() == [True, False, True]

    def test_negation_involution(self):
        rng = np.random.default_rng(7)
        V = rng.integers(1, 6, size=(500, 4)) * rng.choice([-1, 1], size=(500, 4))
        V = np.concatenate([rows((3, -3, 1, 2), (-2, 5, 5, 1), (1, 1, -1, 1), (-7, 2, 7, 7)), V])
        assert np.all(_first_max_positive(V) != _first_max_positive(-V))

    def test_primitive_matches_gcd_fold(self):
        rng = np.random.default_rng(11)
        for k in (2, 3, 4):
            V = rng.integers(1, 13, size=(400, k)) * rng.choice([-1, 1], size=(400, k))
            expected = [math.gcd(*map(int, v)) == 1 for v in V]
            assert _primitive_mask(V).tolist() == expected


class TestDomainPredicate:
    """``_in_domain`` against the real-number definition in the ``Domain``
    docstring, and the closed-form ``_z_caps`` against the predicate."""

    BOUNDS = (1, 7, 8, 27, 64, 125, 1000)

    @staticmethod
    def points(B):
        for a in range(1, B + 1):
            for b in range(1, B // a + 1):
                for c in range(1, B // (a * b) + 1):
                    yield a, b, c

    @staticmethod
    def pair(domain, a, b, c):
        return {Domain.DXY: (a, b), Domain.DYZ: (b, c), Domain.DZX: (c, a)}[domain]

    @pytest.mark.parametrize("B", BOUNDS)
    def test_z_cap_is_last_admitted_c(self, B):
        # (Z1, Z12, Z123) is the largest c the predicate admits under DXY,
        # under DXY and DYZ, and under all three, or 0 when it admits none
        pairs = [(a, b) for a in range(1, B + 1) for b in range(1, B // a + 1)]
        a, b = (np.array(v) for v in zip(*pairs))
        domains = (Domain.DXY, Domain.DYZ, Domain.DZX)
        expected = [
            [max((c for c in range(1, B // (x * y) + 1)
                  if all(_in_domain(B, x, y, c, d) for d in domains[:j])), default=0)
             for x, y in pairs]
            for j in (1, 2, 3)
        ]
        # over one bound, and over a column of bounds
        assert [z.tolist() for z in _z_caps(B, a, b)] == expected
        assert [z.tolist() for z in _z_caps(np.array([[B], [B]]), a, b)] == [[e, e] for e in expected]

    @pytest.mark.parametrize("t", [1, 2, 1023, 1024, 2**20 - 1, 2**20, 2**60])
    def test_integer_cube_root(self, t):
        # up to 2^60, the square of the largest bound, neither truncating
        # nor rounding the float cube root is right every time; at 2^180,
        # far past it, the float guess falls thousands below t
        assert [_icbrt(t**3 - 1), _icbrt(t**3), _icbrt(t**3 + 1)] == [t - 1, t, t]

    @pytest.mark.parametrize("B", BOUNDS)
    def test_matches_real_definition_off_the_boundary(self, B):
        r1, r2 = B ** (1 / 3), B ** (2 / 3)
        for a, b, c in self.points(B):
            assert _in_domain(B, a, b, c, Domain.FULL)
            for domain in (Domain.DXY, Domain.DYZ, Domain.DZX):
                u, v = self.pair(domain, a, b, c)
                if min(abs(u * v - r2), abs(u - r1)) > 1e-9:
                    assert _in_domain(B, a, b, c, domain) == (u * v <= r2 and u <= r1)

    @pytest.mark.parametrize("B", [1, 8, 27, 64, 125, 1000])
    def test_exact_boundary_points_admitted(self, B):
        # Only exact points lie within 1e-9 of a cube-root boundary; the
        # real-number definition admits them when the other bound holds.
        r1, r2 = B ** (1 / 3), B ** (2 / 3)
        admitted = 0
        for a, b, c in self.points(B):
            for domain in (Domain.DXY, Domain.DYZ, Domain.DZX):
                u, v = self.pair(domain, a, b, c)
                if min(abs(u * v - r2), abs(u - r1)) <= 1e-9:
                    assert u**3 == B or (u * v) ** 3 == B * B
                    real = u * v <= r2 + 1e-9 and u <= r1 + 1e-9
                    assert _in_domain(B, a, b, c, domain) == real
                    admitted += real
        assert admitted > 0


class TestKernelHistogram:
    @staticmethod
    def naive_hist(C, Z):
        hist = [0] * (Z + 1)
        rng = [v for v in range(-Z, Z + 1) if v != 0]
        for c in C:
            for z in itertools.product(rng, repeat=len(c)):
                if sum(a * b for a, b in zip(c, z)) == 0:
                    hist[max(map(abs, z))] += 1
        return hist

    @pytest.mark.parametrize("n, Z", [(1, 6), (2, 4), (3, 3)])
    def test_matches_literal_scan_by_max_z(self, n, Z):
        rng = np.random.default_rng(n)
        C = rng.integers(1, 9, size=(12, n + 1))
        # rows whose largest coefficient is not in the solved column 0
        C[:4, 0] = 1
        C[:4, 1] = 8
        hist = 2 * _kernel_rows(C, Z).sum(axis=0)
        assert hist.tolist() == self.naive_hist(C.tolist(), Z)
        assert hist.sum() > 0

    @pytest.mark.parametrize("n, Z", [(1, 6), (2, 4), (3, 3)])
    def test_each_row_is_its_literal_scan(self, n, Z):
        rng = np.random.default_rng(20 + n)
        C = rng.integers(1, 9, size=(6, n + 1))
        hist = 2 * _kernel_rows(C, Z)
        assert hist.shape == (len(C), Z + 1)
        for row, c in zip(hist.tolist(), C.tolist()):
            assert row == self.naive_hist([c], Z)

    @pytest.mark.parametrize("n, Z", [(1, 8), (2, 5), (3, 3)])
    def test_permutations_and_multiples_keep_the_histogram(self, n, Z):
        # the canonical row (sorted, divided by its gcd) stands for all of them
        rng = np.random.default_rng(30 + n)
        for c in rng.integers(1, 7, size=(3, n + 1)).tolist():
            variants = [[k * v for v in p] for p in itertools.permutations(c) for k in (1, 2, 3)]
            hist = _kernel_rows(np.array(variants, dtype=np.int64), Z)
            assert (hist == hist[0]).all()
            assert (2 * hist[0]).tolist() == self.naive_hist([c], Z)

    @pytest.mark.parametrize("chunk", [1, 7, 40])
    @pytest.mark.parametrize("n, Z", [(1, 6), (2, 4), (3, 3)])
    def test_grid_pieces_match_literal_scan(self, monkeypatch, n, Z, chunk):
        # a small cell budget splits the z_1 range into several grid pieces
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        rng = np.random.default_rng(10 + n)
        C = rng.integers(1, 9, size=(5, n + 1))
        assert (2 * _kernel_rows(C, Z).sum(axis=0)).tolist() == self.naive_hist(C.tolist(), Z)

    @pytest.mark.parametrize("n, Z, chunk", [(3, 4, 150), (3, 5, 250), (3, 4, 600), (4, 3, 100)])
    def test_chunk_splits_match_literal_scan(self, monkeypatch, n, Z, chunk):
        # n=3: z_1 pieces of 2 values, the last one short, and row chunks of
        # 2 rows; n=4: one z_1 value, (2Z)^3 = 216 cells, exceeds the chunk
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        rng = np.random.default_rng(40 + n)
        C = rng.integers(1, 9, size=(5, n + 1))
        C[0] = 1  # column 0 divides every sum: the clip alone bounds the quotient
        hist = 2 * _kernel_rows(C, Z)
        for row, c in zip(hist.tolist(), C.tolist()):
            assert row == self.naive_hist([c], Z)
        assert hist.sum() > 0

    def test_working_set_is_a_few_chunks(self):
        # n=3, Z=24: 14 z_1 values of (2Z)^2 cells per piece, so both the z_1
        # range and the rows are split; rows with small entries in column 0
        # make the accepted cells dense
        import tracemalloc

        Z = 24
        assert 1 < counting._CELL_CHUNK // (2 * Z) ** 2 < Z
        C = np.random.default_rng(7).integers(1, 9, size=(20, 4))
        C[:5, 0] = 1
        tracemalloc.start()
        try:
            hist = _kernel_rows(C, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 9 bytes per cell of buffers (two float32, one bool) and about 12 per
        # accepted cell: about 1.5 chunks of 8 bytes here
        assert hist.sum() > 0
        assert peak < 3 * counting._CELL_CHUNK * 8

    def test_refuses_sums_beyond_exact_float(self):
        # |s| <= n*max(C)*Z must stay below 2^24, where float32 is exact
        with pytest.raises(OverflowGuardError):
            _kernel_rows(rows((1, 2**21, 1)), 4)
        assert (2 * _kernel_rows(rows((1, 2**21 - 1, 1)), 4)).tolist() == [[0] * 5]
        # solved for 2^20 with partial sums up to 12*2^20: z = k*(1, 1, -1)
        c = [2**20, 2**20 - 1, 2**21 - 1]
        assert (2 * _kernel_rows(rows(c), 4)).tolist() == [self.naive_hist([c], 4)] == [[0, 2, 2, 2, 2]]


class TestMobiusInverse:
    @pytest.mark.parametrize("Z", range(1, 61))
    def test_matches_literal_loop(self, Z):
        # rows padded to one width past their own caps: each row's prefix up
        # to its cap is the literal inversion of that prefix alone
        rng = np.random.default_rng(Z)
        caps = [Z, *rng.integers(0, Z + 1, size=4)]
        H = rng.integers(-(10**12), 10**12, size=(len(caps), Z + 1))
        H[:, 0] = 0
        mu = mobius_sieve(Z + 7)
        prim = _mobius_inverse(H.T, mu).T  # heights first: one column per row of H
        assert prim.shape == H.shape
        for row, hist, cap in zip(prim.tolist(), H, caps):
            literal = np.zeros(cap + 1, dtype=np.int64)
            for d in range(1, cap + 1):
                if mu[d]:
                    literal[d::d] += int(mu[d]) * hist[1 : cap // d + 1]
            assert row[: cap + 1] == literal.tolist()


def _gcd_one(V):
    return V[np.gcd.reduce(V, axis=1) == 1]


class TestOrbitReduction:
    @staticmethod
    def literal_rows(n, a, b, Z, primitive):
        """The block's histogram over the full P x Q rows, every z (P and Q
        primitive with ``primitive``)."""
        P, Q = _exact_max_vectors(n, a), _exact_max_vectors(n, b)
        if primitive:
            P, Q = _gcd_one(P), _gcd_one(Q)
        C = (P[:, None, :] * Q[None, :, :]).reshape(-1, n + 1)
        return _kernel_rows(C, Z).sum(axis=0).tolist()

    @classmethod
    def literal_block(cls, n, a, b, Z, primitive):
        """The block over the full P x Q rows, with a literal Mobius step
        for primitive z."""
        hist = cls.literal_rows(n, a, b, Z, primitive)
        if not primitive:
            return hist
        return [0] + [
            sum(mobius(d) * hist[h // d] for d in range(1, h + 1) if h % d == 0)
            for h in range(1, Z + 1)
        ]

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n, B", [(1, 40), (1, 7), (1, 2000), (2, 30), (2, 8), (3, 9), (3, 4)])
    @pytest.mark.parametrize("chunk", [counting._CELL_CHUNK, 40])
    def test_block_equals_full_row_sum(self, n, B, primitive, chunk, monkeypatch):
        # each block's segment of H, up to its cap, is the block's literal
        # row sum over every z, the primitive z read from it later (n=1,
        # B=2000 has 419 blocks, past 8-bit block indices), also when a
        # small _CELL_CHUNK splits every scan into many pieces
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        blocks = _pair_blocks(n, B)
        H, start = _histograms(n, blocks, primitive)
        assert len(H) == sum(Z + 1 for _, _, Z in stream(blocks))
        total = 0
        for at, (m, k, Z) in zip(start.tolist(), stream(blocks)):
            assert H[at : at + Z + 1].tolist() == self.literal_rows(n, m, k, Z, primitive)
            total += int(H[at : at + Z + 1].sum())
        assert total > 0

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n, B", [(1, 40), (1, 300), (2, 30), (3, 9)])
    @pytest.mark.parametrize("chunk", [counting._CELL_CHUNK, 40])
    def test_prefix_reads_are_the_literal_prefixes(self, n, B, primitive, chunk, monkeypatch):
        # every prefix of every block, through each max|z| up to its cap,
        # read from H as the stream reads it: primitive z through the Mobius
        # sum over the content of z, which must give the prefix of the
        # literal Mobius step; every z through one read.  A small
        # _CELL_CHUNK splits the ragged gather into many pieces, and a few
        # reads of the (1, 1) block pass it alone.
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        blocks = _pair_blocks(n, B)
        H, start = _histograms(n, blocks, primitive)
        P, at, caps, literal = [], [], [], []  # P: each segment's own prefix sums
        for first, (m, k, Z) in zip(start.tolist(), stream(blocks)):
            P += itertools.accumulate(H[first : first + Z + 1].tolist())
            at += [first] * (Z + 1)
            caps += range(Z + 1)
            literal += itertools.accumulate(self.literal_block(n, m, k, Z, primitive))
        mu = mobius_sieve(B) if primitive else np.array([0, 1])  # every z: d = 1 alone
        reads = _prefix_reads(np.array(P), np.array(at), np.array([caps]), (1,), mu)
        assert reads.tolist() == literal
        assert reads.dtype == np.int64 and max(literal) > 0

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n, B", [(1, 60), (2, 40), (3, 10)])
    def test_blocks_read_rows_that_earlier_blocks_scanned(self, n, B, primitive, monkeypatch):
        # a canonical row is scanned once, at the largest cap of its blocks,
        # and a block of a smaller cap reads the prefix of its histogram; the
        # rows are the closed form's, each at its own cap B // max
        scanned = {}

        def counted(C, Z):
            for row in map(tuple, C.tolist()):
                scanned[row] = Z
            return _kernel_rows(C, Z)

        monkeypatch.setattr(counting, "_kernel_rows", counted)
        blocks = _pair_blocks(n, B)
        H, start = _histograms(n, blocks, primitive)
        below = 0
        for at, (m, k, Z) in zip(start.tolist(), stream(blocks)):
            assert H[at : at + Z + 1].tolist() == self.literal_rows(n, m, k, Z, primitive)
            below += any(scanned[r] > Z for r in self.canonical_rows(n, m, k, primitive))
        assert below > 0
        assert scanned == closed_form_caps(n, B)

    def test_histograms_hold_each_block_to_its_own_cap(self):
        # n=1, B=4096: the (1, 1) block's cap is B, and most caps are small;
        # one width for every block would take len(blocks) x (B+1) int64
        # cells (69.7 MB traced), each block's own caps take 2.5 MB in all
        import tracemalloc

        B = 4096
        blocks = _pair_blocks(1, B)
        one_width = len(blocks[0]) * (B + 1) * 8
        tracemalloc.start()
        try:
            count = count_points(1, B, NAMED_CONVENTIONS["primitive"]).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1560992  # as mobius_count(1, 4096), a second route
        assert peak < one_width / 8

    @staticmethod
    def canonical_rows(n, m, k, primitive):
        P, Q = _exact_max_vectors(n, m), _exact_max_vectors(n, k)
        if primitive:
            P, Q = _gcd_one(P), _gcd_one(Q)
        C = np.sort((P[:, None, :] * Q[None, :, :]).reshape(-1, n + 1), axis=1)
        return set(map(tuple, (C // np.gcd.reduce(C, axis=1, keepdims=True)).tolist()))

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_are_orbit_sizes(self, n, primitive):
        # one build for every max up to 7, sorted by the max (the last entry)
        R, sizes = _orbits(n, 7, primitive)
        assert (np.diff(R[:, -1]) >= 0).all() and (np.diff(R, axis=1) >= 0).all()
        for m in range(1, 8):
            V = _exact_max_vectors(n, m)
            if primitive:
                V = _gcd_one(V)
            orbits = Counter(tuple(sorted(v)) for v in V.tolist())
            ends = R[:, -1] == m
            reps = dict(zip(map(tuple, R[ends].tolist()), sizes[ends].tolist()))
            assert reps == orbits
            assert sum(reps.values()) == len(V)


class TestCanonicalRows:
    @staticmethod
    def literal_rows(n, M, K, primitive):
        """Row-wise reference: every row p*q of every block, p and q of exact
        max m and k, sorted along the row and divided by its gcd, deduped
        per block with its pairs counted.  The rows are ordered by their
        reversed tuples, the incidences (row id, block, weight) by row and
        then by block."""
        found = Counter()
        for b, (m, k) in enumerate(zip(M.tolist(), K.tolist())):
            P, Q = _exact_max_vectors(n, m), _exact_max_vectors(n, k)
            if primitive:
                P, Q = _gcd_one(P), _gcd_one(Q)
            C = np.sort((P[:, None, :] * Q[None, :, :]).reshape(-1, n + 1), axis=1)
            C //= np.gcd.reduce(C, axis=1, keepdims=True)
            found.update((row, b) for row in map(tuple, C.tolist()))
        rows = sorted({row for row, _ in found}, key=lambda row: row[::-1])
        ids = {row: i for i, row in enumerate(rows)}
        return rows, sorted((ids[row], b, w) for (row, b), w in found.items())

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n, B", [(1, 300), (2, 60), (3, 14), (4, 8)])
    @pytest.mark.parametrize("chunk", [counting._CELL_CHUNK, 40])
    def test_columns_equal_the_row_wise_reference(self, n, B, primitive, chunk, monkeypatch):
        # the rows, formed as columns and sorted by a compare-exchange
        # network (n+1 rounds, 10 comparators at n=4), are the row-wise
        # reference's, as are the incidences, values and dtypes alike.  The
        # engine dedupes within a chunk of orbit representatives, so a
        # block whose representatives span chunks repeats an incidence;
        # summed, the weights are the number of pairs (p, q) of the orbits
        # that give each canonical row.
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        M, K, _ = _pair_blocks(n, B)
        rows, row, block, weight = _canonical_rows(n, M, K, primitive)
        literal_rows, incidences = self.literal_rows(n, M, K, primitive)
        assert rows.tolist() == [list(r) for r in literal_rows]
        pairs = list(zip(row.tolist(), block.tolist()))
        assert pairs == sorted(pairs)
        summed = Counter()
        for pair, w in zip(pairs, weight.tolist()):
            summed[pair] += w
        assert [(r, b, w) for (r, b), w in summed.items()] == incidences
        assert (rows.dtype, row.dtype, block.dtype, weight.dtype) == (
            np.int32, np.int32, np.min_scalar_type(len(M)), np.int32)
        assert len(incidences) > len(M)


class TestCountPoints:
    def test_parity_example(self):
        assert count_points(2, 1, ALL).count == 0

    def test_n3_unit_box(self):
        assert count_points(3, 1, ALL).count == 1536

    def test_n3_unit_box_sign_fixed(self):
        assert count_points(3, 1, NAMED_CONVENTIONS["N"]).count == 384

    def test_oracle_golden_n1(self):
        assert oracle_sweep(1, 2, [ALL])[0].count == 128
        assert count_points(1, 2, ALL).count == 128

    def test_monotone_in_bound(self):
        prev = 0
        for B in range(1, 16):
            cur = count_points(2, B, ALL).count
            assert cur >= prev
            prev = cur

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            count_points(2, 0, ALL)

    @pytest.mark.parametrize("n, expected", [(20, 0), (21, math.comb(22, 11) * 4**22),
                                             (23, math.comb(24, 12) * 4**24)])
    def test_orbit_sizes_where_the_factorial_passes_int64(self, n, expected):
        # 21! to 24! are past int64, the orbit sizes at B=1 are not: 21
        # coordinates of +-1 never sum to 0, and 22 do in C(22, 11) ways for
        # each of the 4^22 signings of x and y.  n=23 has the largest z-table
        # admitted, 2^22 points.
        assert count_points(n, 1, ALL).count == expected

    @pytest.mark.parametrize("name", ["all", "primitive-signfixed", "E", "E2"])
    def test_one_stream_gives_every_smaller_bound(self, name, monkeypatch):
        # the blocks and z-caps of B=12 serve every smaller bound, also when
        # a small _CELL_CHUNK reads the terms of 4 bounds at a time (10
        # block orders)
        conv = NAMED_CONVENTIONS[name]
        expected = [count_points(2, B, conv).count for B in (12, *range(1, 12))]
        assert count_at_bounds(2, [12, *range(1, 12)], conv) == expected
        monkeypatch.setattr(counting, "_CELL_CHUNK", 40)
        assert count_at_bounds(2, [12, *range(1, 12)], conv) == expected

    @pytest.mark.parametrize("n, B", [(2, 240), (3, 30), (1, 1000)])
    def test_one_pair_block_per_unordered_magnitude_pair(self, n, B):
        # the stream: every unordered pair with an order in DXY, by k and then
        # by m from k, at the cap B // (m*k), which DXY leaves whole; at the
        # cube B=1000 both cube roots, 10 and 100, are exact
        def in_dxy(a, b):
            return a * b <= B and a**3 <= B and (a * b) ** 3 <= B**2

        blocks = stream(_pair_blocks(n, B))
        literal = [(m, k, B // (m * k)) for k in range(1, B + 1) for m in range(k, B + 1)
                   if in_dxy(m, k) or in_dxy(k, m)]
        assert blocks == literal
        assert len(blocks) > 0

    @pytest.mark.parametrize("name", ["primitive", "all", "E1", "E3"])
    @pytest.mark.parametrize("n, B", [(2, 120), (3, 30)])
    def test_chunk_invariance_where_row_tables_differ(self, n, B, name, monkeypatch):
        # _CELL_CHUNK sets how the canonical rows, the kernel's cells and the
        # stream's terms are cut into pieces; the counts must not depend on it
        bounds = [B, B // 2, B // 3]
        counts = []
        for chunk in (counting._CELL_CHUNK, 1024, 40):
            monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
            counts.append(count_at_bounds(n, bounds, NAMED_CONVENTIONS[name]))
        assert counts[0] == counts[1] == counts[2]
        assert min(counts[0]) > 0

    @pytest.mark.parametrize("chunk", [counting._CELL_CHUNK, 1024, 40])
    @pytest.mark.parametrize("n, B, primitive", [(2, 120, True), (3, 30, False)])
    def test_each_canonical_row_is_scanned_once(self, n, B, primitive, chunk, monkeypatch):
        # the rows handed to the kernel are the distinct canonical forms
        # (sorted, divided by the gcd) of every coefficient row x_i*y_i of the
        # stream's pair blocks, each once, at the largest cap of its blocks,
        # however _CELL_CHUNK cuts the rows and the cells into pieces:
        # n=2 for count_points, n=3 for mobius_count.  They are the closed
        # form's: 2,106 rows in 309,392 cells, and 444 rows in 306,116.
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        scanned = []

        def counted(C, Z):
            scanned.extend((row, Z) for row in map(tuple, C.tolist()))
            return _kernel_rows(C, Z)

        monkeypatch.setattr("triprox.counting._kernel_rows", counted)
        if primitive:
            assert count_points(n, B, NAMED_CONVENTIONS["primitive"]).count == 104027904
        else:
            assert mobius_count(n, B) == 950859264
        caps, _ = literal_canonical_caps(n, B, primitive)
        assert len(scanned) == len(dict(scanned)) == len(caps) > 0
        assert dict(scanned) == caps == closed_form_caps(n, B)
        cells = sum(Z * (2 * Z) ** (n - 1) for _, Z in scanned)
        assert (len(scanned), cells) == ((2106, 309392) if primitive else (444, 306116))

    def test_one_kernel_call_per_cap_group(self, monkeypatch):
        # n=2, B=120: one kernel call per distinct cap of the canonical rows
        # (16), not one per pair block (44)
        calls = []

        def counted(C, Z):
            calls.append(Z)
            return _kernel_rows(C, Z)

        monkeypatch.setattr("triprox.counting._kernel_rows", counted)
        assert count_points(2, 120, NAMED_CONVENTIONS["primitive"]).count == 104027904
        caps, blocks = literal_canonical_caps(2, 120, True)
        assert sorted(calls) == sorted(set(caps.values()))
        assert len(calls) < blocks

    def test_int64_sums_stay_exact(self):
        # A block's rows number at most (n+1)! per orbit representative, so
        # every sum of a count is at most 14*(n+1)! times the stream's cells
        # (2 orders x |3| + |-3| + |1|).  For n <= 10 the cell budget keeps
        # that below 2^63; for n >= 11 the z-grid budget admits only B <= 2.
        assert 14 * math.factorial(11) * counting._CELL_BUDGET < 2**63
        # A primitive count reads sum_d mu(d) * P(Z // d) for squarefree
        # d <= Z, and the cells of cap Z // d are at most cells(Z) / d^n,
        # so the d-sum grows the bound by zeta(2) at n >= 2 and by 1 + ln B
        # at n = 1, where (n+1)! = 2.
        zeta2 = math.pi**2 / 6
        assert 14 * math.factorial(11) * zeta2 * counting._CELL_BUDGET < 2**63
        assert 14 * 2 * (1 + math.log(counting._MAX_BOUND)) * counting._CELL_BUDGET < 2**63
        mu = mobius_sieve(400)
        for n in range(1, 5):
            def cells(z):
                return z * (2 * z) ** (n - 1)

            for Z in range(1, 400):
                read = sum(cells(Z // d) for d in range(1, Z + 1) if mu[d])
                assert read <= (zeta2 if n >= 2 else 1 + math.log(Z)) * cells(Z)
        for n in range(11, 40):
            with pytest.raises(BudgetExceededError):
                _pair_blocks(n, 3)
            for B in (1, 2):
                try:
                    blocks = _pair_blocks(n, B)
                except BudgetExceededError:
                    continue

                def rows(a):
                    return a ** (n + 1) - (a - 1) ** (n + 1)

                assert 14 * sum(rows(m) * rows(k) * Z * (2 * Z) ** (n - 1) for m, k, Z in stream(blocks)) < 2**63
                assert 14 * zeta2 * sum(rows(m) * rows(k) * Z * (2 * Z) ** (n - 1)
                                        for m, k, Z in stream(blocks)) < 2**63


@functools.cache
def literal_canonical_caps(n, B, primitive):
    """Every canonical row of the pair blocks at (n, B), enumerated
    literally, with the largest z-cap of the blocks that hold it; and the
    number of blocks."""
    def in_dxy(a, b):
        return a * b <= B and a**3 <= B and (a * b) ** 3 <= B**2

    @functools.cache
    def shell(a):
        return [v for v in itertools.product(range(1, a + 1), repeat=n + 1)
                if max(v) == a and (not primitive or math.gcd(*v) == 1)]

    caps, blocks = {}, 0
    for m in range(1, B + 1):
        for k in range(1, m + 1):
            if in_dxy(m, k) or in_dxy(k, m):
                blocks += 1
                for p in shell(m):
                    for q in shell(k):
                        row = sorted(u * v for u, v in zip(p, q))
                        g = math.gcd(*row)
                        row = tuple(v // g for v in row)
                        caps[row] = max(caps.get(row, 0), B // (m * k))
    return caps, blocks


def closed_form_caps(n, B):
    """The primitive nondecreasing vectors of max at most floor(B^(2/3)),
    each with the cap B // max."""
    r2 = max(r for r in range(B + 1) if r**3 <= B * B)
    return {v: B // v[-1] for v in itertools.combinations_with_replacement(range(1, r2 + 1), n + 1)
            if math.gcd(*v) == 1}


class TestGoldenCounts:
    """The primitive counts N(B) of the north-star table in ROADMAP.md, which
    the former FULL pass over every pair with ab <= B also gave."""

    GOLDEN = {
        (2, 60): 17152128,
        (2, 120): 104027904,
        (2, 240): 602319744,
        (2, 480): 3373746048,
        (3, 24): 435242496,
        (3, 48): 5833489920,
    }

    @pytest.mark.parametrize("n, B", list(GOLDEN))
    def test_primitive_count(self, n, B):
        assert count_points(n, B, NAMED_CONVENTIONS["primitive"]).count == self.GOLDEN[n, B]

    @pytest.mark.parametrize("chunk", [counting._CELL_CHUNK, 1024, 40])
    def test_mobius_n3(self, chunk, monkeypatch):
        # the benchmark's mobius-n3 answer, which equals count_points(3, 30,
        # primitive), at the default _CELL_CHUNK and at two smaller ones
        monkeypatch.setattr(counting, "_CELL_CHUNK", chunk)
        assert mobius_count(3, 30) == 950859264


class TestOracleEquivalence:
    def test_mini_grid_all_conventions(self):
        convs = list(NAMED_CONVENTIONS.values())
        for n, Bmax in ((1, 5), (2, 4)):
            for B in range(1, Bmax + 1):
                fast = [count_points(n, B, c).count for c in convs]
                slow = [e.count for e in oracle_sweep(n, B, convs)]
                assert fast == slow

    @pytest.mark.parametrize("n, B", [(3, 4), (3, 5), (3, 6), (2, 9), (2, 10)])
    def test_repeated_coordinates_all_conventions(self, n, B):
        # beyond criterion 1's grid, where more vectors repeat a coordinate
        convs = list(NAMED_CONVENTIONS.values())
        slow = [e.count for e in oracle_sweep(n, B, convs)]
        assert [count_points(n, B, c).count for c in convs] == slow

    @pytest.mark.parametrize("n, B", [(1, 12), (2, 9), (3, 5)])
    def test_every_convention(self, n, B):
        slow = [e.count for e in oracle_sweep(n, B, EVERY_CONVENTION)]
        assert [count_points(n, B, c).count for c in EVERY_CONVENTION] == slow

    def test_oracle_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            oracle_sweep(3, 12, [ALL])

    def test_oracle_budget_guard_refuses_at_once(self):
        # the guard stops summing at the first partial sum over the budget
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            oracle_sweep(2, 2**20, [ALL])
        assert time.perf_counter() - start < 1.0


class TestSignBijections:
    @pytest.mark.parametrize("B", [10, 25])
    @pytest.mark.parametrize("domain", [Domain.FULL, Domain.DXY])
    def test_quarter_and_eighth(self, B, domain):
        free = count_points(2, B, CountingConvention(False, frozenset(), domain)).count
        xy = count_points(2, B, CountingConvention(False, frozenset("xy"), domain)).count
        xyz = count_points(2, B, CountingConvention(False, frozenset("xyz"), domain)).count
        assert free == 4 * xy
        assert free == 8 * xyz


class TestSlotSymmetry:
    @pytest.mark.parametrize("B", [10, 25])
    def test_cyclic_domains_agree(self, B):
        counts = [
            count_points(2, B, NAMED_CONVENTIONS[name]).count for name in ("E1", "E2", "E3")
        ]
        assert counts[0] == counts[1] == counts[2]

    def test_union_bound_and_overlap_decay(self):
        def overlap_ratio(B):
            e = count_points(2, B, NAMED_CONVENTIONS["E"]).count
            parts = sum(
                count_points(2, B, NAMED_CONVENTIONS[name]).count for name in ("E1", "E2", "E3")
            )
            assert parts >= e
            return (parts - e) / e

        # the overlap is lower order than the count, but the integer cube-root
        # cutoffs make the ratio oscillate under single doublings at this
        # scale; what holds robustly is the drop from the smallest bound
        ratios = {B: overlap_ratio(B) for B in (10, 20, 40, 80)}
        assert max(ratios[40], ratios[80]) < ratios[10]
        assert all(r < 0.5 for r in ratios.values())

    def test_every_solution_lies_in_some_domain(self):
        # literal scan at B=4: the two smallest maxima always form a cyclic
        # pair within the exponent budget, so the three domains cover H <= B
        B, B2 = 4, 16
        rng = [v for v in range(-B, B + 1) if v != 0]
        vecs = [v for v in itertools.product(rng, repeat=3)]
        found = 0
        for x in vecs:
            mx = max(map(abs, x))
            for y in vecs:
                my = max(map(abs, y))
                if mx * my > B:
                    continue
                for z in vecs:
                    mz = max(map(abs, z))
                    if mx * my * mz > B:
                        continue
                    if sum(a * b * c for a, b, c in zip(x, y, z)) != 0:
                        continue
                    found += 1
                    dxy = (mx * my) ** 3 <= B2 and mx**3 <= B
                    dyz = (my * mz) ** 3 <= B2 and my**3 <= B
                    dzx = (mz * mx) ** 3 <= B2 and mz**3 <= B
                    assert dxy or dyz or dzx, (x, y, z)
        assert found > 0


class TestMobiusIdentity:
    def test_matches_direct_primitive_count(self):
        for B in (20, 35):
            direct = count_points(2, B, NAMED_CONVENTIONS["primitive"]).count
            assert mobius_count(2, B, frozenset()) == direct

    def test_sign_fixed_variant(self):
        direct = count_points(2, 25, NAMED_CONVENTIONS["primitive-signfixed"]).count
        assert mobius_count(2, 25, frozenset("xy")) == direct

    def test_n3_matches_direct_primitive_count(self):
        direct = count_points(3, 8, NAMED_CONVENTIONS["primitive"]).count
        assert mobius_count(3, 8, frozenset()) == direct

    def test_n1_matches_direct_primitive_count(self):
        direct = count_points(1, 4096, NAMED_CONVENTIONS["primitive"]).count
        assert mobius_count(1, 4096) == direct == 1560992

    def test_n1_one_incidence_per_step(self, monkeypatch):
        # every cap group above 39 adds one incidence per step of 40 cells:
        # the primitive route reads its Mobius sum over the content of z in
        # pieces of 40 pairs, the Mobius route reads every floor(B/t), and
        # both keep the count of the default chunk
        expected = count_points(1, 300, NAMED_CONVENTIONS["primitive"]).count
        monkeypatch.setattr(counting, "_CELL_CHUNK", 40)
        assert mobius_count(1, 300) == count_points(1, 300, NAMED_CONVENTIONS["primitive"]).count == expected

    def test_chunk_invariance(self, monkeypatch):
        # the Mobius sum reads the terms of every divisor bound in pieces of
        # _CELL_CHUNK; a small chunk must give the same count
        direct = count_points(3, 8, NAMED_CONVENTIONS["primitive"]).count
        monkeypatch.setattr(counting, "_CELL_CHUNK", 40)
        assert mobius_count(3, 8) == direct

    @pytest.mark.parametrize("n, bounds", [(1, [300, 257, 97, 64, 13, 2, 1]), (2, [40, 31, 17, 8, 1]),
                                           (3, [14, 11, 6, 2])])
    def test_bounds_of_one_stream_match_both_routes(self, n, bounds, monkeypatch):
        # the primitive counts of one stream, read with the Mobius sum over
        # the content of z, equal each bound's own primitive count and the
        # triple Mobius sum over non-primitive counts; with _CELL_CHUNK = 40
        # the ragged gather runs in pieces, some of a single read
        conv = NAMED_CONVENTIONS["primitive"]
        direct = [count_points(n, B, conv).count for B in bounds]
        assert direct == [mobius_count(n, B) for B in bounds]
        assert count_at_bounds(n, bounds, conv) == direct
        monkeypatch.setattr(counting, "_CELL_CHUNK", 40)
        assert count_at_bounds(n, bounds, conv) == direct
        assert direct[0] > 0

    def test_unit_bound_trivial(self):
        assert mobius_count(3, 1, frozenset()) == count_points(3, 1, NAMED_CONVENTIONS["primitive"]).count
