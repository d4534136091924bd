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
    count_points,
    count_points_oracle,
    mobius_count,
    oracle_sweep,
)
from triprox.arith import mobius, mobius_sieve
from triprox.counting import (
    _check_z_grid,
    _count_pair_block,
    _exact_max_vectors,
    _first_max_positive,
    _in_domain,
    _kernel_rows,
    _orbits,
    _primitive_mask,
    _RowTable,
    _z_cap,
    count_at_bounds,
)

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
    docstring, and ``_z_cap`` against the predicate."""

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
        for domain in Domain:
            for a in range(1, B + 1):
                for b in range(1, B // a + 1):
                    expected = max(
                        (c for c in range(1, B // (a * b) + 1) if _in_domain(B, a, b, c, domain)),
                        default=0,
                    )
                    assert _z_cap(B, a, b, domain) == expected

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


def _gcd_one(V):
    return V[np.gcd.reduce(V, axis=1) == 1]


class TestOrbitReduction:
    @staticmethod
    def literal_block(n, a, b, Z, primitive):
        """The block over the full P x Q rows, with a literal Mobius step."""
        P, Q = _exact_max_vectors(n, a), _exact_max_vectors(n, b)
        if primitive:
            P, Q = _gcd_one(P), _gcd_one(Q)
        C = (P[:, None, :] * Q[None, :, :]).reshape(-1, n + 1)
        hist = _kernel_rows(C, Z).sum(axis=0).tolist()
        if not primitive:
            return hist
        return [0] + [
            sum(mobius(d) * hist[h // d] for d in range(1, h + 1) if h % d == 0)
            for h in range(1, Z + 1)
        ]

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize(
        "n, a, b, Z",
        [(1, 4, 6, 5), (1, 6, 4, 5), (1, 6, 6, 3),
         (2, 2, 5, 4), (2, 5, 2, 4), (2, 4, 4, 3), (2, 1, 6, 2),
         (3, 2, 4, 2), (3, 4, 2, 2), (3, 3, 3, 2)],
    )
    def test_block_equals_full_row_sum(self, n, a, b, Z, primitive):
        Q = _exact_max_vectors(n, min(a, b))
        if primitive:
            Q = _gcd_one(Q)
        mu = mobius_sieve(Z) if primitive else None
        block = _count_pair_block(_orbits(n, max(a, b), primitive), Q, Z, mu, _RowTable(n, a * b + 1))
        assert block.tolist() == self.literal_block(n, a, b, Z, primitive)
        assert block.sum() > 0

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n, blocks", [(1, [(5, 5), (6, 4), (4, 3), (6, 2)]),
                                           (2, [(3, 2), (4, 2), (2, 2), (6, 1)]),
                                           (3, [(2, 2), (4, 2), (3, 1)])])
    def test_blocks_read_rows_that_earlier_blocks_scanned(self, n, blocks, primitive):
        # one table across blocks taken by decreasing cap, as a worker does:
        # a later block reads shared rows as prefixes of longer histograms
        table = _RowTable(n, max(m * k for m, k in blocks) + 1)
        mu = mobius_sieve(8) if primitive else None
        for Z, (m, k) in zip(range(8, 0, -2), blocks):
            Q = _exact_max_vectors(n, k)
            if primitive:
                Q = _gcd_one(Q)
            block = _count_pair_block(_orbits(n, m, primitive), Q, Z, mu, table)
            assert block.tolist() == self.literal_block(n, m, k, Z, primitive)
        assert len(table.keys) > 1

    @pytest.mark.parametrize("primitive", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_are_orbit_sizes(self, n, primitive):
        for m in range(1, 8):
            V = _exact_max_vectors(n, m)
            if primitive:
                V = _gcd_one(V)
            orbits = Counter(tuple(sorted(v)) for v in V.tolist())
            R, sizes = _orbits(n, m, primitive)
            reps = dict(zip(map(tuple, R.tolist()), sizes.tolist()))
            assert reps == orbits
            assert sum(reps.values()) == len(V)


class TestCountPoints:
    def test_parity_example(self):
        assert count_points(2, 1, ALL).count == 0

    def test_n3_unit_box(self):
        assert count_points(3, 1, ALL).count == 1536

    def test_n3_unit_box_sign_fixed(self):
        assert count_points(3, 1, NAMED_CONVENTIONS["N"]).count == 384

    def test_oracle_golden_n1(self):
        assert count_points_oracle(1, 2, ALL).count == 128
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

    @pytest.mark.parametrize("name", ["all", "primitive-signfixed", "E", "E2"])
    def test_one_stream_gives_every_smaller_bound(self, name):
        # the blocks and z-caps of B=12 serve every smaller bound
        conv = NAMED_CONVENTIONS[name]
        counts = count_at_bounds(2, [12, *range(1, 12)], conv, threads=1)
        assert counts == [count_points(2, B, conv).count for B in (12, *range(1, 12))]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_nonpositive_threads_run_single_worker(self, threads):
        conv = NAMED_CONVENTIONS["primitive"]
        single = count_points(2, 12, conv, threads=1).count
        assert count_points(2, 12, conv, threads=threads).count == single

    @pytest.mark.parametrize("name", ["E3", "primitive"])
    def test_one_pair_block_per_unordered_magnitude_pair(self, name, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _count_pair_block(*args)

        monkeypatch.setattr("triprox.counting._count_pair_block", counted)
        count_points(2, 240, NAMED_CONVENTIONS[name], threads=1)

        def in_dxy(a, b):
            return a * b <= 240 and a**3 <= 240 and (a * b) ** 3 <= 240**2

        blocks = [(m, k) for m in range(1, 241) for k in range(1, m + 1) if in_dxy(m, k) or in_dxy(k, m)]
        assert len(calls) == len(blocks) > 0

    def test_thread_count_invariance(self):
        conv = NAMED_CONVENTIONS["primitive"]
        single = count_points(2, 12, conv, threads=1).count
        multi = count_points(2, 12, conv, threads=2).count
        assert single == multi

    @pytest.mark.parametrize("name", ["primitive", "all", "E1", "E3"])
    @pytest.mark.parametrize("n, B", [(2, 120), (3, 30)])
    def test_thread_count_invariance_where_row_tables_differ(self, n, B, name):
        # each worker scans the canonical rows of its own share, so its table
        # depends on the thread count; the counts must not
        bounds = [B, B // 2, B // 3]
        counts = [count_at_bounds(n, bounds, NAMED_CONVENTIONS[name], threads=t) for t in (1, 2, 3)]
        assert counts[0] == counts[1] == counts[2]
        assert min(counts[0]) > 0

    def test_each_canonical_row_is_scanned_once(self, monkeypatch):
        # n=2, B=120, primitive, one worker: the rows handed to the kernel are
        # the distinct canonical forms (sorted, divided by the gcd) of every
        # coefficient row x_i*y_i of the stream's pair blocks
        scanned = []

        def counted(C, Z):
            scanned.append(len(C))
            return _kernel_rows(C, Z)

        monkeypatch.setattr("triprox.counting._kernel_rows", counted)
        assert count_points(2, 120, NAMED_CONVENTIONS["primitive"], threads=1).count == 104027904

        def in_dxy(a, b):
            return a * b <= 120 and a**3 <= 120 and (a * b) ** 3 <= 120**2

        def shell(a):
            return [v for v in itertools.product(range(1, a + 1), repeat=3) if max(v) == a and math.gcd(*v) == 1]

        canonical = set()
        for m in range(1, 121):
            for k in range(1, m + 1):
                if in_dxy(m, k) or in_dxy(k, m):
                    for p in shell(m):
                        for q in shell(k):
                            row = sorted(u * v for u, v in zip(p, q))
                            g = math.gcd(*row)
                            canonical.add(tuple(v // g for v in row))
        assert sum(scanned) == len(canonical) > 0


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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mobius_n3(self, threads):
        # the benchmark's mobius-n3 answer, which equals count_points(3, 30, primitive)
        assert mobius_count(3, 30, threads=threads) == 950859264


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
        for threads in (1, 2):
            assert [count_points(n, B, c, threads=threads).count for c in convs] == slow

    @pytest.mark.parametrize("n, B", [(1, 12), (2, 9), (3, 5)])
    def test_every_convention(self, n, B):
        slow = [e.count for e in oracle_sweep(n, B, EVERY_CONVENTION)]
        for threads in (1, 2):
            assert [count_points(n, B, c, threads=threads).count for c in EVERY_CONVENTION] == slow

    def test_oracle_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_points_oracle(3, 12, ALL)

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

    def test_thread_count_invariance(self):
        assert mobius_count(3, 8, threads=1) == mobius_count(3, 8, threads=2)

    def test_unit_bound_trivial(self):
        assert mobius_count(3, 1, frozenset()) == count_points(3, 1, NAMED_CONVENTIONS["primitive"]).count
