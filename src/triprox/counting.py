"""Exact enumeration of solutions of x.y.z = 0 of bounded multiprojective height.

Two independent implementations share one contract:

* ``count_points`` -- the production path, by the domain split of the
  circle method (Heath-Brown; Robbiani for biprojective space).  With a, b,
  c the exact maxima of |x|, |y|, |z|, let E1, E2, E3 be the solutions of
  height abc <= B whose pair (a, b), (b, c) or (c, a) lies in DXY, DYZ or
  DZX: u^3 <= B and (uv)^3 <= B^2 for the pair (u, v).  The two smallest
  maxima always form such a pair, so the sets cover every solution.  The
  cyclic shift (x, y, z) -> (y, z, x) maps E1 onto E2 and E2 onto E3, and
  keeps primitivity and the sign weight (a function of the number of
  sign-fixed vectors).  So the sets, and their pairwise intersections, have
  equal counts: N = 3|E1| - 3|E1 n E2| + |E1 n E2 n E3|, a sum over DXY
  pairs (a, b) alone.  Each term admits a prefix of max|z| (``_in_domain``
  is monotone in c): Z1 for DXY, Z12 = min(Z1, DYZ cap), Z123 = min(Z12,
  DZX cap).  A domain convention counts |E1|.

  One call streams the pair blocks (``_count_pair_block``) of its largest
  bound, one per unordered pair of magnitudes (DXY and its caps shrink with
  B).  Each runs once, at its largest cap, and each (bound, order) adds
  3*cum[Z1] - 3*cum[Z12] + cum[Z123] of its prefix sums, in Python ints:
  ``count_points`` passes one bound, ``count_at_bounds`` (``compare``)
  several, ``mobius_count`` every floor(B/t) its Mobius sum reads.  With
  threads > 1 one process pool gets the blocks, largest estimated cost
  (rows x Z*(2Z)^(n-1) kernel cells) first to the least loaded worker; the
  same estimate, summed, is the engine's budget.  Signs enter through one
  weight: x, y and z are positive magnitude vectors and z_1 >= 1, negation
  flips the sign-fix predicate, so each block stands for 2^(2n+3) signed
  solutions, halved once per sign-fixed vector.

  A block's coefficient rows x_i*y_i repeat, within the block and across
  blocks.  A worker scans each row once in its canonical form, entries
  sorted and then divided by their gcd, which has the same half-histogram:
  c and c/g have the same solutions z, a permutation of c permutes the
  coordinates of each z, and z -> -z splits the solutions of each height
  evenly by the sign of any one coordinate.  The worker takes its blocks by
  decreasing cap and keeps a table of the rows it has scanned: the first
  block that holds a row scans it, at the largest cap any of its blocks
  reads, and the others read a prefix of its histogram.  At n=2, B=120 the
  blocks hold 6,498 rows and the kernel scans 2,106.

* ``count_points_oracle`` -- a deliberately naive scan that enumerates signed
  coordinate tuples directly, tests the trilinear sum literally, and applies
  every predicate (height, domain, primitivity, sign-fix) per tuple.

Counts are exact integers; for a fixed (n, B, convention) the result is
deterministic and independent of the number of worker threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import mobius_sieve
from .errors import BudgetExceededError, OverflowGuardError
from .lattice import check_dim

# int64 headroom: coefficients |c_i| <= a*b <= B and partial sums are at most
# (n+1)*B*Z <= (n+1)*B^2, so B is capped well below the exact range.
_MAX_BOUND = 2**30

# Largest number of int64 cells in one array of the vectorized kernel (rows x
# z-grid points, or the points of one z-grid piece) or of a pair block's
# coefficient rows (rows x (n+1)): 2 MiB per array, so a pair block's working
# set is a few of them.
_CELL_CHUNK = 1 << 18
_ORACLE_OPS_BUDGET = 400_000_000

# Largest z-grid the kernel scans per coefficient row, Z*(2Z)^(n-1) cells.
# The grid is built in pieces of at most _CELL_CHUNK cells (one z_1 value
# each when (2Z)^(n-1) alone is larger, as at n=4 for Z > 32), so this bounds
# the scan per row, not memory: a process scanning one row at n=3, Z=192
# peaks at 46 MB.  It admits n=2 up to B=4096 and n=3 up to B=203, and
# refuses n=3, B=300 (108M cells per row).
_Z_GRID_BUDGET = 1 << 25

# Largest number of kernel cells, rows x Z*(2Z)^(n-1) summed over the pair
# blocks of one count, that the engine takes on.  The rows are counted
# before a worker scans each canonical row once, so the sum is an upper
# bound on the cells scanned (2.4x at n=2, B=120).  It admits the largest
# golden bounds, n=2, B=1920 (2.7e9 cells) and n=3, B=192 (6.7e8), and
# refuses n=2, B=3840 (1.9e10) and n=1 beyond B of about 2^17.
_CELL_BUDGET = 1 << 32


class Domain(Enum):
    """Height-exponent restriction applied on top of H <= B.

    DXY requires max|x|*max|y| <= B^(2/3) and max|x| <= B^(1/3); DYZ and DZX
    are the cyclic analogues.  Comparisons are exact (``_in_domain``).
    """

    FULL = "FULL"
    DXY = "DXY"
    DYZ = "DYZ"
    DZX = "DZX"


@dataclass(frozen=True)
class CountingConvention:
    """The exact subset of solutions counted."""

    primitive: bool = False
    sign_fix: frozenset = frozenset()
    domain: Domain = Domain.FULL

    def __post_init__(self):
        if not frozenset(self.sign_fix) <= frozenset("xyz"):
            raise ValueError(f"sign_fix must be a subset of {{'x','y','z'}}, got {self.sign_fix}")
        object.__setattr__(self, "sign_fix", frozenset(self.sign_fix))


#: Conventions with standard names, as accepted by the CLI.
NAMED_CONVENTIONS: dict[str, CountingConvention] = {
    "all": CountingConvention(False, frozenset(), Domain.FULL),
    "N": CountingConvention(False, frozenset("xy"), Domain.FULL),
    "Nprime": CountingConvention(False, frozenset("xy"), Domain.DXY),
    "E": CountingConvention(False, frozenset("xyz"), Domain.FULL),
    "E1": CountingConvention(False, frozenset("xyz"), Domain.DXY),
    "E2": CountingConvention(False, frozenset("xyz"), Domain.DYZ),
    "E3": CountingConvention(False, frozenset("xyz"), Domain.DZX),
    "primitive": CountingConvention(True, frozenset(), Domain.FULL),
    "primitive-signfixed": CountingConvention(True, frozenset("xy"), Domain.FULL),
}


def _in_domain(B: int, a: int, b: int, c, domain: Domain):
    """The height and domain rule for exact maxima a = max|x|, b = max|y|,
    c = max|z| (ints, or c an array): a*b*c <= B, and for the domain's pair
    (u, v) = (a, b), (b, c) or (c, a), u*v <= B^(2/3) and u <= B^(1/3),
    tested exactly as (u*v)^3 <= B^2 and u^3 <= B.  Monotone in c.
    """
    ok = a * b * c <= B
    if domain is Domain.FULL:
        return ok
    if domain is Domain.DXY:
        u, v = a, b
    elif domain is Domain.DYZ:
        u, v = b, c
    else:
        u, v = c, a
    return ok & ((u * v) ** 3 <= B * B) & (u**3 <= B)


@dataclass
class ExactCount:
    count: int


def _validate_bound(B: int) -> None:
    if not isinstance(B, int) or B < 1:
        raise ValueError(f"bound must be a positive integer, got {B!r}")
    if B > _MAX_BOUND:
        raise OverflowGuardError(f"bound {B} exceeds the int64-safe kernel range")


# ---------------------------------------------------------------------------
# Inner kernel: number of z in the punctured box with sum(c_i z_i) = 0
# ---------------------------------------------------------------------------


def _check_z_grid(n: int, Z: int) -> None:
    """Refuse a kernel z-grid (Z*(2Z)^(n-1) cells) beyond the kernel budget.

    The product is built one factor at a time and left as soon as it passes
    the budget, so a huge n costs a few multiplications, not a huge integer.
    """
    cells = Z
    for _ in range(n - 1):
        if not 0 < cells <= _Z_GRID_BUDGET:
            break
        cells *= 2 * Z
    if cells > _Z_GRID_BUDGET:
        raise BudgetExceededError(
            f"z-grid Z*(2Z)^(n-1) (n={n}, Z={Z}) exceeds the {_Z_GRID_BUDGET}-cell kernel budget"
        )


def _signed_range(Z: int) -> np.ndarray:
    r = np.arange(-Z, Z + 1, dtype=np.int64)
    return r[r != 0]


def _grid(ranges: list[np.ndarray]) -> np.ndarray:
    """Cartesian product of the ranges, the first varying slowest: shape
    (prod of lengths, len(ranges)), filled in place without temporaries."""
    k = len(ranges)
    out = np.empty([len(r) for r in ranges] + [k], dtype=np.int64)
    for j, r in enumerate(ranges):
        out[..., j] = r.reshape([-1 if i == j else 1 for i in range(k)])
    return out.reshape(-1, k)


def _kernel_rows(C: np.ndarray, Z: int) -> np.ndarray:
    """Histograms of half the z-solutions of each row of C by exact height.

    hist[r, h] = #{z : 1 <= z_1 <= Z, 1 <= |z_i| <= Z, max_i |z_i| = h,
    sum_i C[r,i]*z_i = 0} for h = 0..Z (hist[:, 0] = 0), shape (rows, Z+1).
    z -> -z pairs every solution with one of the same max|z| and the
    opposite sign of z_1, so the full count is twice this; the caller's sign
    weight carries the 2.  A count at h does not depend on Z, so a row's
    histogram at a smaller cap is a prefix of this one.  C must have
    positive entries, in any order: the kernel solves for column 0,
    enumerating the other n coordinates and accepting a cell when C[r,0]
    divides the partial sum with a quotient in [-Z,-1] u [1,Z].  The
    remainder and the range test are taken once per cell; the quotient and
    max|z| only on the sparse accepted cells.

    The grid is built in pieces of consecutive z_1 values, each of at most
    _CELL_CHUNK cells (one z_1 value when (2Z)^(n-1) alone is larger), and
    the rows are taken in chunks, so no array but the result grows with
    Z*(2Z)^(n-1) or with the number of rows.
    """
    hist = np.zeros((len(C), Z + 1), dtype=np.int64)
    if Z < 1 or len(C) == 0:
        return hist
    n = C.shape[1] - 1
    rest = [_signed_range(Z)] * (n - 1)
    z1_chunk = max(1, _CELL_CHUNK // (2 * Z) ** (n - 1))
    flat = hist.reshape(-1)
    for z1 in range(1, Z + 1, z1_chunk):
        grid = _grid([np.arange(z1, min(z1 + z1_chunk, Z + 1), dtype=np.int64)] + rest)
        gmax = grid[:, 0].copy()
        for j in range(1, n):
            np.maximum(gmax, np.abs(grid[:, j]), out=gmax)
        row_chunk = max(1, _CELL_CHUNK // max(len(grid), Z + 1))
        for lo in range(0, len(C), row_chunk):
            Cc = C[lo : lo + row_chunk]
            s = np.multiply.outer(Cc[:, 1], grid[:, 0])
            for j in range(2, n + 1):
                s += np.multiply.outer(Cc[:, j], grid[:, j - 1])
            c0 = Cc[:, :1]
            hit = s % c0 == 0
            hit &= s != 0
            hit &= s <= Z * c0
            hit &= s >= -Z * c0
            r, g = np.nonzero(hit)
            q = np.abs(s[r, g]) // Cc[r, 0]
            cells = len(Cc) * (Z + 1)
            flat[lo * (Z + 1) : lo * (Z + 1) + cells] += np.bincount(
                r * (Z + 1) + np.maximum(q, gmax[g]), minlength=cells
            )
    return hist


# ---------------------------------------------------------------------------
# Magnitude-class enumeration for the production path
# ---------------------------------------------------------------------------


def _exact_max_vectors(n: int, a: int) -> np.ndarray:
    """All positive vectors in [1..a]^(n+1) with max coordinate exactly a:
    the box filtered to its shell.  Only the smaller side of a pair block
    is built this way; DXY puts a^3 <= B on the first magnitude of a pair,
    so a <= B^(1/3) and the box has at most B^((n+1)/3) rows.
    """
    box = _grid([np.arange(1, a + 1, dtype=np.int64)] * (n + 1))
    return box[box.max(axis=1) == a]


def _primitive_mask(V: np.ndarray) -> np.ndarray:
    """Literal primitivity predicate per row: the coordinates have gcd 1."""
    return np.gcd.reduce(np.abs(V), axis=1) == 1


def _orbits(n: int, m: int, primitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """One representative per S_(n+1)-orbit of the positive vectors with max
    coordinate exactly m (gcd 1 only, with ``primitive``), and the orbit
    sizes: (representatives, sizes).

    The representatives are the nondecreasing vectors ending in m, built one
    coordinate at a time: a row with last entry v extends by v..m.  A sorted
    vector with runs of lengths r_1, r_2, ... has orbit (n+1)!/prod(r_j!),
    and prod(r_j!) is the product over coordinates of the current run length.
    """
    reps = np.arange(1, m + 1, dtype=np.int64).reshape(-1, 1)
    for _ in range(n - 1):
        last = reps[:, -1]
        counts = m - last + 1
        parent = np.repeat(np.arange(len(reps)), counts)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        reps = np.column_stack([reps[parent], last[parent] + offset])
    reps = np.column_stack([reps, np.full(len(reps), m, dtype=np.int64)])
    if primitive:
        reps = reps[_primitive_mask(reps)]
    run = np.ones(len(reps), dtype=np.int64)
    stab = np.ones(len(reps), dtype=np.int64)
    for j in range(1, n + 1):
        run = np.where(reps[:, j] == reps[:, j - 1], run + 1, 1)
        stab *= run
    return reps, math.factorial(n + 1) // stab


def _z_cap(B: int, a: int, b: int, domain: Domain) -> int:
    """Largest admissible max|z| for exact maxima (a, b), or 0 when none.
    ``_in_domain`` is monotone in c, so its admitted c form a prefix."""
    return bisect_left(range(1, B // (a * b) + 1), True, key=lambda c: not _in_domain(B, a, b, c, domain))


def _merged(old: np.ndarray, held: np.ndarray, at: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``old`` in order at the places ``held`` marks, ``new`` at ``at``."""
    out = np.empty(len(held), dtype=np.int64)
    out[held] = old
    out[at] = new
    return out


class _RowTable:
    """A worker's half-histograms by canonical row (``_count_pair_block``).

    A canonical row is packed into one int64, its entries the digits of a
    number in base ``base``, above every entry.  ``keys`` holds the packed
    rows in increasing order, ending in a sentinel above every key, and
    ``start`` the offset of each row's histogram in ``flat``.  A histogram
    runs to the cap it was scanned at; ``flat`` doubles when it is full.
    Its counts fit int32: a row has at most Z*(2Z)^(n-1) cells, within the
    z-grid budget.
    """

    def __init__(self, n: int, base: int):
        self.base = base
        self.digits = base ** np.arange(n, -1, -1, dtype=np.int64)
        self.keys = np.array([np.iinfo(np.int64).max])
        self.start = np.zeros(1, dtype=np.int64)
        self.flat = np.zeros(0, dtype=np.int32)
        self.used = 0

    def add(self, pos: np.ndarray, keys: np.ndarray, hists: np.ndarray) -> None:
        """Insert the sorted new ``keys`` before the entries at ``pos``, with
        their histograms, one per row of ``hists``."""
        end = self.used + hists.size
        if end > len(self.flat):
            grown = np.empty(max(end, 2 * len(self.flat)), dtype=np.int32)
            grown[: self.used] = self.flat[: self.used]
            self.flat = grown
        self.flat[self.used : end] = hists.reshape(-1)
        # np.insert by hand, a third of its cost on these short arrays: the
        # new rows land at ``at``, the held ones keep their order around them
        at = pos + np.arange(len(keys))
        held = np.ones(len(self.keys) + len(keys), dtype=bool)
        held[at] = False
        self.keys = _merged(self.keys, held, at, keys)
        self.start = _merged(self.start, held, at, self.used + hists.shape[1] * np.arange(len(keys)))
        self.used = end

    def hist(self, keys: np.ndarray, weights: np.ndarray, Z: int) -> np.ndarray:
        """Sum of weight x histogram up to Z over the held ``keys``."""
        start = self.start[np.searchsorted(self.keys, keys)]
        hist = np.zeros(Z + 1, dtype=np.int64)
        chunk = max(1, _CELL_CHUNK // (Z + 1))
        for lo in range(0, len(keys), chunk):
            rows = self.flat[start[lo : lo + chunk, None] + np.arange(Z + 1)]
            hist += (weights[lo : lo + chunk, None] * rows).sum(axis=0)
        return hist


def _count_pair_block(
    orbits: tuple[np.ndarray, np.ndarray],
    Q: np.ndarray,
    Z: int,
    mu: np.ndarray | None,
    table: _RowTable,
) -> np.ndarray:
    """Inner-z counts over all positive magnitude pairs of a pair block, as
    a histogram by exact max|z| (length Z+1) of the z with z_1 >= 1, the
    half that ``_kernel_rows`` scans.

    The block with maxima (a, b) has the coefficient rows p*q (entrywise)
    for p, q of exact max a, b.  Write m = max(a, b) and k = min(a, b):
    since p*q = q*p, the rows are those of the exact-max-m vectors times the
    exact-max-k vectors Q.  ``orbits`` holds the exact-max-m vectors reduced
    to one sorted representative r per orbit of the permutations s of the
    n+1 coordinates, with the orbit sizes (``_orbits``).  s(r)*q =
    s(r * s^-1(q)), Q is closed under permutation, and the kernel count is
    invariant under permuting coordinates, so the orbit of r contributes its
    size times the kernel histogram of the rows r*Q.  Primitivity (the gcd
    filter on both sides) is permutation invariant too.

    Each row enters in canonical form: entries sorted, then divided by their
    gcd.  Neither step moves its half-histogram.  A row c and c/g have the
    same solutions z, and permuting c permutes the coordinates of each z,
    keeping max|z|.  The half is the z with a positive first enumerated
    coordinate; z -> -z pairs the solutions of one height and every
    coordinate is nonzero, so that half is exactly half of them in any
    column order.  Rows with one canonical form are scanned once, with
    their orbit sizes summed.  ``table`` holds the rows that blocks taken
    before this one have scanned, at caps of at least Z (the worker takes
    its blocks by decreasing cap); this block scans the rest with one
    ``_kernel_rows`` call at Z, adds them to the table, and reads every row
    from it.

    With the Mobius table ``mu`` (primitive conventions), the histogram
    counts primitive z only: every z of max h is d*z' for its content d and
    a primitive z' of max h/d with the same sign of z_1, so the primitive
    histogram is the Mobius inversion over d of the half one.
    """
    R, sizes = orbits
    n1 = Q.shape[1]
    keys = []
    r_chunk = max(1, _CELL_CHUNK // max(len(Q) * n1, 1))
    # Stable sorts and no matmul: numpy's default int64 sorts and its integer
    # matmul would load about 0.4 MB more code into every count process.
    for lo in range(0, len(R), r_chunk):
        C = np.sort((R[lo : lo + r_chunk, None, :] * Q[None, :, :]).reshape(-1, n1), axis=1, kind="stable")
        C //= np.gcd.reduce(C, axis=1, keepdims=True)
        keys.append((C * table.digits).sum(axis=1))
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    key, weight = key[first], np.add.reduceat(np.repeat(sizes, len(Q))[order], first)
    pos = np.searchsorted(table.keys, key)
    own = table.keys[pos] != key
    table.add(pos[own], key[own], _kernel_rows(key[own, None] // table.digits % table.base, Z))
    hist = table.hist(key, weight, Z)
    if mu is not None:
        prim = np.zeros_like(hist)
        for d in np.flatnonzero(mu[1 : Z + 1]) + 1:
            prim[d::d] += int(mu[d]) * hist[1 : Z // d + 1]
        hist = prim
    return hist


def _pair_blocks(n: int, B: int) -> list[tuple[int, int, int, int]]:
    """The stream at the bound B: (cost, m, k, Z) per unordered k <= m with
    (m, k) or (k, m) in DXY, Z the larger DXY z-cap of the two orders, cost
    the kernel cells of the block's rows, rows x Z*(2Z)^(n-1), with
    C(m+n-1, n) orbit representatives times k^(n+1) - (k-1)^(n+1) vectors
    as rows.  A worker scans only the canonical rows no earlier block of its
    share holds, so the cost is an upper bound, fixed before dealing.  The
    caps do not grow with m, so an empty block ends its row of k, and an
    empty (k, k) the stream.  Refuses a per-row z-grid over budget (largest
    at (1, 1)) and stops at the first partial sum over _CELL_BUDGET."""
    _check_z_grid(n, _z_cap(B, 1, 1, Domain.DXY))
    blocks, cells = [], 0
    for k in range(1, B + 1):
        for m in range(k, B // k + 1):
            Z = max(_z_cap(B, a, b, Domain.DXY) for a, b in {(m, k), (k, m)})
            if not Z:
                break
            cost = math.comb(m + n - 1, n) * (k ** (n + 1) - (k - 1) ** (n + 1)) * Z * (2 * Z) ** (n - 1)
            cells += cost
            if cells > _CELL_BUDGET:
                raise BudgetExceededError(f"kernel cells at (n={n}, B={B}) exceed the {_CELL_BUDGET} budget")
            blocks.append((cost, m, k, Z))
        if m == k:
            break
    return blocks


def _count_blocks(args: tuple) -> list[int]:
    """Worker: per bound, the sum of coefficient x cum[z-cap] over the terms
    of its blocks, cum the prefix sums of a block's half-histogram by max|z|
    (a prefix is exact: the primitive Mobius step commutes with truncation).
    The blocks are taken by decreasing cap, so the first block that holds a
    canonical row scans it at the largest cap any of them reads.  The table
    packs rows in base max(m*k) + 1 <= 2B, since m*k <= B bounds every entry
    of a block's rows.  The z-grid check at (1, 1), where Z = B, bounds
    2^(n-1)*B^n by 2^25, so a packed row stays below (2B)^(n+1) <= 2^27*B
    <= 2^52, well inside int64."""
    n, primitive, nbounds, blocks = args
    mu = mobius_sieve(max(block[2] for block in blocks)) if primitive else None
    totals = [0] * nbounds
    orbits, shells = {}, {}
    table = _RowTable(n, max(m * k for m, k, _, _ in blocks) + 1)
    for m, k, Z, terms in sorted(blocks, key=lambda block: -block[2]):
        if m not in orbits:
            orbits[m] = _orbits(n, m, primitive)
        if k not in shells:
            Q = _exact_max_vectors(n, k)
            shells[k] = Q[_primitive_mask(Q)] if primitive else Q
        cum = np.cumsum(_count_pair_block(orbits[m], shells[k], Z, mu, table)).tolist()
        for i, coef, z in terms:
            totals[i] += coef * cum[z]
    return totals


def count_at_bounds(n: int, bounds: list[int], conv: CountingConvention, threads: int = 1) -> list[int]:
    """Exact cardinalities of the solution sets selected by ``conv`` at each
    of ``bounds``, from one stream of pair blocks.  The workers' exact
    totals are summed in worker order: the result does not depend on
    ``threads``.
    """
    check_dim(n)
    for B in bounds:
        _validate_bound(B)
    if not isinstance(conv, CountingConvention):
        raise ValueError("conv must be a CountingConvention")
    blocks = _pair_blocks(n, max(bounds))
    threads = max(1, min(threads, len(blocks)))
    shares, loads = [[] for _ in range(threads)], [0] * threads
    for cost, m, k, Z in sorted(blocks, key=lambda block: (-block[0], block[1:])):
        terms = []  # (bound index, coefficient, z-cap), as in the module docstring
        for i, B in enumerate(bounds):
            for a, b in {(m, k), (k, m)}:
                z1 = _z_cap(B, a, b, Domain.DXY)
                if z1 and conv.domain is Domain.FULL:
                    z12 = min(z1, _z_cap(B, a, b, Domain.DYZ))
                    terms += [(i, 3, z1), (i, -3, z12), (i, 1, min(z12, _z_cap(B, a, b, Domain.DZX)))]
                else:
                    terms.append((i, 1, z1))
        i = loads.index(min(loads))
        loads[i] += cost
        shares[i].append((m, k, Z, terms))
    payloads = [(n, conv.primitive, len(bounds), sorted(share)) for share in shares]
    if threads == 1:
        parts = [_count_blocks(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_count_blocks, payloads))
    weight = 2 ** (2 * n + 3 - len(conv.sign_fix))
    return [weight * sum(totals) for totals in zip(*parts)]


def count_points(n: int, B: int, conv: CountingConvention, threads: int = 1) -> ExactCount:
    """Exact cardinality of the solution set selected by ``conv``, independent
    of ``threads``."""
    return ExactCount(count_at_bounds(n, [B], conv, threads)[0])


# ---------------------------------------------------------------------------
# Mobius reduction from the all-multiples count to the primitive count
# ---------------------------------------------------------------------------


def _mu_triple_dirichlet(B: int) -> np.ndarray:
    """g[t] = sum over k*l*m = t of mu(k)*mu(l)*mu(m), for t = 1..B."""
    mu = mobius_sieve(B).astype(np.int64)
    h = np.zeros(B + 1, dtype=np.int64)
    for k in range(1, B + 1):
        if mu[k]:
            h[k::k] += mu[k] * mu[1 : B // k + 1]
    g = np.zeros(B + 1, dtype=np.int64)
    for k in range(1, B + 1):
        if mu[k]:
            g[k::k] += mu[k] * h[1 : B // k + 1]
    return g


def mobius_count(n: int, B: int, sign_fix=frozenset(), threads: int = 1) -> int:
    """Primitive count reconstructed by the triple Mobius sum
    sum_{k,l,m} mu(k)mu(l)mu(m) * count(H*klm <= B), FULL domain.

    Heights are integers, so it is sum_t g(t) * N(floor(B/t)) over the
    non-primitive counts N (with the given sign_fix), all from one stream.
    """
    check_dim(n)
    _validate_bound(B)
    _pair_blocks(n, B)  # the budget refuses before the O(B) table of g is built
    g = _mu_triple_dirichlet(B)
    bounds = sorted({B // t for t in range(1, B + 1) if g[t]})
    conv = CountingConvention(False, frozenset(sign_fix), Domain.FULL)
    counts = dict(zip(bounds, count_at_bounds(n, bounds, conv, threads)))
    return sum(int(g[t]) * counts[B // t] for t in range(1, B + 1) if g[t])


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _signed_exact_max(n: int, a: int) -> np.ndarray:
    """All signed vectors with nonzero coordinates and max|v_i| exactly a:
    the signed box filtered to its shell."""
    box = _grid([_signed_range(a)] * (n + 1))
    return box[np.abs(box).max(axis=1) == a]


def _oracle_budget(n: int, B: int) -> int:
    """Tuples the oracle would scan, or the first partial sum over the budget."""
    ops = 0
    for a in range(1, B + 1):
        na = (2 * a) ** (n + 1) - (2 * (a - 1)) ** (n + 1)
        for b in range(1, B // a + 1):
            nb = (2 * b) ** (n + 1) - (2 * (b - 1)) ** (n + 1)
            ops += na * nb * (2 * (B // (a * b))) ** (n + 1)
            if ops > _ORACLE_OPS_BUDGET:
                return ops
    return ops


def _first_max_positive(V: np.ndarray) -> np.ndarray:
    """Literal sign-fix predicate per row: first coordinate of max |.| is > 0."""
    A = np.abs(V)
    m = A.max(axis=1)
    idx = np.argmax(A == m[:, None], axis=1)
    return V[np.arange(len(V)), idx] > 0


def oracle_sweep(n: int, B: int, convs: list[CountingConvention]) -> list[ExactCount]:
    """Brute-force counts for several conventions from a single literal scan.

    The enumeration and the solution test (sum x_i y_i z_i = 0, evaluated per
    tuple) are shared; every predicate is applied literally per tuple as a
    mask.  Refuses oversized scans."""
    check_dim(n)
    _validate_bound(B)
    if _oracle_budget(n, B) > _ORACLE_OPS_BUDGET:
        raise BudgetExceededError(f"oracle scan for (n={n}, B={B}) exceeds the test budget")

    totals = [0] * len(convs)

    z_by_cap = {}

    def z_pack(Z):
        if Z not in z_by_cap:
            grid = _grid([_signed_range(Z)] * (n + 1))
            mz = np.abs(grid).max(axis=1)
            z_by_cap[Z] = (
                grid,
                mz,
                _first_max_positive(grid),
                _primitive_mask(grid),
            )
        return z_by_cap[Z]

    for a in range(1, B + 1):
        X = _signed_exact_max(n, a)
        x_prim = _primitive_mask(X)
        x_sf = _first_max_positive(X)
        for b in range(1, B // a + 1):
            Y = _signed_exact_max(n, b)
            sf_y = _first_max_positive(Y)
            prim_y = _primitive_mask(Y)
            Z = B // (a * b)
            grid, mz, sf_z, prim_z = z_pack(Z)

            # Per-convention masks depend only on (a, b); hoisted out of the
            # x loop.  None marks a convention that admits no z for (a, b).
            per_conv = []
            for conv in convs:
                zmask = _in_domain(B, a, b, mz, conv.domain)
                if not zmask.any():
                    per_conv.append(None)
                    continue
                if conv.primitive:
                    zmask &= prim_z
                if "z" in conv.sign_fix:
                    zmask &= sf_z
                ymask = np.ones(len(Y), dtype=bool)
                if conv.primitive:
                    ymask &= prim_y
                if "y" in conv.sign_fix:
                    ymask &= sf_y
                per_conv.append((ymask.astype(np.int64), zmask.astype(np.int64)))

            gridT = grid.T
            for xi, x in enumerate(X):
                sol = (Y * x) @ gridT == 0
                for ci, conv in enumerate(convs):
                    masks = per_conv[ci]
                    if masks is None:
                        continue
                    if conv.primitive and not x_prim[xi]:
                        continue
                    if "x" in conv.sign_fix and not x_sf[xi]:
                        continue
                    ymask, zmask = masks
                    totals[ci] += int(ymask @ (sol @ zmask))

    return [ExactCount(t) for t in totals]


def count_points_oracle(n: int, B: int, conv: CountingConvention) -> ExactCount:
    """Independent brute-force count: scan signed tuples, test sum x_i y_i z_i = 0
    and every predicate literally, per tuple.  Refuses oversized scans."""
    return oracle_sweep(n, B, [conv])[0]
