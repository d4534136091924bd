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
  pairs (a, b) alone.  Each term admits a prefix of max|z|, up to a cap
  that is a quotient of B, r1 = floor(B^(1/3)) or r2 = floor(B^(2/3))
  (``_z_caps``): Z1 for DXY, Z12 = min(Z1, DYZ cap), Z123 = min(Z12, DZX
  cap).  A domain convention counts |E1|.  ``_in_domain`` states the same
  rule per point, for the oracle.

  A count makes one stream of pair blocks (``_pair_blocks``) at its largest
  bound, one per unordered pair of magnitudes (DXY and its caps shrink with
  B), and one batched pass (``_histograms``) makes each block's histogram by
  exact max|z| over its coefficient rows x_i*y_i, up to its cap, one segment
  of a flat array H, in stream order.  It scans each distinct canonical row
  c (sorted, divided by its gcd) once, from the closed form: the entries of
  a row of (m, k) are at most mk <= r2, and the block (max c, 1) holds c, so
  the rows are the primitive nondecreasing vectors of max <= r2 (``_orbits``),
  each at its largest cap B // max c, formed chunk by chunk as n+1
  columns.  One ``_kernel_rows`` call per cap counts every z (at n=2, B=120
  the 44 blocks hold 6,498 rows; 16 calls scan 2,106 in 309,392 cells),
  and one unbuffered ``np.add.at`` per chunk of incidences adds them,
  weighted, into the segments.  Each (bound, order of the pair) of a block
  adds 3*P(Z1) - 3*P(Z12) + P(Z123) of its segment's prefix sums P: one
  bound for ``count_points``, several for ``count_at_bounds``
  (``compare``), and every floor(B/t) its Mobius sum reads for
  ``mobius_count``.  A primitive count applies z-primitivity there, at
  read time: the primitive z of max <= Z number sum over squarefree d <= Z
  of mu(d) * P(Z // d) (``_prefix_reads``).  Signs enter through one weight:
  with x, y, z positive and z_1 >= 1 (negation flips the sign-fix
  predicate) each block stands for 2^(2n+3) signed solutions, halved once
  per sign-fixed vector.

* ``oracle.oracle_sweep`` -- a deliberately naive scan that tests every
  signed tuple literally.  It has a module of its own, since no command
  runs it: a command start without cached bytecode compiles this module,
  and its size sets the peak memory of that start.

Counts are exact integers; for a fixed (n, B, convention) the result is
deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import mobius_sieve
from .errors import BudgetExceededError, OverflowGuardError, check_dim

# int64 headroom: coefficients |c_i| <= a*b <= B and partial sums are at most
# (n+1)*B*Z <= (n+1)*B^2, so B is capped well below the exact range.
_MAX_BOUND = 2**30

# Largest number of cells in one array of the vectorized kernel (rows x z
# cells of one piece, unless one z_1 value of one row is larger), of a chunk
# of coefficient rows (rows x (n+1)), of histograms added by one np.add.at
# (incidences x (Z+1), at least one), or of the terms read from H (one read
# per bound and block order, times its d and its coefficients, one read at
# least): 128 KiB per float32, 256 per int64 array.
_CELL_CHUNK = 1 << 15

# Largest z-grid the kernel scans per coefficient row, Z*(2Z)^(n-1) cells.
# The cells are taken in pieces of at most _CELL_CHUNK (one z_1 value each
# when (2Z)^(n-1) alone is larger, as at n=4 for Z > 16), so this bounds the
# scan per row, not memory.  It admits n=2 up to B=4096 and n=3 up to B=203,
# and refuses n=3, B=300 (108M cells per row).
_Z_GRID_BUDGET = 1 << 25

# Largest table of z_2..z_n points, (2Z)^(n-1), that the kernel holds in
# several float32 arrays at once.  It refuses n=10 at B=3, n=13 at B=2 and
# n >= 24 at B=1; the largest tables it admits (n=23, B=1 and n=12, B=2)
# peak at about 114 MB.
_Z_TABLE_BUDGET = 1 << 22

# Largest number of kernel cells, rows x Z*(2Z)^(n-1) summed over the pair
# blocks of one count, that the engine takes on.  The rows are counted per
# block, before the count scans each canonical row once, so the sum is an
# upper bound on the cells scanned (2.4x at n=2, B=120).  It admits the
# largest golden bounds, n=2, B=1920 (2.7e9 cells) and n=3, B=192 (6.7e8),
# and refuses n=2, B=3840 (1.9e10) and n=1 beyond B of about 2^17.
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
    """Refuse a kernel z-grid of Z*(2Z)^(n-1) cells beyond the kernel budget,
    or a table of (2Z)^(n-1) points z_2..z_n beyond the table budget.

    The product is built one factor at a time and left as soon as it passes
    the cell budget, so a huge n costs a few multiplications, not a huge integer.
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
    if cells > Z * _Z_TABLE_BUDGET:
        raise BudgetExceededError(
            f"z-table (2Z)^(n-1) (n={n}, Z={Z}) exceeds the {_Z_TABLE_BUDGET}-point kernel budget"
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
    divides the partial sum s with a quotient in [-Z,-1] u [1,Z].

    It builds no grid of z.  Each cell costs a few passes over float32
    buffers allocated once per call: s as the broadcast sum of the
    per-coordinate products C[r,j]*z_j, the quotient q = s / C[r,0] in
    place, |q| clipped to [1/2, Z+1/2], and the test floor(q) == q, which
    the clip leaves true exactly for |q| in [1, Z].  The test is exact
    while every |s| < 2^24, which the call checks (n*max(C)*Z bounds |s|):
    every product and partial sum is then an integer float32 holds exactly,
    and a quotient with a remainder lies at least 1/C[r,0] from every
    integer, farther than its rounding error |s|/C[r,0] * 2^-24.  A
    canonical row's cap is B // max(C), and the z-grid budget keeps n*B far
    below 2^24 (n=1 stops at the cell budget near B=2^17).  q then
    holds |z_0| on the accepted cells; one broadcast maximum, against the
    piece's table of max(z_1, max|z_2..z_n|) over its z_1 values times the
    (2Z)^(n-1) points, and a row offset turn it into the histogram index,
    which the accepted cells alone carry to the count.

    The cells are taken in pieces of consecutive z_1 values times a chunk
    of rows, each of at most _CELL_CHUNK cells (one z_1 value and one row
    when (2Z)^(n-1) alone is larger), so no array but the result and the
    per-point tables of z_2..z_n grows with Z or with the number of rows.
    """
    hist = np.zeros((len(C), Z + 1), dtype=np.int64)
    if Z < 1 or len(C) == 0:
        return hist
    n = C.shape[1] - 1
    if n * int(C.max()) * Z >= 1 << 24:
        raise OverflowGuardError(f"kernel sums n*max(C)*Z (n={n}, Z={Z}) reach 2^24, beyond exact float32")
    width = (2 * Z) ** (n - 1)
    signed = _signed_range(Z).astype(np.float32)
    rest_max = np.ones(1, dtype=np.float32)  # max|z_2..z_n| per point, z_2 varying slowest
    for _ in range(n - 1):
        rest_max = np.maximum.outer(np.abs(signed), rest_max).reshape(-1)
    z1_chunk = max(1, min(Z, _CELL_CHUNK // width))
    row_chunk = max(1, _CELL_CHUNK // max(z1_chunk * width, Z + 1))
    size = min(row_chunk, len(C)) * z1_chunk * width
    q_buf, floor_buf, hit_buf = (np.empty(size, dtype=t) for t in (np.float32, np.float32, bool))
    Cf = C.astype(np.float32)
    flat = hist.reshape(-1)
    for lo in range(0, len(C), row_chunk):
        Cc = Cf[lo : lo + row_chunk]
        rows = len(Cc)
        rest = np.zeros((rows, 1), dtype=np.float32)  # sum_{j>=2} C[r,j]*z_j, laid out as rest_max
        for j in range(n, 1, -1):
            rest = (Cc[:, j, None, None] * signed[:, None] + rest[:, None, :]).reshape(rows, -1)
        offset = np.arange(0, rows * (Z + 1), Z + 1, dtype=np.float32)[:, None, None]
        for z1 in range(1, Z + 1, z1_chunk):
            span = min(z1_chunk, Z + 1 - z1)
            cells = rows * span * width
            q, floor, hit = (a[:cells].reshape(rows, span, width) for a in (q_buf, floor_buf, hit_buf))
            z1s = np.arange(z1, z1 + span, dtype=np.float32)
            np.add((Cc[:, 1, None] * z1s)[:, :, None], rest[:, None, :], out=q)
            np.divide(q, Cc[:, :1, None], out=q)
            np.abs(q, out=q)
            np.clip(q, 0.5, Z + 0.5, out=q)
            np.floor(q, out=floor)
            np.equal(floor, q, out=hit)
            np.maximum(q, np.maximum.outer(z1s, rest_max), out=q)
            q += offset  # row * (Z+1) + max|z| < max(_CELL_CHUNK, Z+1): exact
            flat[lo * (Z + 1) : (lo + rows) * (Z + 1)] += np.bincount(q[hit].astype(np.intp), minlength=rows * (Z + 1))
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


def _orbits(n: int, M: int, primitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """One representative per S_(n+1)-orbit of the positive vectors with max
    coordinate at most M (gcd 1 only, with ``primitive``), and the orbit
    sizes: (representatives, sizes), sorted by the max.

    The representatives are the nondecreasing vectors, built from the last
    entry, the max, to the first: a row with first entry v extends in front
    by 1..v, keeping the order of the last entries.  A sorted vector with
    runs of lengths r_1, r_2, ... has orbit (n+1)!/prod(r_j!), built one
    coordinate at a time: the orbit of the first j+1 entries is that of the
    first j times (j+1) over the current run length, a multinomial at every
    step, so no (n+1)! is formed (21! is past int64).
    """
    reps = [np.arange(1, M + 1, dtype=np.int32)]  # as columns, the first entry first
    for _ in range(n):
        first = reps[0]
        parent = np.repeat(np.arange(len(first), dtype=np.int32), first)
        head = np.arange(1, len(parent) + 1, dtype=np.int32)
        head -= np.repeat(np.cumsum(first, dtype=np.int32) - first, first)
        reps = [head] + [c[parent] for c in reps]
    reps = np.stack(reps, axis=1)
    if primitive:
        reps = reps[_primitive_mask(reps)]
    run = np.ones(len(reps), dtype=np.int64)
    size = np.ones(len(reps), dtype=np.int64)
    for j in range(1, n + 1):
        run = np.where(reps[:, j] == reps[:, j - 1], run + 1, 1)
        size *= j + 1
        size //= run
    return reps, size


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for an int x >= 0: a float guess, corrected exactly."""
    r = round(x ** (1 / 3))
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def _z_caps(B, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z1, Z12, Z123): the largest max|z| that height abc <= B admits with
    (a, b) in DXY, with DXY and DYZ, and with all three domains, or 0 when
    none, over int arrays that broadcast (B an int or a column of bounds).
    With r1 = floor(B^(1/3)) and r2 = floor(B^(2/3)) an integer pair (u, v)
    is in its domain exactly when u <= r1 and u*v <= r2, so the caps are
    quotients: Z1 = B//(ab) when a <= r1 and ab <= r2, Z12 = min(Z1, r2//b)
    when b <= r1, Z123 = min(Z12, r1, r2//a)."""
    B = np.asarray(B)
    r1, r2 = (np.array([_icbrt(int(x) ** p) for x in B.flat]).reshape(B.shape) for p in (1, 2))
    z1 = np.where((a <= r1) & (a * b <= r2), B // (a * b), 0)
    z12 = np.where(b <= r1, np.minimum(z1, r2 // b), 0)
    return z1, z12, np.minimum(z12, np.minimum(r1, r2 // a))


def _pair_blocks(n: int, B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stream at the bound B as int arrays (M, K, Z): one block per
    unordered k <= m with (m, k) or (k, m) in DXY, by k and then by m.  With
    k <= m that is (k, m) in DXY: k = 1..r1 and m = k..r2//k, r1 and r2 as
    in ``_z_caps``, at the cap Z = B//(mk) that DXY leaves whole.  Refuses
    a per-row z-grid over budget (the largest, Z = B, at (1, 1)) and stops
    at the first partial sum over _CELL_BUDGET of the blocks' kernel cells,
    rows x Z*(2Z)^(n-1) with C(m+n-1, n) orbit representatives times
    k^(n+1) - (k-1)^(n+1) vectors as rows: an upper bound, fixed before any
    row is formed, since the count scans each canonical row once."""
    _check_z_grid(n, B)
    r1, r2 = _icbrt(B), _icbrt(B * B)
    M, K, Z, cells = [], [], [], 0
    for k in range(1, r1 + 1):
        shell = k ** (n + 1) - (k - 1) ** (n + 1)
        for m in range(k, r2 // k + 1):
            z = B // (m * k)
            cells += math.comb(m + n - 1, n) * shell * z * (2 * z) ** (n - 1)
            if cells > _CELL_BUDGET:
                raise BudgetExceededError(f"kernel cells at (n={n}, B={B}) exceed the {_CELL_BUDGET} budget")
            M.append(m)
            K.append(k)
            Z.append(z)
    return np.array(M), np.array(K), np.array(Z)


def _pack(cols: list, base: int) -> np.ndarray:
    """The int64 keys sum_j cols[j] * base^j of rows given as columns of
    entries below ``base``, the last column most significant."""
    key = cols[-1].astype(np.int64)
    for c in cols[-2::-1]:
        key *= base
        key += c
    return key


def _canonical_rows(n: int, M: np.ndarray, K: np.ndarray, primitive: bool):
    """The rows the stream scans and its (row, block, orbit weight)
    incidences, one per distinct pair in a chunk of rows, sorted by row.

    The block (m, k) has the rows p*q (entrywise) for p, q of exact max m, k
    (p*q = q*p).  With the orbit representatives r of every m sorted by m
    (``_orbits``), the rows of the blocks of small side k are r*Q_k over the
    r of max k..m_max, Q_k the exact-max-k vectors.  s(r)*q = s(r * s^-1(q))
    for a permutation s of coordinates, and Q_k, primitivity and the kernel
    count are invariant under s, so r*Q_k stands for r's orbit, weighted by
    its size.  A row is canonical with its entries sorted, then divided by
    their gcd, which keeps its half-histogram: c and c/g have the same
    solutions, a permutation of c permutes the coordinates of each, and
    z -> -z splits each height's solutions evenly by the sign of any one
    coordinate.  The canonical rows are the primitive representatives of
    ``_orbits`` (r2 = M.max()), whose order is that of their keys packed with
    the last entry most significant: a row's id is its key's rank."""
    # int32 rows: their entries are at most r2 <= B <= 2^30
    R, sizes = _orbits(n, int(M.max()), primitive)
    ms = R[:, -1]
    rows = R if primitive else R[_primitive_mask(R)]
    # (r2+1)^(n+1) <= (2B)^(n+1), and the z-grid check at (1, 1), where
    # Z = B, bounds 2^(n-1)*B^n by 2^25, so a key stays below 2^27*B <= 2^57
    base = int(M.max()) + 1
    keys = _pack(list(rows.T), base)
    # odd-even transposition sort: n+1 rounds of compare-exchanges of the
    # entries (i, i+1), from i = 0 and from i = 1 in turn, sort any n+1 entries
    network = [i for step in range(n + 1) for i in range(step % 2, n, 2)]
    shells = []  # (block of m minus m, Q_k, first and end representative) per k
    for b0 in np.flatnonzero(np.diff(K, prepend=0)):
        k = int(K[b0])
        Q = _exact_max_vectors(n, k).astype(np.int32)
        if primitive:
            Q = Q[_primitive_mask(Q)]
        # the blocks of k hold m = k, k+1, ..., the last one before index end
        end = b0 + np.searchsorted(K[b0:], k, side="right")
        shells.append((b0 - k, Q, *np.searchsorted(ms, [k, M[end - 1] + 1])))
    # Room for one incidence per row, filled from the front: the untouched
    # pages never become resident.  The incidences are a count's largest
    # arrays: row ids int32, blocks the smallest type, weights int32 if they fit.
    size = sum((hi - lo) * len(Q) for _, Q, lo, hi in shells)
    row, weight = np.empty(size, np.int32), np.empty(size, np.int64)
    block = np.empty(size, np.min_scalar_type(len(M)))
    used = 0
    for offset, Q, lo, hi in shells:
        r_chunk = max(1, _CELL_CHUNK // (len(Q) * (n + 1)))
        for r in range(lo, hi, r_chunk):
            reps = slice(r, min(r + r_chunk, hi))
            # the rows r*q of the chunk, representative-major, as n+1
            # contiguous columns: elementwise passes, no reduction along the
            # short axis of a (rows, n+1) array
            cols = [np.multiply.outer(R[reps, j], Q[:, j]).reshape(-1) for j in range(n + 1)]
            spare = np.empty_like(cols[0])
            for i in network:
                np.minimum(cols[i], cols[i + 1], out=spare)
                np.maximum(cols[i], cols[i + 1], out=cols[i + 1])
                cols[i], spare = spare, cols[i]
            g = functools.reduce(np.gcd, cols)
            for c in cols:
                c //= g
            packed = _pack(cols, base)
            # A stable sort: numpy's default int64 sort would load about
            # 0.4 MB more code into every count command.
            order = np.argsort(packed, kind="stable")
            packed = packed[order]
            owner = np.repeat(ms[reps] + offset, len(Q))[order]
            new = (packed[1:] != packed[:-1]) | (owner[1:] != owner[:-1])
            first = np.flatnonzero(np.concatenate([[True], new]))
            end = used + len(first)
            row[used:end] = np.searchsorted(keys, packed[first])  # sorted: each search starts at the last
            block[used:end] = owner[first]
            weight[used:end] = np.add.reduceat(np.repeat(sizes[reps], len(Q))[order], first)
            used = end
    weight = weight[:used]
    weight = weight.astype(np.int32) if weight.max() < 2**31 else weight
    # one statement per permuted array, each old one dropped as it is replaced
    order = np.argsort(row[:used], kind="stable")
    row = row[order]
    block = block[order]
    weight = weight[order]
    return rows, row, block, weight


def _count_pair_block(C: np.ndarray, Z: int, row: np.ndarray, blocks: np.ndarray, weights: np.ndarray,
                      start: np.ndarray, caps: np.ndarray, H: np.ndarray) -> None:
    """Scan the canonical rows C, all of cap Z, with one ``_kernel_rows``
    call, and add weight x half-histogram of row C[r] up to the block's cap
    into block b's segment H[start[b] : start[b] + caps[b] + 1] for each
    incidence (r, b, weight) of ``row``, ``blocks`` and ``weights``, by one
    unbuffered ``np.add.at`` per chunk of incidences."""
    hist = _kernel_rows(C, Z).reshape(-1)
    chunk = max(1, _CELL_CHUNK // (Z + 1))
    for lo in range(0, len(row), chunk):
        at = slice(lo, lo + chunk)
        size = caps[blocks[at]] + 1  # each incidence adds its heights 0..cap
        h = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        np.add.at(H, np.repeat(start[blocks[at]], size) + h,
                  hist[np.repeat(row[at] * np.intp(Z + 1), size) + h] * np.repeat(weights[at], size))


def _mobius_inverse(H: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """prim[h] = sum over d | h of mu(d) * H[h/d], for h = 1..Z (prim[0] = 0),
    Z = len(H) - 1, heights first: one exact int64 add or subtract per
    squarefree d <= Z, over whole rows H[h] at once.  prim[h] reads only
    H[:h+1], so the inversion of a prefix is the prefix of the inversion."""
    Z = len(H) - 1
    prim = np.zeros_like(H)
    for d in np.flatnonzero(mu[1 : Z + 1]) + 1:  # mu(d) = +-1: no temporary array
        (np.add if mu[d] > 0 else np.subtract)(prim[d::d], H[1 : Z // d + 1], out=prim[d::d])
    return prim


def _histograms(n: int, blocks: tuple, primitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """(H, start): H[start[i] + h], h <= Z_i, counts the z with z_1 >= 1 and
    max|z| = h over the coefficient rows of the block i of the stream, the
    half that ``_kernel_rows`` scans (rows of primitive x and y only, with
    ``primitive``; every z either way); the segments lie end to end in
    stream order.  The rows of ``_canonical_rows`` come by max, each
    scanned at its largest cap B // max (B = Zb[0]), so each cap's rows are
    one slice; ``_count_pair_block`` scans the slices by increasing cap,
    the widest last."""
    M, K, Zb = blocks
    B = int(Zb[0])
    rows, row, block, weight = _canonical_rows(n, M, K, primitive)
    cap = B // rows[:, -1]
    start = np.cumsum(Zb + 1) - (Zb + 1)
    H = np.zeros(int(start[-1] + Zb[-1] + 1), dtype=np.int64)
    bounds = np.flatnonzero(np.concatenate([[True], cap[1:] != cap[:-1], [True]]))
    edges = np.searchsorted(row, bounds)  # where each cap's incidences start
    for i in reversed(range(len(bounds) - 1)):
        (lo, hi), (a, b) = bounds[i : i + 2], edges[i : i + 2]
        row[a:b] -= lo  # in place: ids into the cap's own rows
        _count_pair_block(rows[lo:hi], int(cap[lo]), row[a:b], block[a:b], weight[a:b], start, Zb, H)
    return H, start


def _prefix_reads(P: np.ndarray, at: np.ndarray, caps: np.ndarray, coef: tuple, mu: np.ndarray) -> np.ndarray:
    """Per read, the sum over d <= caps[0] of mu(d) * sum_i coef[i] *
    P[at + caps[i] // d], over a flat int array ``at`` and an int array
    ``caps`` of one row per coefficient (caps[0] the largest), P[at + Z]
    the prefix of the segment at ``at`` through max|z| = Z.  With the
    Mobius function as ``mu`` that counts primitive z alone: every z of max
    <= Z is d*z' for its content d and a primitive z' of max <= Z // d.
    With the identity [0, 1] it counts every z, at d = 1 alone.  One ragged
    gather over the pairs (read, d with mu(d) != 0) per chunk of at most
    _CELL_CHUNK cells, one per pair and coefficient (one read at least),
    each read summed apart."""
    coef = np.array(coef)[:, None]
    d = np.flatnonzero(mu)
    # d = 1 alone where caps[0] = 0: it reads P[at] = 0, and keeps every read nonempty
    count = np.maximum(np.searchsorted(d, caps[0], side="right"), 1)
    ends = np.cumsum(count)
    parts, lo, chunk = [], 0, max(1, _CELL_CHUNK // len(caps))
    while lo < len(at):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - count[lo] + chunk, side="right")))
        size = count[lo:hi]
        first = np.cumsum(size) - size
        t = np.repeat(np.arange(lo, hi), size)
        dt = d[np.arange(len(t)) - np.repeat(first, size)]  # the d of each pair
        idx = caps[:, t]
        idx //= dt
        idx += at[t]
        terms = P[idx]
        terms *= coef
        terms = terms.sum(axis=0)
        terms *= mu[dt]
        parts.append(np.add.reduceat(terms, first))
        lo = hi
    return np.concatenate(parts)


def _count_stream(n: int, bounds: list[int], conv: CountingConvention, blocks: tuple) -> list[int]:
    """The counts at ``bounds`` from ``blocks``, the stream of the largest:
    the terms of the module docstring (P(Z1) alone for a domain
    convention), read with ``_z_caps`` and ``_prefix_reads`` (its Mobius
    sum over the content of z for a primitive count), one chunk of about
    _CELL_CHUNK terms at a time.  Exact in int64: a block's rows number at
    most (n+1)! per orbit representative, so a bound's terms add up to at
    most 14*(n+1)! times the stream's cells.  A primitive count reads each
    prefix again at Z // d for squarefree d, over at most 1/d^n as many
    cells, which multiplies that by at most zeta(2) at n >= 2 and by
    1 + ln B at n = 1: below 2^63 either way (``test_int64_sums_stay_exact``)."""
    H, start = _histograms(n, blocks, conv.primitive)
    M, K, Zb = blocks
    P = np.cumsum(H, out=H)  # in place: H is not read again
    P -= np.repeat(P[start], Zb + 1)  # each segment's own prefix sums (no z has max 0)
    two = M != K  # every block, then the other order of each with m > k
    at = start[np.concatenate([np.arange(len(M)), np.flatnonzero(two)])]
    a, b = np.concatenate([M, K[two]]), np.concatenate([K, M[two]])
    coef = (3, -3, 1) if conv.domain is Domain.FULL else (1,)
    mu = mobius_sieve(max(bounds)) if conv.primitive else np.array([0, 1])  # every z: d = 1 alone
    totals, per = [], max(1, _CELL_CHUNK // len(a))
    for lo in range(0, len(bounds), per):
        caps = np.stack(_z_caps(np.array(bounds[lo : lo + per])[:, None], a, b)[: len(coef)])
        shape = caps.shape[1:]  # (bounds, block orders)
        terms = _prefix_reads(P, np.broadcast_to(at, shape).reshape(-1), caps.reshape(len(coef), -1), coef, mu)
        totals += terms.reshape(shape).sum(axis=1).tolist()
    weight = 2 ** (2 * n + 3 - len(conv.sign_fix))
    return [weight * total for total in totals]


def count_at_bounds(n: int, bounds: list[int], conv: CountingConvention) -> list[int]:
    """Exact cardinalities of the solution sets selected by ``conv`` at each
    of ``bounds``, from one stream of pair blocks at the largest."""
    check_dim(n)
    for B in bounds:
        _validate_bound(B)
    if not isinstance(conv, CountingConvention):
        raise ValueError("conv must be a CountingConvention")
    return _count_stream(n, bounds, conv, _pair_blocks(n, max(bounds)))


def count_points(n: int, B: int, conv: CountingConvention) -> ExactCount:
    """Exact cardinality of the solution set selected by ``conv``."""
    return ExactCount(count_at_bounds(n, [B], conv)[0])


# ---------------------------------------------------------------------------
# Mobius reduction from the all-multiples count to the primitive count
# ---------------------------------------------------------------------------


def mobius_count(n: int, B: int, sign_fix=frozenset()) -> int:
    """Primitive count reconstructed by the triple Mobius sum
    sum_{k,l,m} mu(k)mu(l)mu(m) * count(H*klm <= B), FULL domain.

    Heights are integers, so it is sum_t g(t) * N(floor(B/t)) over the
    non-primitive counts N (with the given sign_fix), all from one stream.
    """
    check_dim(n)
    _validate_bound(B)
    blocks = _pair_blocks(n, B)  # the budget refuses before the O(B) table of g is built
    mu = mobius_sieve(B).astype(np.int64)
    g = _mobius_inverse(_mobius_inverse(mu, mu), mu)  # g(t): sum of mu(k)mu(l)mu(m) over klm = t
    bounds = sorted({B // t for t in range(1, B + 1) if g[t]})
    conv = CountingConvention(False, frozenset(sign_fix), Domain.FULL)
    counts = dict(zip(bounds, _count_stream(n, bounds, conv, blocks)))
    return sum(int(g[t]) * counts[B // t] for t in range(1, B + 1) if g[t])
