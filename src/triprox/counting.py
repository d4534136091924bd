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

  A count makes one stream of pair blocks (``_pair_blocks``) at its largest
  bound, one per unordered pair of magnitudes (DXY and its caps shrink with
  B), and one batched pass (``_histograms``) makes each block's histogram by
  exact max|z| over its coefficient rows x_i*y_i, up to its cap, one segment
  of a flat array H.  The pass scans each distinct row once, in canonical form
  and at the largest cap of its blocks, with one ``_kernel_rows`` call per
  cap (at n=2, B=120 the 44 blocks hold 6,498 rows; 16 calls scan 2,106),
  spread over the count's threads.  Each (bound, order of the pair) of a
  block adds 3*cum[Z1] - 3*cum[Z12] + cum[Z123] of its segment's prefix sums:
  one bound for ``count_points``, several for ``count_at_bounds``
  (``compare``), and every floor(B/t) its Mobius sum reads for
  ``mobius_count``.  Signs enter through one weight: with x, y, z positive and
  z_1 >= 1 (negation flips the sign-fix predicate) each block stands for
  2^(2n+3) signed solutions, halved once per sign-fixed vector.

* ``count_points_oracle`` -- a deliberately naive scan that enumerates signed
  coordinate tuples directly, tests the trilinear sum literally, and applies
  every predicate (height, domain, primitivity, sign-fix) per tuple.

Counts are exact integers; for a fixed (n, B, convention) the result is
deterministic and independent of the number of worker threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import mobius_sieve
from .errors import BudgetExceededError, OverflowGuardError
from .lattice import check_dim

# int64 headroom: coefficients |c_i| <= a*b <= B and partial sums are at most
# (n+1)*B*Z <= (n+1)*B^2, so B is capped well below the exact range.
_MAX_BOUND = 2**30

# Largest number of cells in one array of the vectorized kernel (rows x z
# cells of one piece, unless one z_1 value of one row is larger), of a chunk
# of coefficient rows (rows x (n+1)), of a scatter into H (incidences x
# (Z+1)) or of the terms read from H (bounds x block orders): 128 KiB per
# float32 kernel buffer and 256 KiB per int64 array.
# Every worker thread of a count holds its own, in one process, and the
# benchmark's peak RSS counts them together.
_CELL_CHUNK = 1 << 15
_ORACLE_OPS_BUDGET = 400_000_000

# Largest z-grid the kernel scans per coefficient row, Z*(2Z)^(n-1) cells.
# The cells are taken in pieces of at most _CELL_CHUNK (one z_1 value each
# when (2Z)^(n-1) alone is larger, as at n=4 for Z > 16), so this bounds the
# scan per row, not memory.  It admits n=2 up to B=4096 and n=3 up to B=203,
# and refuses n=3, B=300 (108M cells per row).
_Z_GRID_BUDGET = 1 << 25

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
    canonical row has max(C)*Z <= B at its cap (a block's entries are at
    most m*k and its cap at most B/(m*k)), and the z-grid budget keeps n*B
    far below 2^24 (n=1 stops at the cell budget near B=2^17).  q then
    holds |z_0| on the accepted cells; two broadcast maxima, against z_1
    and against the max|z_2..z_n| of each of the (2Z)^(n-1) points, and a
    row offset turn it into the histogram index, which the accepted cells
    alone carry to the count.

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
            np.maximum(q, z1s[:, None], out=q)
            np.maximum(q, rest_max, out=q)
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
    runs of lengths r_1, r_2, ... has orbit (n+1)!/prod(r_j!), and
    prod(r_j!) is the product over coordinates of the current run length.
    """
    reps = np.arange(1, M + 1, dtype=np.int32).reshape(-1, 1)
    for _ in range(n):
        first = reps[:, 0]
        parent = np.repeat(np.arange(len(reps), dtype=np.int32), first)
        head = np.arange(1, len(parent) + 1, dtype=np.int32)
        head -= np.repeat(np.cumsum(first, dtype=np.int32) - first, first)
        reps = np.column_stack([head, reps[parent]])
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


def _z_caps(B, a, b, domain: Domain) -> np.ndarray:
    """``_z_cap`` over int arrays that broadcast, bisected in lockstep by
    array calls of ``_in_domain``.  Its products stay below B^3 (u*v <= B),
    inside int64 for every bound the cell budget admits (n=1 stops near
    B=2^17)."""
    hi = B // (a * b)
    lo = np.zeros_like(hi)
    while (lo < hi).any():
        mid = (lo + hi + 1) // 2
        ok = _in_domain(B, a, b, mid, domain)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid - 1)
    return lo


def _pair_blocks(n: int, B: int) -> list[tuple[int, int, int, int]]:
    """The stream at the bound B: (cost, m, k, Z) per unordered k <= m with
    (m, k) or (k, m) in DXY, Z the larger DXY z-cap of the two orders, cost
    the kernel cells of the block's rows, rows x Z*(2Z)^(n-1), with
    C(m+n-1, n) orbit representatives times k^(n+1) - (k-1)^(n+1) vectors
    as rows.  The count scans each canonical row once, so the cost is an
    upper bound, fixed before any row is formed.  The caps do not grow with
    m, so an empty block ends its row of k, and an empty (k, k) the stream:
    the blocks come by k, then by m from k.  Refuses a per-row z-grid over
    budget (largest at (1, 1)) and stops at the first partial sum over
    _CELL_BUDGET."""
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


def _canonical_rows(n: int, blocks: list, primitive: bool, digits: np.ndarray):
    """The stream's coefficient rows as (packed canonical row, block, orbit
    weight) incidences, one per distinct pair in a chunk of rows.

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
    coordinate.  It is packed into one int64 as digits in ``digits``' base.
    """
    K = np.array([block[2] for block in blocks])
    # int32 rows: their entries are at most m*k <= B <= 2^30
    R, sizes = _orbits(n, max(block[1] for block in blocks), primitive)
    ms = R[:, -1]
    shells = []  # (block of m minus m, Q_k, first and end representative) per k
    for b0 in np.flatnonzero(np.diff(K, prepend=0)):
        k = int(K[b0])
        Q = _exact_max_vectors(n, k).astype(np.int32)
        if primitive:
            Q = Q[_primitive_mask(Q)]
        # the blocks of k hold m = k, k+1, ..., the last one before index end
        end = b0 + np.searchsorted(K[b0:], k, side="right")
        shells.append((b0 - k, Q, *np.searchsorted(ms, [k, blocks[end - 1][1] + 1])))
    # Room for one incidence per row, filled from the front: the untouched
    # pages never become resident.  The incidences are a count's largest
    # arrays: blocks take the smallest type, weights int32 if they fit.
    size = sum((hi - lo) * len(Q) for _, Q, lo, hi in shells)
    key, weight = np.empty(size, np.int64), np.empty(size, np.int64)
    block = np.empty(size, np.min_scalar_type(len(blocks)))
    used = 0
    for offset, Q, lo, hi in shells:
        r_chunk = max(1, _CELL_CHUNK // (len(Q) * (n + 1)))
        for r in range(lo, hi, r_chunk):
            reps = slice(r, min(r + r_chunk, hi))
            # Stable sorts and no matmul: numpy's default int64 sorts and its
            # integer matmul would load about 0.4 MB more code into every
            # count command.
            C = np.sort((R[reps, None, :] * Q).reshape(-1, n + 1), axis=1, kind="stable")
            C //= np.gcd.reduce(C, axis=1, keepdims=True)
            packed = (C * digits).sum(axis=1)
            order = np.argsort(packed, kind="stable")
            packed = packed[order]
            owner = np.repeat(ms[reps] + offset, len(Q))[order]
            new = (packed[1:] != packed[:-1]) | (owner[1:] != owner[:-1])
            first = np.flatnonzero(np.concatenate([[True], new]))
            end = used + len(first)
            key[used:end] = packed[first]
            block[used:end] = owner[first]
            weight[used:end] = np.add.reduceat(np.repeat(sizes[reps], len(Q))[order], first)
            used = end
    weight = weight[:used]
    return key[:used], block[:used], weight.astype(np.int32) if weight.max() < 2**31 else weight


def _count_pair_block(keys: np.ndarray, Z: int, count: np.ndarray, blocks: np.ndarray, weights: np.ndarray,
                      digits: np.ndarray, start: np.ndarray, caps: np.ndarray, H: np.ndarray) -> None:
    """Scan one cap group, the packed canonical rows ``keys`` whose blocks'
    largest cap is Z, with one ``_kernel_rows`` call, and add weight x
    half-histogram, up to the block's own cap, into the block's segment of
    H for each incidence (block, weight), count[r] of them for row r, in row
    order; block b's segment is H[start[b] : start[b] + caps[b] + 1].
    ``digits`` (ending in the base, 1) unpacks rows."""
    hist = _kernel_rows((keys[:, None] // digits % digits[-2]).astype(np.int32), Z)
    rows = np.repeat(np.arange(len(keys), dtype=np.int32), count)
    h = np.arange(Z + 1)
    chunk = max(1, _CELL_CHUNK // (Z + 1))
    for lo in range(0, len(rows), chunk):
        order = np.argsort(blocks[lo : lo + chunk], kind="stable") + lo
        block = blocks[order]
        first = np.flatnonzero(np.concatenate([[True], block[1:] != block[:-1]]))
        sums = np.add.reduceat(hist[rows[order]] * weights[order, None], first)
        block = block[first]  # distinct, so the indexed add below is exact
        keep = h <= caps[block, None]
        H[(start[block, None] + h)[keep]] += sums[keep]


def _count_share(size: int, digits: np.ndarray, start: np.ndarray, caps: np.ndarray, groups: list) -> np.ndarray:
    """One thread's share of the cap groups, summed into its own H, taken by
    increasing cap and each dropped once scanned: the widest come last."""
    H = np.zeros(size, dtype=np.int64)
    while groups:
        _count_pair_block(*groups.pop(), digits, start, caps, H)
    return H


def _mobius_inverse(H: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """prim[..., h] = sum over d | h of mu(d) * H[..., h/d], for h = 1..Z
    (prim[..., 0] = 0), Z = H.shape[-1] - 1: one exact strided int64 add per
    squarefree d <= Z, over every row of H at once."""
    Z = H.shape[-1] - 1
    prim = np.zeros_like(H)
    for d in np.flatnonzero(mu[1 : Z + 1]) + 1:
        prim[..., d::d] += mu[d] * H[..., 1 : Z // d + 1]
    return prim


def _histograms(n: int, blocks: list, primitive: bool, threads: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, start): H[start[i] + h], h <= Z_i, counts the z with z_1 >= 1 and
    max|z| = h over the coefficient rows of the block i of the stream, the
    half that ``_kernel_rows`` scans (primitive z only, with ``primitive``);
    the segments lie end to end by cap.  One stable argsort of
    ``_canonical_rows``' incidences by packed row makes each canonical row
    one kernel row, scanned at the largest cap of its blocks (a count at h
    does not depend on the cap).  The cap groups (``_count_pair_block``) are
    dealt to ``threads`` shares, largest cells first; the calling thread
    runs share 0, and their H add up in share order.  Every z of max h is
    d*z' for its content d and a primitive z' of max h/d, so a primitive
    count inverts each cap's segments, one matrix, at once."""
    M, K, Zb = (np.array([block[i] for block in blocks]) for i in (1, 2, 3))
    # m*k <= B bounds every entry, and the z-grid check at (1, 1), where
    # Z = B, bounds 2^(n-1)*B^n by 2^25, so a packed row stays below
    # (2B)^(n+1) <= 2^27*B <= 2^52, well inside int64
    digits = (int((M * K).max()) + 1) ** np.arange(n, -1, -1, dtype=np.int64)
    # one statement per permuted array, each dropped once the groups hold their parts
    key, block, weight = _canonical_rows(n, blocks, primitive, digits)
    order = np.argsort(key, kind="stable")
    key = key[order]
    block = block[order]
    weight = weight[order]
    del order
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    count, cap = np.diff(first, append=len(key)), np.maximum.reduceat(Zb[block], first)
    # the rows by decreasing cap, each with its run of incidences
    by_cap = np.argsort(-cap, kind="stable")
    key, cap, first, count = key[first[by_cap]], cap[by_cap], first[by_cap], count[by_cap]
    starts = np.flatnonzero(np.concatenate([[True], cap[1:] != cap[:-1], [True]]))
    groups = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        Z, runs = int(cap[lo]), count[lo:hi]
        at = np.repeat(first[lo:hi] - (np.cumsum(runs) - runs), runs)
        at += np.arange(len(at))
        groups.append((int(hi - lo) * Z * (2 * Z) ** (n - 1), key[lo:hi], Z, runs, block[at], weight[at]))
    del key, block, weight, first, count, cap, by_cap, runs, at
    threads = max(1, min(threads, len(groups)))
    groups.sort(key=lambda group: -group[0])  # dealt round the shares by decreasing cells
    shares = [sorted((group[1:] for group in groups[i::threads]), key=lambda group: -group[1]) for i in range(threads)]
    del groups
    order = np.argsort(Zb, kind="stable")
    ends = np.cumsum(Zb[order] + 1)
    start = (ends - Zb[order] - 1)[np.argsort(order, kind="stable")]
    args = (int(ends[-1]), digits, start, Zb)
    if threads == 1:
        H = _count_share(*args, shares[0])
    else:
        # Imported here so that importing the CLI loads no thread machinery;
        # the calling thread runs share 0 while the pool runs the others.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            others = [pool.submit(_count_share, *args, share) for share in shares[1:]]
            H = _count_share(*args, shares[0])
            for part in others:
                H += part.result()
    if primitive:
        mu, caps, lo = mobius_sieve(int(Zb.max())), Zb[order].tolist() + [0], 0
        for j, hi in enumerate(ends.tolist()):
            if caps[j + 1] != caps[j]:  # the last block of its cap: H[lo:hi] holds that cap's blocks
                H[lo:hi] = _mobius_inverse(H[lo:hi].reshape(-1, caps[j] + 1), mu).reshape(-1)
                lo = hi
    return H, start


def _count_stream(n: int, bounds: list[int], conv: CountingConvention, threads: int, blocks: list) -> list[int]:
    """The counts at ``bounds`` from ``blocks``, the stream of the largest:
    the terms of the module docstring (cum[Z1] alone for a domain
    convention), read with ``_z_caps`` and one gather per chunk of about
    _CELL_CHUNK terms.  Exact in int64: a block's rows number at most (n+1)!
    per orbit representative, so a bound's terms add up to at most
    14*(n+1)! times the stream's cells, below 2^63 (``test_int64_sums_stay_exact``)."""
    H, start = _histograms(n, blocks, conv.primitive, threads)
    cum = np.cumsum(H)  # cum[start[i]] sums the segments before block i (no z has max 0)
    M, K = (np.array([block[i] for block in blocks]) for i in (1, 2))
    two = M != K  # every block, then the other order of each with m > k
    at = start[np.concatenate([np.arange(len(blocks)), np.flatnonzero(two)])]
    a, b = np.concatenate([M, K[two]]), np.concatenate([K, M[two]])
    totals, per = [], max(1, _CELL_CHUNK // len(a))
    for lo in range(0, len(bounds), per):
        Bs = np.array(bounds[lo : lo + per])[:, None]
        z1 = _z_caps(Bs, a, b, Domain.DXY)
        if conv.domain is Domain.FULL:
            z12 = np.minimum(z1, _z_caps(Bs, a, b, Domain.DYZ))
            z123 = np.minimum(z12, _z_caps(Bs, a, b, Domain.DZX))
            terms = 3 * cum[at + z1] - 3 * cum[at + z12] + cum[at + z123] - cum[at]
        else:
            terms = cum[at + z1] - cum[at]
        totals += terms.sum(axis=1).tolist()
    weight = 2 ** (2 * n + 3 - len(conv.sign_fix))
    return [weight * total for total in totals]


def count_at_bounds(n: int, bounds: list[int], conv: CountingConvention, threads: int = 1) -> list[int]:
    """Exact cardinalities of the solution sets selected by ``conv`` at each
    of ``bounds``, from one stream of pair blocks at the largest, scanned by
    ``threads`` threads of this process (numpy releases the GIL in the
    kernel's passes).  The result does not depend on ``threads``."""
    check_dim(n)
    for B in bounds:
        _validate_bound(B)
    if not isinstance(conv, CountingConvention):
        raise ValueError("conv must be a CountingConvention")
    return _count_stream(n, bounds, conv, threads, _pair_blocks(n, max(bounds)))


def count_points(n: int, B: int, conv: CountingConvention, threads: int = 1) -> ExactCount:
    """Exact cardinality of the solution set selected by ``conv``, independent
    of ``threads``."""
    return ExactCount(count_at_bounds(n, [B], conv, threads)[0])


# ---------------------------------------------------------------------------
# Mobius reduction from the all-multiples count to the primitive count
# ---------------------------------------------------------------------------


def mobius_count(n: int, B: int, sign_fix=frozenset(), threads: int = 1) -> int:
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
    counts = dict(zip(bounds, _count_stream(n, bounds, conv, threads, blocks)))
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
