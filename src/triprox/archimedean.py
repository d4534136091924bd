"""Monte Carlo evaluation of the archimedean density integrals.

The real-density integrals are volumes (with an explicit positive weight in
the off-diagonal case) of indicator regions over max-norm boxes:

* diagonal:      integral over [-1,1]^(3n) of [ |sum_k s_k t_k u_k| <= 1 ];
* off-diagonal:  integral of [slab] * [ordering] / |pivot| over [-1,1]^(3n),
  where the pivot is the coordinate entering the slab denominator and one
  coordinate is integrated in closed form (Rao-Blackwellization), keeping the
  integrand bounded by 2;
* "max-extracted" variants: the (3n-1)-dimensional integrals obtained by
  rescaling by the largest free coordinate, with the extracted sign sampled
  uniformly from {-1,+1}.  These exist only as an experimental cross-check of
  the 2/n rescaling factor; the assembled constant never uses them.

All estimators are pure functions of (target, n, indices, samples, seed):
sampling is partitioned into fixed blocks, each driven by a counter-based
Philox stream keyed by (seed, target-tag, block index), and block sums are
reduced with math.fsum in block order.  Results are bit-identical across runs.

Each thread of a small pool (numpy releases the GIL in the fill and in the
ufuncs) takes the next block from one shared range iterator, whose next()
holds the GIL, so only one task per thread is queued.  A block is drawn from
its own stream in slices of _SLICE rows, one after another, into a slice buffer
and a block array that each thread allocates once and reuses; the slices draw
exactly the doubles of one whole-block draw; 2U - 1 equals uniform(-1, 1) bit
for bit (2U is exact and IEEE addition commutes), the integrands act row by
row, and each block's sums are taken over the whole block in row order.  So
neither the slice size nor the number of threads changes the result.

The integrands make a few full-length passes over a slice's columns.  The
slab sum A = sum_k s_k t_k u_k is built one column triple at a time in place,
in the k order and the (s*t)*u order of a row sum, so it has the row sum's
bits without an (m, n) product array.  The off-diagonal interval ends are
formed from B = copysign(A, A*u0) = A*sign(u0) as (|w| +- B)/|u0|; they equal
the ends (+-|w| - A)/u0 of the direct formula to the bit, since negation is
exact, dividing by -|u0| only flips the sign, and x - (-y) = x + y.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import check_dim

_BLOCK = 1 << 16
_SLICE = _BLOCK // 8  # rows drawn at a time: caps a thread's working set, not the bits
# Stream tags pack the indices i0, j0 and k0 (all <= n) in base 64, so they
# are injective only for n < _TAG_BASE.
_TAG_BASE = 64


class Target(Enum):
    SIGMA_II = "SIGMA_II"
    SIGMA1 = "SIGMA1"
    SIGMA2 = "SIGMA2"
    SIGMA1_PRIME = "SIGMA1_PRIME"
    SIGMA2_PRIME = "SIGMA2_PRIME"


_TARGET_CODE = {t: i for i, t in enumerate(Target)}


@dataclass
class ArchEstimate:
    mean: float
    stderr: float
    # sigma_infty_prime only: the sigma_infty_components it was built from.
    components: dict | None = None


# ---------------------------------------------------------------------------
# Deterministic block streams
# ---------------------------------------------------------------------------


def _tag(target: Target, i0: int, j0: int, extra: int = 0) -> int:
    return ((_TARGET_CODE[target] * _TAG_BASE + i0) * _TAG_BASE + j0) * _TAG_BASE + extra


def _block_rng(seed: int, tag: int, block: int) -> np.random.Generator:
    key = np.array([seed, ((tag & 0xFFFFFF) << 40) | (block & ((1 << 40) - 1))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_mc_inputs(samples: int, seed: int) -> None:
    """Refuse fewer than 2 samples (no stderr) and a seed outside [0, 2**64)."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    # The seed is the first 64-bit word of every Philox key: a seed outside
    # that range would have to be wrapped onto, and so share, another's streams.
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _mc_blocks(samples: int, dims: int, seed: int, tag: int, f_of_block):
    """Mean and stderr of f over `samples` points of the uniform box [-1,1]^dims.

    f_of_block maps an (m, dims) array to an (m,) array of nonnegative values,
    row by row.
    """
    # Imported here so that importing the CLI loads no thread machinery; the
    # pool is joined before the call returns.
    from concurrent.futures import ThreadPoolExecutor

    _check_mc_inputs(samples, seed)

    results = [None] * -(-samples // _BLOCK)
    blocks = iter(range(len(results)))

    def drain(_):
        # One block array and one slice buffer per thread, reused by its blocks.
        f_buf, pts_buf = np.empty(min(_BLOCK, samples)), np.empty((min(_SLICE, samples), dims))
        for block in blocks:
            rng = _block_rng(seed, tag, block)
            f = f_buf[: min(_BLOCK, samples - block * _BLOCK)]
            for lo in range(0, len(f), _SLICE):
                pts = rng.random(out=pts_buf[: min(_SLICE, len(f) - lo)])
                pts *= 2.0
                pts -= 1.0
                f[lo : lo + len(pts)] = f_of_block(pts)
            total = float(f.sum())
            f *= f  # in place: the bits of (f * f).sum()
            results[block] = total, float(f.sum())

    workers = min(4, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(drain, range(workers)))  # list() re-raises a thread's error
    sums, sqsums = zip(*results)
    mean = math.fsum(sums) / samples
    var = max(0.0, (math.fsum(sqsums) - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def _check_indices(n: int, i0: int, j0: int | None = None) -> None:
    check_dim(n)
    if n >= _TAG_BASE:
        raise ValueError(f"MC stream tags need n < {_TAG_BASE}, got n = {n}")
    if not 0 <= i0 <= n:
        raise ValueError(f"i0 must be in [0, {n}], got {i0}")
    if j0 is not None and not (0 <= j0 <= n and j0 != i0):
        raise ValueError(f"j0 must be in [0, {n}] and differ from i0 = {i0}, got {j0}")


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _slab(pts, first: int, terms: int, n: int):
    """sum_k s_k*t_k*u_k over the column triples (first + k, n + k, 2n + k), k < terms.

    Built one column triple at a time and in place, with (s*t)*u per term and
    the terms added in k order: the bits of the row sum of an (s*t*u) array.
    """
    if terms == 0:
        return np.zeros(len(pts))
    A = pts[:, first] * pts[:, n]
    A *= pts[:, 2 * n]
    term = np.empty_like(A)
    for k in range(1, terms):
        np.multiply(pts[:, first + k], pts[:, n + k], out=term)
        term *= pts[:, 2 * n + k]
        A += term
    return A


def _diag_f(n: int):
    """Diagonal integrand on (m, 3n) sample arrays: [|sum_k s_k t_k u_k| <= 1].

    Columns: [s (n), t (n), u (n)].
    """

    def f(pts):
        A = _slab(pts, 0, n, n)
        np.abs(A, out=A)
        return (A <= 1.0).astype(float)

    return f


def mc_sigma_diag(n: int, i0: int, samples: int, seed: int) -> ArchEstimate:
    """Plain MC for the diagonal density (volume 8^n box, indicator slab).

    The integral does not depend on i0 (coordinate symmetry); i0 only keys
    the random stream, so estimates for different i0 are independent draws.
    """
    _check_indices(n, i0)
    vol = 8.0**n
    mean, se = _mc_blocks(samples, 3 * n, seed, _tag(Target.SIGMA_II, i0, i0), _diag_f(n))
    return ArchEstimate(vol * mean, vol * se)


def _offdiag_f(n: int):
    """Rao-Blackwellized off-diagonal integrand on (m, 3n-1) sample arrays.

    Columns: [pivot w, s_rest (n-1), t_rest (n-1), u0, u_rest (n-1)].  The
    coordinate paired with u0 is integrated exactly: its admissible set is
    |tau| <= cap = min(1, |w|) intersected with |A + tau*u0| <= |w| where
    A = sum(s_rest*t_rest*u_rest).  With B = A*sign(u0), that is the interval
    from -t1 to t2, t1 = (|w| + B)/|u0| and t2 = (|w| - B)/|u0|, so the
    contribution is max(0, fmin(t1, cap) + fmin(t2, cap))/|w| <= 2.  At
    u0 = +-0 the quotients are +inf (the slab holds for every tau), -inf (for
    none) or NaN (|A| = |w|: for every tau), and fmin clips each to the end
    it stands for.
    """

    def f(pts):
        u0 = pts[:, 2 * n - 1]
        B = _slab(pts, 1, n - 1, n)
        aw = np.abs(pts[:, 0])
        au = np.abs(u0)
        cap = np.minimum(1.0, aw)
        # Infinite and NaN quotients are meant (see above); so are underflow
        # in A*u0, of which only the sign is used, and overflow at subnormal
        # |u0|, which fmin clips to cap.
        with np.errstate(all="ignore"):
            np.copysign(B, B * u0, out=B)
            t1 = aw + B
            t1 /= au
            np.fmin(t1, cap, out=t1)
            t2 = np.subtract(aw, B, out=B)
            t2 /= au
            np.fmin(t2, cap, out=t2)
            t1 += t2
            np.maximum(t1, 0.0, out=t1)
            t1 /= aw
        t1[aw == 0.0] = 0.0
        return t1

    return f


def _mc_offdiag(target: Target, n: int, i0: int, j0: int, samples: int, seed: int) -> ArchEstimate:
    _check_indices(n, i0, j0)
    vol = 2.0 ** (3 * n - 1)
    mean, se = _mc_blocks(samples, 3 * n - 1, seed, _tag(target, i0, j0), _offdiag_f(n))
    return ArchEstimate(vol * mean, vol * se)


def mc_sigma1(n: int, i0: int, j0: int, samples: int, seed: int) -> ArchEstimate:
    """Off-diagonal branch with the s-side pivot (ordering |t_piv| <= |s_piv|)."""
    return _mc_offdiag(Target.SIGMA1, n, i0, j0, samples, seed)


def mc_sigma2(n: int, i0: int, j0: int, samples: int, seed: int) -> ArchEstimate:
    """The mirrored branch (ordering |t_piv| >= |s_piv|); equal to branch 1 as an
    integral after swapping the s and t roles, so the same parametrization is
    sampled under its own stream."""
    return _mc_offdiag(Target.SIGMA2, n, i0, j0, samples, seed)


def mc_sigma_prime(n: int, i0: int, j0: int, which: int, samples: int, seed: int) -> ArchEstimate:
    """Direct MC for the (3n-1)-dimensional max-extracted off-diagonal integral.

    For each choice k0 of the extracted coordinate (n of them), samples the
    remaining 3n-1 reals uniformly plus a uniform sign v_k0 in {-1,+1}, and
    averages [slab] * [ordering] / |pivot|.  Both branches are equal as
    integrals under the s/t role swap, so branch 2 samples the same
    parametrization under its own stream.  Experimental cross-check only:
    the literal rescaled integrand drops the extracted magnitude from the
    slab, so the nominal 2/n relation against the unprimed integral holds
    only asymptotically in n (see the ratio tests).
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    _check_indices(n, i0, j0)
    target = Target.SIGMA1_PRIME if which == 1 else Target.SIGMA2_PRIME
    vol = 2.0 ** (3 * n - 1)

    def make_f(k0: int):
        def f(pts):
            w = pts[:, 0]
            sr = pts[:, 1:n]
            t0 = pts[:, n]
            tr = pts[:, n + 1 : 2 * n]
            vr = pts[:, 2 * n : 3 * n - 1]
            sign = np.where(pts[:, 3 * n - 1] >= 0.0, 1.0, -1.0)
            v = np.empty((len(pts), n))
            cols = [c for c in range(n) if c != k0]
            v[:, k0] = sign
            v[:, cols] = vr
            slab = t0 * v[:, 0] + (sr * tr * v[:, 1:]).sum(axis=1)
            aw = np.abs(w)
            ok = (np.abs(slab) <= aw) & (np.abs(t0) <= aw) & (aw > 0.0)
            return np.where(ok, 1.0 / np.where(aw == 0.0, 1.0, aw), 0.0)

        return f

    means, variances = [], []
    for k0 in range(n):
        mean, se = _mc_blocks(samples, 3 * n, seed, _tag(target, i0, j0, extra=k0), make_f(k0))
        means.append(vol * mean)
        variances.append((vol * se) ** 2)
    return ArchEstimate(math.fsum(means), math.sqrt(math.fsum(variances)))


def sigma_infty_components(n: int, samples: int, seed: int) -> dict:
    """Symmetry-reduced components of the assembled archimedean density."""
    diag = mc_sigma_diag(n, 0, samples, seed)
    off1 = mc_sigma1(n, 0, 1, samples, seed)
    off2 = mc_sigma2(n, 0, 1, samples, seed)
    return {
        "diag": diag,
        "off1": off1,
        "off2": off2,
        "diagonal_total": (n + 1) * diag.mean,
        "offdiagonal_total": n * (n + 1) * (off1.mean + off2.mean),
    }


def sigma_infty_prime(n: int, samples: int, seed: int) -> ArchEstimate:
    """Rescaled density sigma_inf' = (n/2) * sigma_inf, the unprimed density
    assembled from (n+1) diagonal copies plus n(n+1) ordered off-diagonal
    pairs, each pair contributing both branches (coordinate symmetry).  The
    direct max-extracted estimators are never used here."""
    parts = sigma_infty_components(n, samples, seed)
    diag, off1, off2 = parts["diag"], parts["off1"], parts["off2"]
    var = ((n + 1) * diag.stderr) ** 2 + (n * (n + 1)) ** 2 * (off1.stderr**2 + off2.stderr**2)
    scale = n / 2.0
    return ArchEstimate(scale * (parts["diagonal_total"] + parts["offdiagonal_total"]),
                        scale * math.sqrt(var), parts)
