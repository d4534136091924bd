"""Brute-force oracle for the exact counts of ``counting``.

``oracle_sweep`` is a deliberately naive scan that enumerates signed
coordinate tuples directly, tests the trilinear sum literally, and applies
every predicate (height, domain, primitivity, sign-fix) per tuple, for
several conventions at once.  It shares only the predicates and the
conventions with the engine; no command runs it.
"""

from __future__ import annotations

import numpy as np

from .counting import (
    CountingConvention,
    ExactCount,
    _grid,
    _in_domain,
    _primitive_mask,
    _signed_range,
    _validate_bound,
)
from .errors import BudgetExceededError, check_dim

_ORACLE_OPS_BUDGET = 400_000_000


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
