"""Validation of the ambient dimension n shared by every module.

A point on the hypersurface is a triple of (n+1)-tuples of nonzero integers;
the predicates on such vectors (primitivity, sign-fix) live in ``counting``.
"""

from __future__ import annotations


def check_dim(n: int) -> int:
    """Validate an ambient dimension (n >= 1; asymptotics are proved only for large n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ambient dimension must be an integer >= 1, got {n!r}")
    return n
