"""Shared error types for guard rails around exact arithmetic and brute-force
scans, and the shared check of the ambient dimension n."""


class OverflowGuardError(ArithmeticError):
    """Magnitude precheck failed: a computation would leave the guaranteed exact range."""


class BudgetExceededError(RuntimeError):
    """A scan or table would exceed its stated size budget, so the run is refused."""


def check_dim(n: int) -> int:
    """Validate an ambient dimension (n >= 1; asymptotics are proved only for large n)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"ambient dimension must be an integer >= 1, got {n!r}")
    return n
