"""Shared error types for guard rails around exact arithmetic and brute-force scans."""


class OverflowGuardError(ArithmeticError):
    """Magnitude precheck failed: a computation would leave the guaranteed exact range."""


class BudgetExceededError(RuntimeError):
    """A scan or table would exceed its stated size budget, so the run is refused."""
