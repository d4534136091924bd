"""Smooth weights and the divisor-kernel h behind the delta-symbol expansion.

The Kronecker delta of an integer l admits the expansion

    delta_l = c_Q * Q^-2 * sum_{q>=1} c_q(l) * h(q/Q, l/Q^2),

where c_q(l) is a Ramanujan sum, c_Q = 1 + O_N(Q^-N), and h is built from a
bump rescaled to have support in (1/2, 1).  The q-sum is finite: h(x, y)
vanishes for x >= max(1, 2|y|), so only q < max(Q, 2|l|/Q) contribute, and
``q_range`` is the last q that ``delta_series`` sums.

``delta_series`` returns the raw sum (delta_l / c_Q), which should be close
to 1 at l = 0 and vanishes identically for l != 0; c_Q itself has no closed
form and is only ever estimated empirically as 1/raw(0).

c0, the bump's integral, is the 512-step trapezoidal sum: every derivative
of the bump vanishes at +-1, so the rule's Euler-Maclaurin corrections all
vanish and its error falls faster than any power of the step (Trefethen &
Weideman, SIAM Review 56, 2014).  The 256- and 512-step sums differ by
4.4e-15; the 512-, 1,024-, 2,048- and 4,096-step sums are the same double,
0x1.c6a650a045c5cp-2, which is the integral correctly rounded.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import ramanujan_sum
from .errors import BudgetExceededError

# The longest q range that q_range admits: the q-sum makes q_range(Q, l) kernel
# and Ramanujan-sum calls, and kernel_h(q/Q, l/Q^2) walks about
# Q/(2q) + |l|/(qQ) integers.  kernel_h refuses j-windows of more than twice
# this many terms in all.
_MAX_Q_MAX = 100_000


def bump(x: float) -> float:
    """The standard C-infinity bump: exp(-1/(1-x^2)) for |x| < 1, else 0."""
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


@lru_cache(maxsize=None)
def bump_integral() -> float:
    """c0, the integral of the bump over the real line, by the trapezoidal rule
    with N = 512 equal steps on [-1, 1], at the nodes -1 + 2i/N (exact in
    binary; the end nodes, where the bump is 0, are left out).

    512 steps suffice because every derivative of the bump vanishes at +-1
    (see the module docstring): doubling N up to 4,096 leaves the sum's bits
    unchanged.  A function without that decay gets no such guarantee: the
    step 1 for x < 0.1 in place of the bump (integral 1.1) gives 1.09765625.
    """
    N = 512
    return 2.0 / N * math.fsum(bump(-1.0 + 2.0 * i / N) for i in range(1, N))


def window(x: float) -> float:
    """Unit-mass window supported in (1/2, 1): 4/c0 * bump(4x - 3)."""
    return 4.0 / bump_integral() * bump(4.0 * x - 3.0)


def _j_windows(x: float, y: float) -> list[tuple[int, int]]:
    """The integer j-windows (lo, hi) that ``kernel_h(x, y)`` sums over:
    the j with xj in (1/2, 1) and, for y != 0, those with |y|/(xj) in
    (1/2, 1), each padded by one.  Windows of more than 2 * _MAX_Q_MAX
    terms in all are refused.
    """
    ay = abs(y)
    windows = [(max(1, math.floor(0.5 / x) - 1), math.ceil(1.0 / x) + 1)]
    if ay > 0:
        windows.append((max(1, math.floor(ay / x) - 1), math.ceil(2.0 * ay / x) + 1))
    if sum(hi - lo + 1 for lo, hi in windows) > 2 * _MAX_Q_MAX:
        raise BudgetExceededError(f"h({x}, {y}) would sum more than {2 * _MAX_Q_MAX} terms")
    return windows


def kernel_h(x: float, y: float) -> float:
    """h(x, y) = sum_{j>0} (1/(xj)) * (window(xj) - window(|y|/(xj))), for x > 0.

    Evaluated as an exact finite sum: window has support in (1/2, 1), so only
    j with xj in (1/2, 1) or |y|/(xj) in (1/2, 1) -- two explicit integer
    windows (``_j_windows``) -- can contribute.  In particular h(x, y) = 0
    whenever x > max(1, 2|y|).  Windows of more than 2 * _MAX_Q_MAX terms in
    all are refused, before c0 is needed; every call of ``delta_series``
    needs at most q_range(Q, l) + 6.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    windows = _j_windows(x, y)
    ay = abs(y)
    js = set()
    for lo, hi in windows:
        js.update(range(lo, hi + 1))
    total = 0.0
    for j in sorted(js):
        xj = x * j
        total += (window(xj) - window(ay / xj)) / xj
    return total


def q_range(Q: float, l: int) -> int:
    """The last q of the delta-series of l: ceil(max(Q, 2|l|/Q)).

    Every later term vanishes, since h(q/Q, l/Q^2) = 0 once q/Q >= max(1, 2|l|/Q^2).
    The range grows with |l|, so one call at the largest |l| vouches for a range
    of l.  Refuses, before any term is summed: a Q that is not a finite number
    >= 2 (ValueError) and a range over _MAX_Q_MAX (BudgetExceededError).
    """
    if not 2 <= Q < math.inf:  # also refuses nan
        raise ValueError(f"Q must be a finite number >= 2, got {Q}")
    Qf = float(Q)
    last = math.ceil(max(Qf, 2 * abs(l) / Qf))
    if last > _MAX_Q_MAX:
        raise BudgetExceededError(f"Q={Q}, l={l} needs q up to {last}, over the delta-series budget of {_MAX_Q_MAX}")
    return last


def delta_series(l: int, Q: float) -> float:
    """raw(l) = Q^-2 * sum_{q=1..q_range(Q, l)} c_q(l) * h(q/Q, l/Q^2).

    The sum is exhaustive: every omitted term is zero.  The unit sum over
    d mod q is collapsed to the Ramanujan closed form, so no floating-point
    phase summation enters.  raw(l) equals delta_l / c_Q.
    """
    last = q_range(Q, l)
    Qf = float(Q)
    total = 0.0
    for q in range(1, last + 1):
        cq = ramanujan_sum(q, l)
        if cq != 0:
            total += cq * kernel_h(q / Qf, l / Qf**2)
    return total / Qf**2
