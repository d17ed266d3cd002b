"""Closed forms the benchmark checks the program against.

Everything here is written apart from `heatspec` and imports nothing from it,
so a fault in the program cannot move an oracle with it.  `test_oracles.py`
checks these formulas against limits and an integrated moment ODE.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath


@lru_cache(maxsize=None)
def limit_moment(n: int, t: float) -> float:
    """m_n(t) = e^{-|n|t/2} sum_{k<|n|} ((-t)^k/k!) |n|^{k-1} C(|n|, k+1), in 40 digits."""
    n = abs(n)
    if n == 0:
        return 1.0
    with mpmath.workdps(40):
        tt = mpmath.mpf(t)
        total = mpmath.fsum(
            (-tt) ** k / mpmath.factorial(k) * mpmath.mpf(n) ** (k - 1) * mpmath.binomial(n, k + 1)
            for k in range(n)
        )
        return float(mpmath.exp(-n * tt / 2) * total)


def mean_v1(u: float) -> float:
    """E[v1] at flow time u, at every N."""
    return math.exp(-u / 2.0)


def mean_v2(u: float, N: int) -> float:
    """E[v2] at flow time u and size N."""
    return math.exp(-u) * (math.cosh(u / N) - N * math.sinh(u / N))


def mean_v1_vm1(u: float, N: int) -> float:
    """E[v1 v-1] at flow time u and size N."""
    return math.exp(-u) + (1.0 - math.exp(-u)) / (N * N)


def circle_half_width(t: float) -> float:
    """Half-width of the circle law's support arc at t > 0."""
    if t >= 4.0:
        return math.pi
    return 0.5 * math.sqrt(t * (4.0 - t)) + math.acos(1.0 - t / 2.0)


def line_support(tau: float) -> tuple[float, float]:
    """Endpoints of the positive-line law's support at tau < 0."""
    d = math.sqrt(tau * (tau - 4.0))
    return ((2.0 - tau - d) / 2.0) * math.exp(-d / 2.0), ((2.0 - tau + d) / 2.0) * math.exp(d / 2.0)


def deviation_bound(degree: int, l1: float, r: float, N: int) -> float:
    """The paper's finite-N bound (1/N^2)(r/2)n^2 exp((r/2)n^2(1 + 1/N^2)) ||p||_1."""
    half = 0.5 * r * degree * degree
    return half * math.exp(half * (1.0 + 1.0 / (N * N))) * l1 / (N * N)
