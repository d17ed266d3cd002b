"""Tests of the benchmark's own closed forms, so that a wrong oracle shows.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracles


@pytest.mark.parametrize("u", [-0.7, 0.3, 1.0, 2.5])
def test_size_one_collapse(u):
    # at N = 1 every v_k is the k-th power of one unit scalar
    assert oracles.mean_v2(u, 1) == pytest.approx(math.exp(-2.0 * u), rel=1e-13)
    assert oracles.mean_v1_vm1(u, 1) == pytest.approx(1.0, rel=1e-15)
    assert oracles.mean_v1(u) == pytest.approx(oracles.limit_moment(1, u), rel=1e-15)


@pytest.mark.parametrize("u", [-0.7, 0.3, 1.0, 2.5])
def test_large_size_tends_to_limit_moments(u):
    for N in (10**3, 10**4):
        assert abs(oracles.mean_v2(u, N) - oracles.limit_moment(2, u)) < 10.0 / N**2
        assert abs(oracles.mean_v1_vm1(u, N) - oracles.limit_moment(1, u) ** 2) < 10.0 / N**2


def moments_by_ode(T, n_max):
    """Integrate m_n' = -(n/2)(m_n + sum_{j<n} m_j m_{n-j}) from m_n(0) = 1."""

    def rhs(_t, y):
        return np.array([
            -0.5 * n * (y[n - 1] + sum(y[j - 1] * y[n - j - 1] for j in range(1, n)))
            for n in range(1, n_max + 1)
        ])

    sol = solve_ivp(rhs, (0.0, T), np.ones(n_max), method="DOP853", rtol=1e-13, atol=1e-15)
    return sol.y[:, -1]


@pytest.mark.parametrize("t", [-2.0, -0.5, 0.25, 1.0, 4.0])
def test_closed_moments_match_integrated_ode(t):
    ode = moments_by_ode(t, 10)
    for n in range(1, 11):
        assert abs(oracles.limit_moment(n, t) - ode[n - 1]) <= 1e-10 * max(1.0, abs(ode[n - 1]))
        assert oracles.limit_moment(-n, t) == oracles.limit_moment(n, t)


def test_supports():
    assert oracles.circle_half_width(4.0) == math.pi
    assert oracles.circle_half_width(1e-8) == pytest.approx(2e-4, rel=1e-3)
    for tau in (-0.5, -1.0, -2.0):
        lo, hi = oracles.line_support(tau)
        assert 0.0 < lo < 1.0 < hi
        assert lo * hi == pytest.approx(1.0, rel=1e-12)


def test_deviation_bound_scaling():
    b2 = oracles.deviation_bound(6, 2.0, 1.0, 2)
    assert b2 == pytest.approx(0.25 * 18.0 * math.exp(18.0 * 1.25) * 2.0, rel=1e-14)
    assert oracles.deviation_bound(0, 1.0, 1.0, 4) == 0.0
