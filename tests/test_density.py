"""Spectral densities on the circle and the positive line, plus quadrature."""

import gc
import math
import weakref

import numpy as np
import pytest

from heatspec.density import (
    ArcSupport,
    CircleDensity,
    IntervalSupport,
    LineDensity,
    adaptive_simpson,
    positive_density,
    positive_support,
    unitary_density,
    unitary_support,
)
from heatspec.errors import InvalidParameter, NoConvergence
from heatspec.moments import nu_moment

# frozen endpoints for tau = -1: d = sqrt(5), r_pm = ((3 ∓ d)/2) e^{∓ d/2}
R_MINUS_TAU1 = 0.12487305235783525
R_PLUS_TAU1 = 8.008132908727239


# -- supports --------------------------------------------------------------------


def test_circle_support_saturates_at_four():
    assert unitary_support(4.0).half_width == pytest.approx(math.pi)
    assert unitary_support(7.5).half_width == pytest.approx(math.pi)


def test_circle_support_at_two():
    assert unitary_support(2.0).half_width == pytest.approx(1.0 + math.pi / 2.0, abs=1e-15)


def test_circle_support_small_time_scaling():
    hw = unitary_support(1e-4).half_width
    assert hw == pytest.approx(2.0 * math.sqrt(1e-4), rel=5e-3)


def test_circle_support_requires_positive_time():
    with pytest.raises(InvalidParameter):
        unitary_support(0.0)
    with pytest.raises(InvalidParameter):
        unitary_support(-1.0)


def test_line_support_frozen_endpoints():
    sup = positive_support(-1.0)
    assert sup.r_minus == pytest.approx(R_MINUS_TAU1, abs=1e-14)
    assert sup.r_plus == pytest.approx(R_PLUS_TAU1, abs=1e-11)


@pytest.mark.parametrize("tau", [-0.5, -1.0, -2.0, -5.0])
def test_line_support_endpoints_are_reciprocal(tau):
    sup = positive_support(tau)
    assert sup.r_minus * sup.r_plus == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < sup.r_minus < 1.0 < sup.r_plus


def test_line_support_collapses_as_tau_vanishes():
    sup = positive_support(-1e-4)
    assert sup.r_minus == pytest.approx(1.0, abs=0.05)
    assert sup.r_plus == pytest.approx(1.0, abs=0.05)


def test_line_support_requires_negative_tau():
    with pytest.raises(InvalidParameter):
        positive_support(0.0)
    with pytest.raises(InvalidParameter):
        positive_support(0.5)


def test_support_container_validation():
    with pytest.raises(InvalidParameter):
        ArcSupport(-0.1)
    with pytest.raises(InvalidParameter):
        ArcSupport(4.0)
    with pytest.raises(InvalidParameter):
        IntervalSupport(0.5, 1.5)  # product != 1
    assert IntervalSupport(0.5, 2.0).contains(1.0)


# -- circle law ------------------------------------------------------------------


def test_circle_density_even_symmetry():
    solver = CircleDensity(1.0)
    for th in (0.3, 0.9, 1.4):
        lhs = unitary_density(th, 1.0, solver=solver)
        rhs = unitary_density(-th, 1.0, solver=solver)
        assert lhs == rhs


def test_circle_density_zero_outside_support():
    solver = CircleDensity(1.0)
    hw = solver.support.half_width
    assert unitary_density(hw + 0.01, 1.0, solver=solver) == 0.0
    assert unitary_density(-hw - 0.3, 1.0, solver=solver) == 0.0


def test_circle_root_residual_and_branch():
    solver = CircleDensity(1.0)
    z = solver.root(0.7)
    residual = abs(solver._map(z) - complex(math.cos(0.7), math.sin(0.7)))
    assert residual <= 1e-12
    assert z.real > 0.0



def test_circle_stepping_stone_is_checked_when_first_asked():
    solver = CircleDensity(1.0)
    z = solver.root(0.5)  # marches from 0, caching every intermediate angle
    stone = solver._keys[1]
    assert 0.0 < stone < 0.5
    solver._roots[1] += 1e-6  # no query has returned this root yet
    with pytest.raises(NoConvergence, match="residual"):
        solver.root(stone)
    assert solver.root(0.5) == z

@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0, 6.0])
def test_circle_density_nonnegative_on_grid(t):
    solver = CircleDensity(t)
    for th in np.linspace(-math.pi, math.pi, 65):
        assert unitary_density(float(th), t, solver=solver) >= 0.0


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
def test_circle_moments_match_closed_form(t):
    solver = CircleDensity(t)
    hw = solver.support.half_width

    for n in range(0, 7):
        def integrand(th, n=n):
            return math.cos(n * th) * solver(th)

        got = adaptive_simpson(integrand, 0.0, hw, tol=1e-10) / math.pi
        assert got == pytest.approx(nu_moment(n, t), abs=1e-6)


def test_circle_density_unimodal():
    t = 1.0
    solver = CircleDensity(t)
    hw = solver.support.half_width
    grid = np.linspace(-hw * (1 - 1e-9), hw * (1 - 1e-9), 1024)
    vals = np.array([solver(float(th)) for th in grid])
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-13])
    changes = np.count_nonzero(np.diff(signs))
    assert changes == 1


def test_circle_solver_mismatch_guard():
    with pytest.raises(InvalidParameter):
        unitary_density(0.1, 2.0, solver=CircleDensity(1.0))


def test_circle_density_peak_at_origin_grows_as_time_shrinks():
    # short time concentrates near angle zero
    assert CircleDensity(0.25)(0.0) > CircleDensity(1.0)(0.0) > CircleDensity(4.0)(0.0)


# -- positive-line law -----------------------------------------------------------


def test_line_density_zero_outside_support():
    solver = LineDensity(-1.0)
    sup = solver.support
    assert positive_density(sup.r_minus / 2.0, -1.0, solver=solver) == 0.0
    assert positive_density(sup.r_plus * 2.0, -1.0, solver=solver) == 0.0


def test_line_density_rejects_nonpositive_points():
    solver = LineDensity(-1.0)
    with pytest.raises(InvalidParameter):
        solver(-0.5)
    with pytest.raises(InvalidParameter):
        solver(0.0)


def test_line_root_residual_and_branch():
    solver = LineDensity(-1.0)
    z = solver.root(2.0)
    assert abs(solver._map(z) - 2.0) <= 1e-12
    assert z.imag > 0.0


@pytest.mark.parametrize("tau", [-0.5, -1.0, -2.0])
def test_line_density_nonnegative_on_grid(tau):
    solver = LineDensity(tau)
    sup = solver.support
    xs = np.exp(np.linspace(math.log(sup.r_minus), math.log(sup.r_plus), 65))
    for x in xs:
        assert positive_density(float(x), tau, solver=solver) >= 0.0


def test_line_moments_match_closed_form():
    tau = -1.0
    solver = LineDensity(tau)
    sup = solver.support

    for n in range(0, 7):
        def integrand(x, n=n):
            return x**n * solver(x)

        got = adaptive_simpson(integrand, sup.r_minus, sup.r_plus, tol=1e-9)
        want = nu_moment(n, tau)
        assert got == pytest.approx(want, abs=1e-5 * max(1.0, abs(want)))


def test_line_density_unimodal():
    solver = LineDensity(-1.0)
    sup = solver.support
    a = sup.r_minus * (1 + 1e-9)
    b = sup.r_plus * (1 - 1e-9)
    xs = np.exp(np.linspace(math.log(a), math.log(b), 1024))
    vals = np.array([solver(float(x)) for x in xs])
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-13])
    changes = np.count_nonzero(np.diff(signs))
    assert changes == 1


@pytest.mark.parametrize("tau", [-2.0, -5.0])
def test_line_root_meets_absolute_residual_at_large_x(tau):
    # r_+ is about 21 (tau = -2) and 196 (tau = -5), so the 1e-13 tolerance on
    # the log residual alone is too loose for an absolute 1e-12 residual
    solver = LineDensity(tau)
    sup = solver.support
    xs = np.exp(np.linspace(math.log(sup.r_minus), math.log(sup.r_plus), 402)[1:-1])
    for x in xs:
        z = solver.root(float(x))
        assert abs(solver._map(z) - x) <= 1e-12


def test_line_solver_mismatch_guard():
    with pytest.raises(InvalidParameter):
        positive_density(1.0, -2.0, solver=LineDensity(-1.0))


def test_line_mean_matches_closed_form():
    # mean of the positive-line law is e^{-tau/2}
    tau = -0.5
    solver = LineDensity(tau)
    sup = solver.support
    got = adaptive_simpson(lambda x: x * solver(x), sup.r_minus, sup.r_plus, tol=1e-9)
    assert got == pytest.approx(math.exp(0.25), abs=1e-6)


# -- quadrature ------------------------------------------------------------------


def test_simpson_polynomial_exact():
    got = adaptive_simpson(lambda x: x * x, 0.0, 1.0)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_simpson_sine():
    got = adaptive_simpson(math.sin, 0.0, math.pi)
    assert got == pytest.approx(2.0, abs=1e-8)


def test_simpson_square_root_edge():
    got = adaptive_simpson(math.sqrt, 0.0, 1.0, tol=1e-9)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-7)



def test_simpson_releases_integrand_without_garbage_collection():
    # a solver's root cache lives as long as the integrand that holds it
    class Integrand:
        def __call__(self, x):
            return x * x

    f = Integrand()
    alive = weakref.ref(f)
    gc.disable()
    try:
        assert adaptive_simpson(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        del f
        assert alive() is None
    finally:
        gc.enable()

def test_simpson_degenerate_interval():
    assert adaptive_simpson(math.sin, 1.3, 1.3) == 0.0


def test_simpson_reversed_interval_antisymmetry():
    fwd = adaptive_simpson(lambda x: x, 0.0, 1.0)
    rev = adaptive_simpson(lambda x: x, 1.0, 0.0)
    assert fwd == pytest.approx(-rev, abs=1e-12)
