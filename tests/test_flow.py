"""Generator flow: symbolic derivations, matrix exponentials, expectations, bounds."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from conftest import poly_strategy
from heatspec.errors import (
    ConditioningWarning,
    DegreeCapExceeded,
    InvalidParameter,
    PreconditionViolated,
)
from heatspec.flow import (
    GeneratorSpec,
    _sector,
    _sector_functional,
    apply_D10,
    apply_L10,
    apply_operator,
    build_generator,
    concentration_bound,
    expm,
    finite_N_covariance_unitary,
    finite_N_expectation,
    hp_basis,
    intertwined_laplacian,
    limit_expectation,
    numerical_laplacian,
    operator_l1_norm,
    refined_bound,
)
from heatspec.moments import nu_moment
from heatspec.simulate import haar_unitary
from heatspec.trace_poly import (
    TracePoly,
    l1_norm,
    mono_degree,
    mono_index_sum,
    trace_degree,
    v,
)


# -- first-order generator -------------------------------------------------------


def test_first_order_on_generators():
    assert apply_D10(v(1)) == 0.5 * v(1)
    assert apply_D10(v(2)) == v(2) + v(1) ** 2
    assert apply_D10(v(-2)) == v(-2) + v(-1) ** 2


def test_first_order_on_product_frozen():
    # degree term 2.5*v2*v3, splits of v2 and v3
    want = 2.5 * v(2) * v(3) + v(1) ** 2 * v(3) + 3 * v(1) * v(2) ** 2
    assert apply_D10(v(2) * v(3)) == want


def test_first_order_kills_constants():
    assert apply_D10(TracePoly.const(4.0)) == TracePoly.zero()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_first_order_is_a_derivation(p, q):
    lhs = apply_D10(p * q)
    rhs = apply_D10(p) * q + p * apply_D10(q)
    diff = lhs - rhs
    assert l1_norm(diff) <= 1e-9 * max(1.0, l1_norm(lhs) + l1_norm(rhs))


# -- second-order generator ------------------------------------------------------


def test_second_order_on_single_letters():
    assert apply_L10(v(1)) == TracePoly.zero()
    assert apply_L10(v(5)) == TracePoly.zero()


def test_second_order_pairings_frozen():
    assert apply_L10(v(1) * v(-1)) == TracePoly.const(-1.0)
    assert apply_L10(v(1) ** 2) == v(2)
    assert apply_L10(v(2) * v(3)) == 6 * v(5)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (-1, 3), (2, -3), (4, 4)])
def test_second_order_pair_pattern(n, m):
    if n == m:
        want = float(n * m) * v(n + m)
    elif n + m == 0:
        want = TracePoly.const(float(n * m))
    else:
        want = float(n * m) * v(n + m)
    assert apply_L10(v(n) * v(m)) == want


@given(poly_strategy())
@settings(max_examples=40, deadline=None)
def test_generators_conserve_index_sum_and_bound_degree(p):
    for mono, coeff in p.terms.items():
        single = TracePoly({mono: coeff})
        # first-order part preserves degree exactly
        for m in apply_D10(single).terms:
            assert mono_degree(m) == mono_degree(mono)
            assert mono_index_sum(m) == mono_index_sum(mono)
        # second-order part never raises degree (mixed-sign pairs contract)
        for m in apply_L10(single).terms:
            assert mono_degree(m) <= mono_degree(mono)
            assert mono_index_sum(m) == mono_index_sum(mono)


# -- basis and generator matrix --------------------------------------------------


def test_basis_low_degrees():
    assert hp_basis(0) == ((),)
    assert hp_basis(1) == ((), ((-1, 1),), ((1, 1),))
    assert len(hp_basis(2)) == 8


def test_basis_is_degree_sorted():
    degs = [mono_degree(m) for m in hp_basis(5)]
    assert degs == sorted(degs)


def test_generator_degree_one_is_diagonal():
    op = build_generator(GeneratorSpec(0.7, 0.25, 1))
    want = np.diag([0.0, 0.35, 0.35]).astype(complex)
    assert np.allclose(op.entries, want, atol=1e-15)


def test_generator_zero_rate():
    op = build_generator(GeneratorSpec(0.0, 0.5, 3))
    assert not op.entries.any()


def test_generator_mixed_column():
    # column of v1*v-1: rate on itself from the degree term, constant from pairing
    op = build_generator(GeneratorSpec(1.0, 0.25, 2))
    idx = {m: i for i, m in enumerate(op.basis)}
    j = idx[((-1, 1), (1, 1))]
    col = op.entries[:, j]
    assert col[idx[((-1, 1), (1, 1))]] == pytest.approx(1.0)
    assert col[idx[()]] == pytest.approx(-0.25)
    assert np.count_nonzero(col) == 2


def test_generator_never_raises_degree():
    op = build_generator(GeneratorSpec(0.9, 1.0, 4))
    degs = np.array([mono_degree(m) for m in op.basis])
    raising = op.entries[degs[:, None] > degs[None, :]]
    assert not raising.any()
    # with the second-order part switched off the blocks are exact
    d_only = build_generator(GeneratorSpec(0.9, 0.0, 4))
    off_block = d_only.entries[degs[:, None] != degs[None, :]]
    assert not off_block.any()


def test_generator_spec_validation():
    with pytest.raises(InvalidParameter):
        GeneratorSpec(1.0, -0.1, 3)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(1.0, 1.5, 3)
    with pytest.raises(InvalidParameter):
        GeneratorSpec(1.0, 0.5, -1)


def test_generator_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        build_generator(GeneratorSpec(1.0, 0.5, 13))


def test_generator_conditioning_warning():
    with pytest.warns(ConditioningWarning):
        build_generator(GeneratorSpec(1.0, 0.0, 12))


def test_operator_norm_bounds():
    for n in range(1, 7):
        d_only = build_generator(GeneratorSpec(1.0, 0.0, n))
        both = build_generator(GeneratorSpec(1.0, 1.0, n))
        assert operator_l1_norm(d_only) <= n * n / 2.0 + 1e-12
        l_norm = operator_l1_norm(
            type(both)(basis=both.basis, entries=both.entries - d_only.entries)
        )
        assert l_norm <= n * n / 2.0 + 1e-12


# -- matrix exponential ----------------------------------------------------------


def test_expm_of_zero_is_identity():
    op = build_generator(GeneratorSpec(0.0, 0.5, 2))
    assert np.allclose(expm(op).entries, np.eye(len(op.basis)), atol=1e-15)


def test_expm_matches_scipy():
    op = build_generator(GeneratorSpec(0.3, 0.25, 4))
    ours = expm(op).entries
    ref = scipy.linalg.expm(op.entries)
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_apply_operator_degree_guard():
    op = build_generator(GeneratorSpec(0.3, 0.25, 2))
    with pytest.raises(DegreeCapExceeded):
        apply_operator(op, v(3))


# -- heat-kernel expectations ----------------------------------------------------


def test_expectation_size_one_closed_form():
    for k in (1, 2, 3, 5):
        want = math.exp(-0.7 * k * k / 2.0)
        assert finite_N_expectation(v(k), 0.7, 1) == pytest.approx(want, abs=1e-15)


def test_expectation_first_trace_size_independent():
    for N in (1, 2, 7, 100):
        got = finite_N_expectation(v(1), 0.9, N)
        assert got == pytest.approx(math.exp(-0.45), abs=1e-12)


def test_expectation_of_constant():
    assert finite_N_expectation(TracePoly.one(), 1.3, 4) == pytest.approx(1.0, abs=1e-12)
    assert finite_N_expectation(TracePoly.zero(), 1.3, 4) == 0.0


def test_expectation_at_zero_time():
    p = 2 * v(2) * v(-1) + v(3)
    # flow at u = 0 is the identity; expectation is evaluation at 1
    assert finite_N_expectation(p, 0.0, 5) == pytest.approx(3.0, abs=1e-12)


def test_expectation_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        finite_N_expectation(v(13), 1.0, 4)


def test_expectation_invalid_size():
    with pytest.raises(InvalidParameter):
        finite_N_expectation(v(1), 1.0, 0)


def test_expectation_size_one_matches_matrix_route():
    # closed form vs dense exponential of the full generator at N = 1
    u = 0.3
    for p in (v(2), v(1) * v(-1), v(2) * v(2), v(3) + 2 * v(1) ** 2, v(-4)):
        n = trace_degree(p)
        op = expm(build_generator(GeneratorSpec(-u, 1.0, n)))
        from heatspec.trace_poly import eval_at_one

        want = eval_at_one(apply_operator(op, p))
        got = finite_N_expectation(p, u, 1)
        assert got == pytest.approx(want, abs=1e-9)


def test_expectation_matches_dense_exponential_route():
    # sector functionals vs one dense expm, N = 3
    u, N = 0.4, 3
    from heatspec.trace_poly import eval_at_one

    for p in (v(2), v(1) * v(-1), v(2) * v(-2), v(4)):
        n = trace_degree(p)
        op = expm(build_generator(GeneratorSpec(-u, 1.0 / (N * N), n)))
        want = eval_at_one(apply_operator(op, p))
        got = finite_N_expectation(p, u, N)
        assert got == pytest.approx(want, abs=1e-10)


def test_expectation_warns_where_flow_is_ill_conditioned():
    # (|u|/2) n^2 = 25 > 20 at degree 10, u = 0.5
    with pytest.warns(ConditioningWarning):
        finite_N_expectation(v(5) * v(-5), 0.5, 4)


def _sector_block(u, inv_N_sq, n, sigma):
    """u (D + inv_N_sq L) on one sector, assembled from the symbolic derivations."""
    basis = [m for m in hp_basis(n) if mono_index_sum(m) == sigma]
    index = {m: i for i, m in enumerate(basis)}
    block = np.zeros((len(basis), len(basis)))
    for j, m in enumerate(basis):
        image = apply_D10(TracePoly({m: 1.0})) + inv_N_sq * apply_L10(TracePoly({m: 1.0}))
        for mm, c in image.terms.items():
            block[index[mm], j] = u * c.real
    return basis, block


@pytest.mark.parametrize("u", [0.25, -0.25])
def test_sector_functional_matches_high_precision_exponential(u):
    # degree 12, where (|u|/2) n^2 = 18 sits just inside the unwarned range;
    # sigma = 11 is a 56-monomial sector
    n, sigma, inv_N_sq = 12, 11, 1.0 / 64
    basis, block = _sector_block(u, inv_N_sq, n, sigma)
    assert _sector(n, sigma).basis == tuple(basis)
    with mpmath.workdps(40):
        E = mpmath.expm(-mpmath.matrix(block.tolist()))
        want = np.array([float(mpmath.fsum(E[i, j] for i in range(E.rows))) for j in range(E.cols)])
    got = _sector_functional(u, inv_N_sq, n, sigma)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("u", [0.6, -0.4, -1.1])
def test_sector_functionals_match_dense_exponential(u):
    # every sector of the degree-6 basis against one exponential of the whole generator
    n, N = 6, 3
    op = build_generator(GeneratorSpec(u, 1.0 / (N * N), n))
    dense = np.ones(len(op.basis)) @ scipy.linalg.expm(-op.entries)
    position = {m: i for i, m in enumerate(op.basis)}
    for sigma in range(-n, n + 1):
        sec = _sector(n, sigma)
        want = dense[[position[m] for m in sec.basis]]
        got = _sector_functional(u, 1.0 / (N * N), n, sigma)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_expectation_uses_lower_degree_sector_blocks():
    # a monomial's value does not depend on the degree of the sector it is read from
    u, N = 0.7, 4
    p = 2.0 * v(2) * v(-1) + v(1)
    q = p + 1e-3 * v(3) * v(-3) * v(1)  # adds a degree-7 monomial to the sigma = 1 sector
    wq = finite_N_expectation(1e-3 * v(3) * v(-3) * v(1), u, N)
    assert finite_N_expectation(q, u, N) - wq == pytest.approx(finite_N_expectation(p, u, N), abs=1e-13)


def test_limit_expectation_is_moment():
    for n in (1, 2, 4):
        for t in (0.3, 1.0, 2.0):
            assert limit_expectation(v(n), t) == pytest.approx(nu_moment(n, t), abs=1e-14)


def test_limit_expectation_mixed_monomial():
    t = 0.8
    got = limit_expectation(v(1) * v(-1), t)
    assert got == pytest.approx(math.exp(-t), abs=1e-14)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_limit_expectation_is_homomorphism(p, q):
    t = 0.6
    lhs = limit_expectation(p * q, t)
    rhs = limit_expectation(p, t) * limit_expectation(q, t)
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, l1_norm(p) * l1_norm(q)))


# -- covariance ------------------------------------------------------------------


def test_covariance_first_trace_exact():
    for N in (2, 3, 5):
        for t in (0.5, 1.0):
            got = finite_N_covariance_unitary(v(1), v(1), t, N)
            want = (1.0 - math.exp(-t)) / (N * N)
            assert got.real == pytest.approx(want, abs=1e-10)
            assert abs(got.imag) < 1e-12


def test_covariance_with_constant_vanishes():
    got = finite_N_covariance_unitary(TracePoly.one(), v(2), 0.7, 3)
    assert abs(got) < 1e-12


def test_covariance_at_zero_time():
    got = finite_N_covariance_unitary(v(2), v(2), 0.0, 3)
    assert abs(got) < 1e-12


@pytest.mark.parametrize("p", [v(1), v(2), v(1) * v(1), v(2) + 2 * v(-1), v(3)])
def test_variance_nonnegative_and_real(p):
    var = finite_N_covariance_unitary(p, p, 0.9, 3)
    assert var.real >= -1e-12
    assert abs(var.imag) < 1e-12


# -- deviation bounds ------------------------------------------------------------


def test_concentration_bound_formula_example():
    # degree 2, r = 1, l1 = 1: (1/N^2) * 2 * e^{2 * (1 + 1/N^2)}
    got = concentration_bound(v(2), 1.0, 0.0, 2)
    want = 0.25 * 2.0 * math.exp(2.0 * 1.25)
    assert got == pytest.approx(want, abs=1e-12)


def test_concentration_bound_invalid_size():
    with pytest.raises(InvalidParameter):
        concentration_bound(v(1), 1.0, 0.0, 0)


@given(poly_strategy(max_index=2, max_exp=2, max_terms=2))
@settings(max_examples=25, deadline=None)
def test_concentration_inequality_holds(p):
    for N in (2, 5):
        t = 0.5
        gap = abs(finite_N_expectation(p, t, N) - limit_expectation(p, t))
        assert gap <= concentration_bound(p, t, 0.0, N) + 1e-12


def test_refined_bound_precondition():
    with pytest.raises(PreconditionViolated):
        refined_bound(v(1), 1.0, 0.0, 0.5, 2)
    with pytest.raises(InvalidParameter):
        refined_bound(v(1), 1.0, 0.0, 0.0, 5)


def test_refined_bound_inequality_spot():
    p = v(2) + v(1)
    t, delta, N = 0.6, 0.5, 3  # sqrt(2/0.5) = 2 < 3
    gap = abs(finite_N_expectation(p, t, N) - limit_expectation(p, t))
    assert gap <= refined_bound(p, t, 0.0, delta, N) + 1e-12


def test_bounds_decay_quadratically_in_size():
    b2 = concentration_bound(v(2), 1.0, 0.0, 2)
    b4 = concentration_bound(v(2), 1.0, 0.0, 4)
    # same exponential factor up to the 1/N^2 in the exponent; ratio close to 4
    assert b2 / b4 == pytest.approx(4.0, rel=0.5)


# -- intertwining spot check -----------------------------------------------------


def test_intertwining_matches_finite_differences(rng):
    U = haar_unitary(3, rng)
    p = v(2) * v(3)
    fd = numerical_laplacian(p, U, h=1e-3)
    op = intertwined_laplacian(p, U)
    assert abs(fd - op) <= 1e-4 * max(1.0, abs(op))


def test_numerical_laplacian_step_guard(rng):
    U = haar_unitary(2, rng)
    with pytest.raises(InvalidParameter):
        numerical_laplacian(v(1), U, h=0.0)
