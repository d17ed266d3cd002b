"""Monte-Carlo samplers, spectra, test-function machinery, and variance bounds.

Statistical assertions use fixed seeds, so each one is a deterministic
regression check; bands were calibrated to sit within about one standard error
and are asserted at three to four.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import heatspec.simulate as sim
from heatspec.errors import (
    ConditioningWarning,
    EigFailure,
    IllConditioned,
    InvalidConfig,
    InvalidParameter,
    PrecisionWarning,
    RegimeViolation,
    SingularMatrix,
    ZeroSpectrumValue,
)
from heatspec.flow import finite_N_covariance_unitary, finite_N_expectation
from heatspec.simulate import (
    CIRCLE_EIG,
    COMPLEX_EIG,
    GENERAL_LINEAR,
    POSITIVE_EIG,
    UNITARY,
    EnsembleConfig,
    TestFunction,
    empirical_integral,
    extract_spectrum,
    haar_unitary,
    lp_norm_trace,
    mc_experiment,
    path_rng,
    sample_gl_heat,
    sample_gue,
    sample_matrix,
    sample_unitary_heat,
    test_function_norms,
    unitarity_drift,
    variance_bound_rhs,
)
from heatspec.trace_poly import TracePoly, WordPoly, eval_on_matrix, v


# -- configuration ---------------------------------------------------------------


def test_config_rejects_unknown_group():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group="orthogonal", N=3, t=1.0)


def test_config_rejects_bad_sizes():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group=UNITARY, N=0, t=1.0)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group=UNITARY, N=3, t=1.0, paths=0)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group=UNITARY, N=3, t=1.0, steps=0)


def test_config_unitary_regime():
    with pytest.raises(RegimeViolation):
        EnsembleConfig(group=UNITARY, N=3, t=-0.5)
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group=UNITARY, N=3, t=1.0, s=2.0)


def test_config_general_linear_regime():
    with pytest.raises(InvalidConfig):
        EnsembleConfig(group=GENERAL_LINEAR, N=3, t=1.0)  # missing s
    with pytest.raises(RegimeViolation):
        EnsembleConfig(group=GENERAL_LINEAR, N=3, t=1.0, s=0.5)  # s <= t/2
    with pytest.raises(RegimeViolation):
        EnsembleConfig(group=GENERAL_LINEAR, N=3, t=0.0, s=1.0)  # t must be > 0
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=3, t=1.0, s=0.50001)
    assert cfg.s > cfg.t / 2


def test_step_defaults_scale_with_heat_time():
    assert EnsembleConfig(group=UNITARY, N=2, t=0.37).steps == 37
    assert EnsembleConfig(group=UNITARY, N=2, t=0.001).steps == 1
    assert EnsembleConfig(group=GENERAL_LINEAR, N=2, t=0.5, s=2.5).steps == 250
    assert EnsembleConfig(group=UNITARY, N=2, t=1.0, steps=7).steps == 7


# -- randomness plumbing ---------------------------------------------------------


def test_path_rng_is_reproducible():
    a = path_rng(42, 3).standard_normal(8)
    b = path_rng(42, 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_path_rng_streams_are_distinct():
    base = path_rng(42, 3).standard_normal(8)
    assert not np.array_equal(base, path_rng(42, 4).standard_normal(8))
    assert not np.array_equal(base, path_rng(43, 3).standard_normal(8))
    assert not np.array_equal(base, path_rng(42, 3, stream=1).standard_normal(8))


def test_path_rng_rejects_negative_path():
    with pytest.raises(InvalidParameter):
        path_rng(1, -1)


# -- Gaussian Hermitian draws ------------------------------------------------------


def test_gue_is_exactly_hermitian():
    H = sample_gue(6, np.random.default_rng(0))
    assert np.array_equal(H, H.conj().T)


def test_gue_size_one_is_real():
    H = sample_gue(1, np.random.default_rng(0))
    assert H.shape == (1, 1)
    assert H.imag == 0.0


def test_gue_second_moment_normalization():
    # E[(1/N) Tr H^2] = 1 exactly under the 1/N entry-variance convention
    rng = np.random.default_rng(1234)
    xs = []
    for _ in range(2000):
        H = sample_gue(5, rng)
        xs.append(float(np.trace(H @ H).real) / 5)
    mean = float(np.mean(xs))
    se = float(np.std(xs, ddof=1)) / math.sqrt(len(xs))
    assert abs(mean - 1.0) <= 4.0 * se


def test_gue_rejects_bad_size():
    with pytest.raises(InvalidParameter):
        sample_gue(0, np.random.default_rng(0))


# -- unitary sampler ---------------------------------------------------------------


def test_unitary_zero_time_is_identity():
    cfg = EnsembleConfig(group=UNITARY, N=4, t=0.0, steps=5)
    U = sample_unitary_heat(cfg, 0)
    assert np.array_equal(U, np.eye(4, dtype=complex))


def test_unitary_sampler_is_deterministic():
    cfg = EnsembleConfig(group=UNITARY, N=4, t=1.0, seed=9)
    assert np.array_equal(sample_unitary_heat(cfg, 5), sample_unitary_heat(cfg, 5))
    assert not np.array_equal(sample_unitary_heat(cfg, 5), sample_unitary_heat(cfg, 6))


def test_unitary_sampler_stays_unitary():
    cfg = EnsembleConfig(group=UNITARY, N=6, t=2.0, seed=1)
    for j in range(3):
        assert unitarity_drift(sample_unitary_heat(cfg, j)) <= 1e-10


def test_unitary_sampler_group_guard():
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=3, t=0.5, s=1.0)
    with pytest.raises(InvalidConfig):
        sample_unitary_heat(cfg, 0)


def test_unitary_size_one_mean():
    # at N = 1 the scheme telescopes to a single exact exponential
    cfg = EnsembleConfig(group=UNITARY, N=1, t=0.8, paths=3000, seed=11)
    summary = mc_experiment(cfg, [v(1)])
    want = math.exp(-0.4)
    assert abs(summary.means[0].real - want) <= 3.0 * summary.stderrs[0]
    assert abs(summary.means[0].imag) <= 3.0 * summary.stderrs[0]


def _expi_by_eigh(H, c):
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(1j * c * lam)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


@pytest.mark.parametrize(
    "N, c",
    [(1, 0.5), (1, 5.0), (32, math.sqrt(1.0 / 200.0)), (4, 3.0)],
)
def test_taylor_exponential_matches_eigendecomposition(N, c):
    H = sim._hermitize(np.random.default_rng(N).standard_normal((16, 2, N, N)), N)
    if c >= 1.0:  # spectral radius of cH far above 0.15: scaling and squaring run
        assert c * np.max(np.abs(np.linalg.eigvalsh(H))) > 0.6
    got = sim._expm_taylor(1j * c * H)
    assert np.max(np.abs(got - _expi_by_eigh(H, c))) <= 1e-13


@pytest.mark.parametrize("c", [0.05, 0.5, 3.0])
def test_taylor_exponential_matches_scipy_on_non_normal_stacks(c):
    # general-linear increments i c H + c H' are not normal; at c = 0.5 and 3
    # the bound exceeds 0.15 and scaling and squaring run
    H = sim._hermitize(np.random.default_rng(7).standard_normal((8, 2, 2, 6, 6)), 6)
    X = 1j * c * H[:, 0] + c * H[:, 1]
    got = sim._expm_taylor(X)
    for k in range(len(X)):
        want = scipy.linalg.expm(X[k])
        assert np.max(np.abs(got[k] - want)) <= 1e-13 * np.max(np.abs(want))


def test_unitary_sampler_matches_per_step_reference():
    # 37 steps: two full re-unitarization blocks and a partial one
    cfg = EnsembleConfig(group=UNITARY, N=5, t=0.9, steps=37, seed=4)
    root = math.sqrt(cfg.t / cfg.steps)
    for j in (0, 3):
        rng = path_rng(cfg.seed, j)
        U = np.eye(cfg.N, dtype=complex)
        for step in range(cfg.steps):
            U = U @ _expi_by_eigh(sample_gue(cfg.N, rng), root)
            if (step + 1) % 16 == 0:
                U = sim._polar_unitary(U)
        U = sim._polar_unitary(U)
        assert np.max(np.abs(sample_unitary_heat(cfg, j) - U)) <= 1e-12


# -- general-linear sampler --------------------------------------------------------


def _gl_by_expm(cfg, path_index, stream=0):
    # per-step reference: two GUE draws and one scipy.linalg.expm per step
    dt = 1.0 / cfg.steps
    c_rot = math.sqrt(dt * (cfg.s - cfg.t / 2.0))
    c_str = math.sqrt(dt * cfg.t / 2.0)
    rng = path_rng(cfg.seed, path_index, stream=stream)
    Z = np.eye(cfg.N, dtype=complex)
    for _ in range(cfg.steps):
        H = sample_gue(cfg.N, rng)
        H2 = sample_gue(cfg.N, rng)
        Z = Z @ scipy.linalg.expm(1j * c_rot * H + c_str * H2)
    return Z


def test_gl_sampler_matches_per_step_reference():
    # 37 steps: two full blocks and a partial one
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=5, t=0.5, s=1.0, steps=37, seed=4)
    for j in (0, 3):
        Z = _gl_by_expm(cfg, j)
        assert np.max(np.abs(sample_gl_heat(cfg, j) - Z)) <= 1e-12 * np.max(np.abs(Z))


def test_gl_resample_warns_and_uses_next_stream(monkeypatch):
    # the first condition check (stream 0, first block) fails; the rest pass
    real = sim._cond_1norm
    calls = []

    def fake(Z):
        calls.append(1)
        return math.inf if len(calls) == 1 else real(Z)

    monkeypatch.setattr(sim, "_cond_1norm", fake)
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=4, t=0.5, s=1.0, steps=20, seed=6)
    with pytest.warns(ConditioningWarning) as record:
        Z = sample_gl_heat(cfg, 2)
    assert len(record) == 1
    message = str(record[0].message)
    assert "path 2" in message and "stream 0" in message and "inf" in message
    want = _gl_by_expm(cfg, 2, stream=1)
    assert np.max(np.abs(Z - want)) <= 1e-12 * np.max(np.abs(want))


def test_gl_sampler_is_deterministic():
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=3, t=0.5, s=1.0, steps=20, seed=2)
    assert np.array_equal(sample_gl_heat(cfg, 4), sample_gl_heat(cfg, 4))
    assert not np.array_equal(sample_gl_heat(cfg, 4), sample_gl_heat(cfg, 5))


def test_gl_sampler_group_guard():
    cfg = EnsembleConfig(group=UNITARY, N=3, t=0.5)
    with pytest.raises(InvalidConfig):
        sample_gl_heat(cfg, 0)


def test_gl_ill_conditioned_after_retries(monkeypatch):
    monkeypatch.setattr(sim, "_CONDITION_CAP", 0.5)  # below cond(anything) = 1
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=2, t=0.5, s=1.0, steps=3, seed=0)
    with pytest.warns(ConditioningWarning) as record, pytest.raises(IllConditioned):
        sample_gl_heat(cfg, 0)
    assert len(record) == 3  # one per resample


def test_gl_mean_trace_and_stretch_moment():
    # E[tr Z] = e^{-(s-t)/2} and E[tr ZZ*] = e^t, for two different s at one t
    t = 0.5
    stats = {}
    for s_val in (0.6, 1.5):
        cfg = EnsembleConfig(
            group=GENERAL_LINEAR, N=8, t=t, s=s_val, steps=150, paths=400, seed=3
        )
        summary = mc_experiment(cfg, [v(1), TestFunction.chi(1)])
        want_z = math.exp(-(s_val - t) / 2.0)
        assert abs(summary.means[0].real - want_z) <= 3.5 * summary.stderrs[0]
        want_w = math.exp(t)
        assert abs(summary.means[1].real - want_w) <= 3.5 * summary.stderrs[1]
        stats[s_val] = (summary.means[1].real, summary.stderrs[1])
    # the squared-stretch mean is s-independent: the two runs must agree
    (m1, e1), (m2, e2) = stats[0.6], stats[1.5]
    assert abs(m1 - m2) <= 3.5 * math.hypot(e1, e2)


def test_sample_matrix_dispatch():
    ucfg = EnsembleConfig(group=UNITARY, N=3, t=0.4, seed=5)
    assert np.array_equal(sample_matrix(ucfg, 2), sample_unitary_heat(ucfg, 2))
    gcfg = EnsembleConfig(group=GENERAL_LINEAR, N=3, t=0.4, s=0.9, steps=30, seed=5)
    assert np.array_equal(sample_matrix(gcfg, 2), sample_gl_heat(gcfg, 2))


# -- discretization bias order -----------------------------------------------------


def test_weak_error_is_first_order_in_step_size():
    """Couple coarse chains to a fine chain through the same Brownian increments.

    With common randomness the difference of means at two step counts isolates
    the discretization bias, whose leading term for the normalized trace is
    -(t^2/24) e^{-t/2} per step of size t/L.  Both coarse levels must match
    that prediction, which a scheme of any other weak order cannot do.
    """
    N, t, fine, paths, seed = 8, 1.5, 200, 1200, 0
    levels = [5, 10]

    def product_unitary(H_stack, dt):
        root = math.sqrt(dt)
        lam, V = np.linalg.eigh(H_stack)
        incr = (V * np.exp(1j * root * lam)[:, None, :]) @ np.conj(
            np.swapaxes(V, -1, -2)
        )
        U = np.eye(N, dtype=complex)
        for j in range(H_stack.shape[0]):
            U = U @ incr[j]
        return U

    sums = {L: 0.0 + 0.0j for L in levels}
    sqs = {L: 0.0 for L in levels}
    for j in range(paths):
        rng = path_rng(seed, j)
        G = sim._hermitize(rng.standard_normal((fine, 2, N, N)), N)
        f_fine = np.trace(product_unitary(G, t / fine)) / N
        for L in levels:
            m = fine // L
            coarse = G.reshape(L, m, N, N).sum(axis=1) / math.sqrt(m)
            f_L = np.trace(product_unitary(coarse, t / L)) / N
            d = f_L - f_fine
            sums[L] += d
            sqs[L] += abs(d) ** 2

    ds, ses = {}, {}
    for L in levels:
        mean_d = sums[L] / paths
        var_d = sqs[L] / paths - abs(mean_d) ** 2
        ds[L] = mean_d.real
        ses[L] = math.sqrt(var_d / paths)
        predicted = -(t * t / 24.0) * math.exp(-t / 2.0) * (1.0 / L - 1.0 / fine)
        assert abs(ds[L] - predicted) <= 4.0 * ses[L]
    # bias shrinks with refinement and keeps its sign
    assert ds[5] < ds[10] < 0.0


# -- spectra -----------------------------------------------------------------------


def test_spectrum_of_identity():
    s = extract_spectrum(np.eye(4), CIRCLE_EIG)
    assert np.allclose(s.values, 1.0)
    assert s.kind == CIRCLE_EIG
    p = extract_spectrum(np.eye(4), POSITIVE_EIG)
    assert np.allclose(p.values, 1.0)
    assert p.values.dtype == float


def test_spectrum_trace_identity_on_unitary():
    cfg = EnsembleConfig(group=UNITARY, N=6, t=1.0, seed=4)
    U = sample_unitary_heat(cfg, 0)
    s = extract_spectrum(U, CIRCLE_EIG)
    for k in range(1, 5):
        lhs = complex(np.mean(s.values**k))
        rhs = eval_on_matrix(v(k), U)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_positive_spectrum_of_unitary_is_trivial():
    cfg = EnsembleConfig(group=UNITARY, N=5, t=0.7, seed=8)
    U = sample_unitary_heat(cfg, 1)
    s = extract_spectrum(U, POSITIVE_EIG)
    assert np.allclose(s.values, 1.0, atol=1e-10)


def test_circle_spectrum_rejects_nonunitary():
    with pytest.raises(EigFailure):
        extract_spectrum(np.diag([2.0, 0.5]), CIRCLE_EIG)


def test_positive_spectrum_rejects_singular():
    with pytest.raises(EigFailure):
        extract_spectrum(np.diag([1.0, 0.0]), POSITIVE_EIG)


def test_positive_spectrum_keeps_small_singular_values(rng):
    # 1-norm condition about 1e10, inside the general-linear sampler's 1e12 cap;
    # eigenvalues of Z Z* would square it and lose the smallest values
    N = 16
    sv = np.geomspace(1.0, 10.0**-9.5, N)
    Z = (haar_unitary(N, rng) * sv) @ haar_unitary(N, rng).conj().T
    assert np.linalg.cond(Z, 1) > 5e9
    got = extract_spectrum(Z, POSITIVE_EIG).values
    want = np.sort(sv**2)
    assert np.max(np.abs(got - want) / want) <= 1e-6


def test_spectrum_unknown_kind():
    with pytest.raises(InvalidParameter):
        extract_spectrum(np.eye(2), "radial")


def test_complex_spectrum_matches_trace():
    cfg = EnsembleConfig(group=GENERAL_LINEAR, N=5, t=0.5, s=1.0, steps=40, seed=6)
    Z = sample_gl_heat(cfg, 0)
    s = extract_spectrum(Z, COMPLEX_EIG)
    assert complex(np.mean(s.values)) == pytest.approx(
        eval_on_matrix(v(1), Z), abs=1e-8
    )


# -- test functions and their norms ------------------------------------------------


def test_function_from_dict_drops_zeros_and_sorts():
    f = TestFunction.from_dict({2: 0.0, -1: 1j, 3: 2.0})
    assert f.coeffs == ((-1, 1j), (3, 2.0 + 0.0j))


def test_function_evaluation():
    f = TestFunction.from_dict({1: 1.0, -1: 1.0})
    w = complex(math.cos(0.4), math.sin(0.4))
    assert f(w) == pytest.approx(2.0 * math.cos(0.4), abs=1e-12)


def test_function_zero_value_guard():
    f = TestFunction.chi(-2)
    with pytest.raises(ZeroSpectrumValue):
        f(0.0)


def test_norms_of_single_mode():
    norms = test_function_norms(TestFunction.chi(3), p=1.25, sigma=0.1)
    assert norms.h_p == pytest.approx(10.0**1.25 / 10.0**0.625, abs=1e-12)  # (1+9)^{p/2}
    assert norms.gevrey == pytest.approx(math.exp(0.1 * 9.0), abs=1e-12)
    assert norms.lip == 3.0


def test_norms_of_zero_function():
    zero = TestFunction.from_dict({})
    norms = test_function_norms(zero, p=1.25, sigma=1.0)
    assert norms == (0.0, 0.0, 0.0)


def test_lip_bound_dominates_grid_derivative():
    f = TestFunction.from_dict({1: 1.0, 2: 1.0})
    norms = test_function_norms(f, p=1.25, sigma=0.1)
    assert norms.lip == 3.0
    thetas = np.linspace(-math.pi, math.pi, 4096)
    # |d/dθ f(e^{iθ})| = |1 + 2 e^{iθ}|
    sup = float(np.max(np.abs(1.0 + 2.0 * np.exp(1j * thetas))))
    assert norms.lip >= sup - 1e-6


def test_gevrey_norm_overflow_is_infinite_with_warning():
    f = TestFunction.chi(30)
    with pytest.warns(PrecisionWarning):
        norms = test_function_norms(f, p=1.25, sigma=10.0)
    assert math.isinf(norms.gevrey)
    # each weight e^{709.5} ~ 1.35e308 is finite; their sum is not
    f = TestFunction.from_dict({-1: 1.0, 1: 1.0})
    assert math.isfinite(math.exp(709.5))
    with pytest.warns(PrecisionWarning):
        norms = test_function_norms(f, p=1.25, sigma=709.5 / 2.0)
    assert math.isinf(norms.gevrey)


def test_empirical_integral_averages_laurent_series():
    s = extract_spectrum(np.diag([1.0, 1j]), CIRCLE_EIG)
    f = TestFunction.from_dict({1: 1.0, -1: 2.0})
    want = ((1 + 1j) + (2.0 / 1.0 + 2.0 / 1j)) / 2.0
    assert empirical_integral(s, f) == pytest.approx(want, abs=1e-12)


def test_empirical_integral_zero_spectrum_guard():
    sample = sim.SpectralSample(values=np.array([0.0, 1.0]), kind=POSITIVE_EIG)
    with pytest.raises(ZeroSpectrumValue):
        empirical_integral(sample, TestFunction.chi(-1))


# -- variance-bound right-hand sides ----------------------------------------------


def test_rhs_lipschitz_closed_form():
    got = variance_bound_rhs(TestFunction.chi(1), 0.5, 8, sim.LIPSCHITZ)
    assert got == pytest.approx(2.0 * 0.5 / 64.0, abs=1e-15)
    # quadratic in the Lipschitz bound
    got3 = variance_bound_rhs(TestFunction.from_dict({1: 3.0}), 0.5, 8, sim.LIPSCHITZ)
    assert got3 == pytest.approx(9.0 * got, abs=1e-12)


def test_rhs_gevrey_frozen_values():
    got = variance_bound_rhs(
        TestFunction.chi(1), 0.5, 10, sim.GEVREY, sigma=1.0, s_param=0.25
    )
    assert got == pytest.approx(0.2657862142485559, abs=1e-12)
    got_pos = variance_bound_rhs(
        TestFunction.chi(1), 0.5, 10, sim.GEVREY_POSITIVE, sigma=3.0, s_param=0.25
    )
    assert got_pos == pytest.approx(26.24961194540101, abs=1e-10)


def test_rhs_scales_inverse_square():
    f = TestFunction.chi(2)
    r4 = variance_bound_rhs(f, 1.0, 4, sim.LIPSCHITZ)
    r8 = variance_bound_rhs(f, 1.0, 8, sim.LIPSCHITZ)
    assert r4 / r8 == pytest.approx(4.0, abs=1e-12)
    g4 = variance_bound_rhs(f, 1.0, 4, sim.GEVREY, sigma=1.0, s_param=0.25)
    g8 = variance_bound_rhs(f, 1.0, 8, sim.GEVREY, sigma=1.0, s_param=0.25)
    assert g4 / g8 == pytest.approx(4.0, abs=1e-12)


def test_rhs_sobolev_diverges_at_upper_exponent():
    f = TestFunction.chi(1)
    near = variance_bound_rhs(f, 0.5, 8, sim.SOBOLEV, p=1.499)
    mid = variance_bound_rhs(f, 0.5, 8, sim.SOBOLEV, p=1.25)
    assert near > 10.0 * mid


def test_rhs_regime_guards():
    f = TestFunction.chi(1)
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, 1.0, 8, "analytic")
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, -1.0, 8, sim.LIPSCHITZ)
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, 1.0, 8, sim.SOBOLEV, p=1.5)
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, 1.0, 8, sim.SOBOLEV)
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, 1.0, 8, sim.GEVREY, sigma=0.2, s_param=0.25)
    with pytest.raises(RegimeViolation):
        variance_bound_rhs(f, 1.0, 1, sim.GEVREY, sigma=1.0, s_param=0.25)
    with pytest.raises(InvalidParameter):
        variance_bound_rhs(f, 1.0, 0, sim.LIPSCHITZ)


def test_empirical_variance_below_bounds_unitary():
    cfg = EnsembleConfig(group=UNITARY, N=8, t=0.5, paths=200, seed=21)
    f = TestFunction.chi(1)
    summary = mc_experiment(cfg, [f])
    var = summary.variances[0]
    assert var <= variance_bound_rhs(f, 0.5, 8, sim.LIPSCHITZ)
    assert var <= variance_bound_rhs(f, 0.5, 8, sim.SOBOLEV, p=1.25)


def test_empirical_variance_below_bound_general_linear():
    cfg = EnsembleConfig(
        group=GENERAL_LINEAR, N=8, t=0.3, s=0.25, steps=50, paths=200, seed=5
    )
    f = TestFunction.chi(1)
    summary = mc_experiment(cfg, [f])
    rhs = variance_bound_rhs(f, 0.3, 8, sim.GEVREY_POSITIVE, sigma=3.0, s_param=0.25)
    assert summary.variances[0] <= rhs


# -- experiment harness ------------------------------------------------------------


def test_mc_summary_is_bit_reproducible():
    cfg = EnsembleConfig(group=UNITARY, N=3, t=0.5, paths=40, seed=13)
    a = mc_experiment(cfg, [v(1), TestFunction.chi(2)])
    b = mc_experiment(cfg, [v(1), TestFunction.chi(2)])
    assert a.means == b.means
    assert a.variances == b.variances
    assert a.paths == 40


def test_mc_mean_matches_exact_flow():
    cfg = EnsembleConfig(group=UNITARY, N=4, t=0.6, paths=400, seed=7)
    summary = mc_experiment(cfg, [v(2), TestFunction.chi(2), v(1)])
    want2 = finite_N_expectation(v(2), 0.6, 4).real
    want1 = finite_N_expectation(v(1), 0.6, 4).real
    assert abs(summary.means[0].real - want2) <= 3.5 * summary.stderrs[0]
    assert abs(summary.means[2].real - want1) <= 3.5 * summary.stderrs[2]
    # trace polynomial route and spectral route compute the same functional
    assert summary.means[0] == pytest.approx(summary.means[1], abs=1e-10)


def test_mc_empirical_variance_matches_exact_covariance():
    cfg = EnsembleConfig(group=UNITARY, N=4, t=0.6, paths=400, seed=7)
    summary = mc_experiment(cfg, [v(1)])
    exact = finite_N_covariance_unitary(v(1), v(1), 0.6, 4).real
    assert summary.variances[0] == pytest.approx(exact, rel=0.35)


def test_mc_validates_inputs():
    cfg = EnsembleConfig(group=UNITARY, N=3, t=0.5, paths=5)
    with pytest.raises(InvalidConfig):
        mc_experiment(cfg, [])
    with pytest.raises(InvalidParameter):
        mc_experiment(cfg, ["v1"])
    with pytest.raises(InvalidConfig):
        mc_experiment(cfg, [v(1)], names=["a", "b"])


def test_mc_default_names():
    cfg = EnsembleConfig(group=UNITARY, N=2, t=0.3, paths=3, seed=1)
    summary = mc_experiment(cfg, [v(1), TestFunction.chi(1)])
    assert len(summary.names) == 2
    assert summary.names[0] != summary.names[1]


def test_mc_spectrum_dump_sees_every_path():
    cfg = EnsembleConfig(group=UNITARY, N=5, t=0.5, paths=7, seed=3)
    seen = {}
    mc_experiment(cfg, [v(1)], spectrum_dump=lambda j, vals: seen.__setitem__(j, vals))
    assert sorted(seen) == list(range(7))
    for vals in seen.values():
        assert vals.shape == (5,)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-8)


def test_mc_spectrum_dump_kind_override():
    cfg = EnsembleConfig(
        group=GENERAL_LINEAR, N=4, t=0.4, s=0.5, steps=40, paths=3, seed=3
    )
    kinds = []
    mc_experiment(
        cfg,
        [v(1)],
        spectrum_dump=lambda j, vals: kinds.append(vals),
        dump_kind=POSITIVE_EIG,
    )
    for vals in kinds:
        assert vals.dtype == float
        assert np.all(vals > 0.0)


def _serial_experiment(cfg, obs):
    """The harness written as one serial loop: summary fields and dumps."""
    tf_kind = CIRCLE_EIG if cfg.group == UNITARY else POSITIVE_EIG
    dump_kind = CIRCLE_EIG if cfg.group == UNITARY else COMPLEX_EIG
    count, dumps = 0, []
    means = np.zeros(len(obs), dtype=complex)
    m2 = np.zeros(len(obs))
    for j in range(cfg.paths):
        Z = sample_matrix(cfg, j)
        spectrum = extract_spectrum(Z, tf_kind)
        dumps.append((j, extract_spectrum(Z, dump_kind).values))
        count += 1
        for i, o in enumerate(obs):
            x = eval_on_matrix(o, Z) if isinstance(o, TracePoly) else empirical_integral(spectrum, o)
            delta = x - means[i]
            means[i] += delta / count
            m2[i] += (np.conj(delta) * (x - means[i])).real
    variances = tuple(float(m / (count - 1)) if count > 1 else 0.0 for m in m2)
    stderrs = tuple(math.sqrt(var / count) for var in variances)
    return tuple(complex(m) for m in means), variances, stderrs, dumps


def _small_config(group, paths, seed=11):
    if group == UNITARY:
        return EnsembleConfig(group=UNITARY, N=4, t=0.7, steps=20, paths=paths, seed=seed)
    return EnsembleConfig(group=GENERAL_LINEAR, N=3, t=0.5, s=1.0, steps=20, paths=paths, seed=seed)


_HARNESS_OBS = [v(1), v(2) * v(-1), TestFunction.chi(1), TestFunction.from_dict({-1: 0.5, 2: 1j})]


def _fields(summary):
    return summary.means, summary.variances, summary.stderrs, summary.paths


@pytest.fixture
def two_threads(monkeypatch):
    """Two path threads on any machine."""
    monkeypatch.setattr(sim, "_thread_count", lambda paths: 2)


@pytest.mark.parametrize("group", [UNITARY, GENERAL_LINEAR])
@pytest.mark.parametrize("paths", [1, 3, 37])
def test_mc_experiment_matches_serial_loop(group, paths, two_threads):
    # path counts that are not multiples of the thread count or the window
    cfg = _small_config(group, paths)
    dumps = []
    summary = mc_experiment(cfg, _HARNESS_OBS, spectrum_dump=lambda j, vals: dumps.append((j, vals)))
    means, variances, stderrs, want_dumps = _serial_experiment(cfg, _HARNESS_OBS)
    assert _fields(summary) == (means, variances, stderrs, paths)
    assert [j for j, _ in dumps] == list(range(paths))
    for (_, got), (_, want) in zip(dumps, want_dumps):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("group", [UNITARY, GENERAL_LINEAR])
def test_mc_summary_does_not_depend_on_thread_count(group, monkeypatch):
    cfg = _small_config(group, 23, seed=5)
    summaries = []
    for threads in (1, 3):
        monkeypatch.setattr(sim, "_thread_count", lambda paths, n=threads: n)
        summaries.append(_fields(mc_experiment(cfg, _HARNESS_OBS)))
    assert summaries[0] == summaries[1]


def test_mc_error_at_one_path_propagates_after_earlier_dumps(monkeypatch, two_threads):
    real = sim.sample_matrix

    def failing(cfg, j):
        if j == 5:
            raise IllConditioned("planted failure at path 5")
        return real(cfg, j)

    monkeypatch.setattr(sim, "sample_matrix", failing)
    seen = []
    with pytest.raises(IllConditioned, match="path 5"):
        mc_experiment(_small_config(UNITARY, 20), [v(1)], spectrum_dump=lambda j, vals: seen.append(j))
    assert seen == [0, 1, 2, 3, 4]


def test_mc_error_in_observables_propagates_after_that_paths_dump(monkeypatch, two_threads):
    # as in a serial loop, path 5 is dumped before its observable raises
    real = sim.sample_matrix
    monkeypatch.setattr(sim, "sample_matrix", lambda cfg, j: np.zeros((4, 4)) if j == 5 else real(cfg, j))
    seen = []
    with pytest.raises(SingularMatrix):
        mc_experiment(
            _small_config(UNITARY, 20), [v(-1)],
            spectrum_dump=lambda j, vals: seen.append(j), dump_kind=COMPLEX_EIG,
        )
    assert seen == [0, 1, 2, 3, 4, 5]


def test_thread_count_is_one_per_cpu_capped_at_paths(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert sim._thread_count(100) == 4
    assert sim._thread_count(3) == 3
    assert sim._thread_count(1) == 1


def test_mc_conditioning_warning_from_worker_thread_reaches_caller(monkeypatch):
    # one path: the first condition check fails, the resample passes
    real = sim._cond_1norm
    calls = []

    def fake(Z):
        calls.append(1)
        return math.inf if len(calls) == 1 else real(Z)

    monkeypatch.setattr(sim, "_cond_1norm", fake)
    cfg = _small_config(GENERAL_LINEAR, 1)
    with pytest.warns(ConditioningWarning) as record:
        summary = mc_experiment(cfg, [v(1)])
    assert len(record) == 1
    assert "path 0" in str(record[0].message) and "stream 0" in str(record[0].message)
    assert summary.paths == 1


# -- noncommutative p-norms --------------------------------------------------------


def test_lp_norm_of_identity_word():
    word_z = WordPoly.from_terms([((1,), 1.0)])
    assert lp_norm_trace(np.eye(4), word_z, 2) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm_trace(np.eye(4), word_z, 6) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_on_unitary_is_one():
    cfg = EnsembleConfig(group=UNITARY, N=4, t=0.9, seed=2)
    U = sample_unitary_heat(cfg, 0)
    word_z = WordPoly.from_terms([((1,), 1.0)])
    for p in (2, 4, 8):
        assert lp_norm_trace(U, word_z, p) == pytest.approx(1.0, abs=1e-9)


def test_lp_norm_diagonal_example():
    Z = np.diag([2.0, 0.5]).astype(complex)
    word_z = WordPoly.from_terms([((1,), 1.0)])
    want = math.sqrt((4.0 + 0.25) / 2.0)
    assert lp_norm_trace(Z, word_z, 2) == pytest.approx(want, abs=1e-12)


def test_lp_norm_monotone_in_p():
    Z = np.diag([2.0, 0.5]).astype(complex)
    word_z = WordPoly.from_terms([((1,), 1.0)])
    assert lp_norm_trace(Z, word_z, 2) <= lp_norm_trace(Z, word_z, 4) + 1e-12


def test_lp_norm_rejects_odd_p():
    word_z = WordPoly.from_terms([((1,), 1.0)])
    with pytest.raises(InvalidParameter):
        lp_norm_trace(np.eye(2), word_z, 3)
    with pytest.raises(InvalidParameter):
        lp_norm_trace(np.eye(2), word_z, 0)
