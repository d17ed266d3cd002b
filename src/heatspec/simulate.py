"""Monte-Carlo sampling of the two matrix ensembles and empirical statistics.

Samplers realize the heat-kernel measures by geometric Euler products of
Lie-algebra Gaussian increments: unitary paths multiply exp(i sqrt(dt) H_j)
with H_j drawn from the GUE normalization whose entry variance is 1/N, and
general-linear paths multiply exp(sqrt(dt (s - t/2)) iH_j + sqrt(dt t/2) H'_j).
Both samplers draw and exponentiate increments in blocks of 16 steps with one
degree-10 Taylor exponential built from matrix products (`_expm_taylor`).
Randomness is split per path with a counter-based generator, so path j depends
only on (seed, j, stream) and results are independent of execution order.

The rest of the module turns samples into numbers: spectral extraction,
empirical integrals of Fourier-Laurent test functions, the test-function norms
(Sobolev, super-analytic, Lipschitz upper bound), the closed-form right-hand
sides of the variance inequalities, noncommutative L^p norms, and a streaming
mean/variance experiment harness.  The harness runs paths on one thread per
available CPU and folds their results in path order, so its summaries are
bit-identical to a serial run on any core count; only warnings can arrive out
of path order.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConditioningWarning,
    EigFailure,
    HeatspecError,
    IllConditioned,
    InvalidConfig,
    InvalidParameter,
    PrecisionWarning,
    RegimeViolation,
    ZeroSpectrumValue,
)
from .trace_poly import TracePoly, WordPoly, eval_on_matrix, eval_word_on_matrix, format_poly

UNITARY = "unitary"
GENERAL_LINEAR = "gl"

CIRCLE_EIG = "circle"
COMPLEX_EIG = "complex"
POSITIVE_EIG = "positive"

_REUNITARIZE_EVERY = 16
_CONDITION_CAP = 1e12
_MAX_RETRIES = 3
_UNITARITY_TOL = 1e-10
_SEED_MASK = (1 << 64) - 1
_PATHS_PER_THREAD = 4  # paths in flight per thread in `mc_experiment`


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one sampled ensemble.

    steps defaults to 100 per unit of heat time (the larger of s and t for the
    general-linear group, where the per-step time increment is 1/steps).
    """

    group: str
    N: int
    t: float
    s: float | None = None
    steps: int | None = None
    paths: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.group not in (UNITARY, GENERAL_LINEAR):
            raise InvalidConfig(f"unknown group {self.group!r}")
        if self.N < 1:
            raise InvalidConfig("N must be a positive integer")
        if self.paths < 1:
            raise InvalidConfig("paths must be a positive integer")
        if self.group == UNITARY:
            if self.t < 0:
                raise RegimeViolation("unitary ensemble requires t >= 0")
            if self.s is not None:
                raise InvalidConfig("s applies to the general-linear group only")
        else:
            if self.s is None:
                raise InvalidConfig("general-linear ensemble requires s")
            if not (self.t > 0 and self.s > self.t / 2.0):
                raise RegimeViolation("general-linear ensemble requires s > t/2 > 0")
        if self.steps is None:
            span = self.t if self.group == UNITARY else max(self.s, self.t)
            object.__setattr__(self, "steps", max(1, round(100.0 * span)))
        elif self.steps < 1:
            raise InvalidConfig("steps must be a positive integer")


def path_rng(seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one path: depends only on (seed, path, stream)."""
    if path_index < 0:
        raise InvalidParameter("path_index must be nonnegative")
    counter = np.array([0, 0, stream, path_index], dtype=np.uint64)
    key = np.array([seed & _SEED_MASK, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _hermitize(draws: np.ndarray, N: int) -> np.ndarray:
    """Turn stacked (..., 2, N, N) standard-normal draws into stacked GUE
    matrices of entry variance 1/N."""
    B = (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / math.sqrt(N)
    return (B + np.conj(np.swapaxes(B, -1, -2))) / 2.0


def sample_gue(N: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with independent Gaussian entries of variance 1/N.

    Normalized so that E[(1/N) Tr H^2] = 1: real N(0, 1/N) diagonal, complex
    off-diagonal entries of total variance 1/N.
    """
    if N < 1:
        raise InvalidParameter("N must be a positive integer")
    return _hermitize(rng.standard_normal((2, N, N)), N)


def haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, with the
    phases of R's diagonal moved into Q."""
    if N < 1:
        raise InvalidParameter("N must be a positive integer")
    draws = rng.standard_normal((2, N, N))
    G = (draws[0] + 1j * draws[1]) / math.sqrt(2.0)
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _polar_unitary(U: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(U)
    return w @ vh


def unitarity_drift(U: np.ndarray) -> float:
    """max-norm distance of U*U from the identity."""
    N = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(N))))


def _expm_taylor(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack of square matrices X, from matrix products only.

    Degree-10 Taylor polynomial in Paterson-Stockmeyer form (X^2, X^3, X^4 and
    two Horner products in X^4) with scaling by 2^-s and s squarings.  s is the
    least count that brings a3 = max(||X^3||_F^(1/3), ||X^4||_F^(1/4)) to 0.15
    or below for every matrix of the stack.  Every k >= 3 * 2 is a sum of 3s
    and 4s, so a3 bounds ||X^k||_F^(1/k) for all k >= 6 whether or not X is
    normal (Al-Mohy and Higham 2009), and the Taylor remainder is at most
    0.15^11/11! e^0.15 < 2.6e-17.
    """
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2
    n3, n4 = (float(np.max(np.linalg.norm(Y, axis=(-2, -1)))) for Y in (X3, X4))
    bound = max(n3 ** (1.0 / 3.0), n4 ** 0.25)
    s = math.ceil(math.log2(bound / 0.15)) if bound > 0.15 else 0
    if s:
        h = 0.5 ** s
        X, X2, X3, X4 = h * X, h ** 2 * X2, h ** 3 * X3, h ** 4 * X4
    eye = np.eye(X.shape[-1])
    f = [1.0 / math.factorial(k) for k in range(11)]
    B0 = f[0] * eye + f[1] * X + f[2] * X2 + f[3] * X3
    B1 = f[4] * eye + f[5] * X + f[6] * X2 + f[7] * X3
    B2 = f[8] * eye + f[9] * X + f[10] * X2
    E = B0 + X4 @ (B1 + X4 @ B2)
    for _ in range(s):
        E = E @ E
    return E


def sample_unitary_heat(cfg: EnsembleConfig, path_index: int) -> np.ndarray:
    """One unitary heat-kernel sample: the product of per-step exponentials
    exp(i sqrt(dt) H_j), re-unitarized by polar projection every 16 steps.

    Gaussian increments are drawn and exponentiated in blocks of 16 steps, one
    generator call per block, so the stream order equals a per-step draw and
    path values depend only on (seed, path_index).  Each block is exponentiated
    by `_expm_taylor` (degree-10 Taylor polynomial with scaling and squaring,
    remainder below 2.6e-17), which uses matrix products only.
    """
    if cfg.group != UNITARY:
        raise InvalidConfig("config is not for the unitary group")
    N = cfg.N
    if cfg.t == 0.0:
        return np.eye(N, dtype=complex)
    rng = path_rng(cfg.seed, path_index)
    root = math.sqrt(cfg.t / cfg.steps)
    U = np.eye(N, dtype=complex)
    for start in range(0, cfg.steps, _REUNITARIZE_EVERY):
        block = min(_REUNITARIZE_EVERY, cfg.steps - start)
        H = _hermitize(rng.standard_normal((block, 2, N, N)), N)
        for incr in _expm_taylor(1j * root * H):
            U = U @ incr
        if block == _REUNITARIZE_EVERY:
            U = _polar_unitary(U)
    U = _polar_unitary(U)
    if unitarity_drift(U) > _UNITARITY_TOL:
        raise EigFailure("unitarity drift above contract after polar projection")
    return U


def _cond_1norm(Z: np.ndarray) -> float:
    try:
        Zinv = np.linalg.inv(Z)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.linalg.norm(Z, 1) * np.linalg.norm(Zinv, 1))


def sample_gl_heat(cfg: EnsembleConfig, path_index: int) -> np.ndarray:
    """One general-linear heat-kernel sample.

    Per-step increment exp(sqrt(dt (s - t/2)) iH + sqrt(dt t/2) H') with
    dt = 1/steps (the s, t parameters carry the time).  Increments are drawn
    and exponentiated in blocks of 16 steps, one generator call per block, by
    the same `_expm_taylor` as the unitary sampler.

    Resample policy: the 1-norm condition number of the running product is
    checked after every block.  A path above 1e12 is drawn again from the next
    stream of the same (seed, path_index), with a `ConditioningWarning` naming
    the path, the stream and the estimate; after three resamples the draw
    raises `IllConditioned`.  Accepted samples therefore follow the law
    conditioned on staying under the cap at the checks.
    """
    if cfg.group != GENERAL_LINEAR:
        raise InvalidConfig("config is not for the general-linear group")
    N = cfg.N
    dt = 1.0 / cfg.steps
    c_rot = math.sqrt(dt * (cfg.s - cfg.t / 2.0))
    c_str = math.sqrt(dt * cfg.t / 2.0)
    for stream in range(_MAX_RETRIES + 1):
        rng = path_rng(cfg.seed, path_index, stream=stream)
        Z = np.eye(N, dtype=complex)
        for start in range(0, cfg.steps, _REUNITARIZE_EVERY):
            block = min(_REUNITARIZE_EVERY, cfg.steps - start)
            H = _hermitize(rng.standard_normal((block, 2, 2, N, N)), N)
            for incr in _expm_taylor(1j * c_rot * H[:, 0] + c_str * H[:, 1]):
                Z = Z @ incr
            if (cond := _cond_1norm(Z)) > _CONDITION_CAP:
                break
        else:
            return Z
        if stream < _MAX_RETRIES:
            msg = f"path {path_index}, stream {stream}: condition estimate {cond:.3g}; resampling"
            warnings.warn(msg, ConditioningWarning, stacklevel=2)
    raise IllConditioned(
        f"path {path_index}: condition estimate above {_CONDITION_CAP:.0e} "
        f"after {_MAX_RETRIES} resamples"
    )


def sample_matrix(cfg: EnsembleConfig, path_index: int) -> np.ndarray:
    """Dispatch to the configured group's sampler."""
    if cfg.group == UNITARY:
        return sample_unitary_heat(cfg, path_index)
    return sample_gl_heat(cfg, path_index)


@dataclass(frozen=True)
class SpectralSample:
    """Spectrum of one sampled matrix."""

    values: np.ndarray
    kind: str
    config: EnsembleConfig | None = None
    path_index: int = -1


def extract_spectrum(
    Z: np.ndarray,
    kind: str,
    *,
    config: EnsembleConfig | None = None,
    path_index: int = -1,
) -> SpectralSample:
    """Eigenvalues of Z ("circle"/"complex") or of ZZ* ("positive").

    Circle values are checked to be within 1e-8 of the unit circle, then
    normalized onto it exactly.  Positive values are the squared singular
    values of Z, ascending, and must come out strictly positive.
    """
    Z = np.asarray(Z, dtype=complex)
    try:
        if kind == POSITIVE_EIG:
            # squared singular values of Z, ascending: eigvalsh(Z Z*) would
            # square the condition number and lose the smallest ones
            vals = np.linalg.svd(Z, compute_uv=False)[::-1] ** 2
        elif kind in (CIRCLE_EIG, COMPLEX_EIG):
            vals = np.linalg.eigvals(Z)
        else:
            raise InvalidParameter(f"unknown spectrum kind {kind!r}")
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolver failed: {exc}") from exc
    if kind == CIRCLE_EIG:
        mods = np.abs(vals)
        if np.max(np.abs(mods - 1.0)) > 1e-8:
            raise EigFailure("circle spectrum requested but eigenvalues leave the circle")
        vals = vals / mods
    if kind == POSITIVE_EIG:
        if np.min(vals) <= 0.0:
            raise EigFailure("positive spectrum has a nonpositive eigenvalue")
        vals = vals.astype(float)
    return SpectralSample(values=vals, kind=kind, config=config, path_index=path_index)


# -- test functions on spectra -------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Finitely supported Fourier-Laurent function f(w) = sum_k c_k w^k."""

    coeffs: tuple  # ((k, complex), ...) sorted by k, zero coefficients dropped

    @staticmethod
    def from_dict(d: dict) -> "TestFunction":
        items = tuple(
            sorted((int(k), complex(c)) for k, c in d.items() if complex(c) != 0)
        )
        return TestFunction(coeffs=items)

    @staticmethod
    def chi(k: int) -> "TestFunction":
        return TestFunction(coeffs=((int(k), 1.0 + 0.0j),))

    def __call__(self, w: complex) -> complex:
        total = 0.0 + 0.0j
        for k, c in self.coeffs:
            if k < 0 and w == 0:
                raise ZeroSpectrumValue("negative Fourier index hit a zero spectral value")
            total += c * w ** k
        return total


@lru_cache(maxsize=None)
def _h_norm(f: TestFunction, p: float) -> float:
    return math.sqrt(sum((1.0 + k * k) ** p * abs(c) ** 2 for k, c in f.coeffs))


@lru_cache(maxsize=None)
def _gevrey_norm(f: TestFunction, sigma: float) -> float:
    total = 0.0
    for k, c in f.coeffs:
        try:
            total += math.exp(2.0 * sigma * k * k) * abs(c) ** 2
        except OverflowError:
            total = math.inf
        if math.isinf(total):
            warnings.warn(
                f"super-analytic weight overflowed at index {k}; norm reported infinite",
                PrecisionWarning,
                stacklevel=3,
            )
            return math.inf
    return math.sqrt(total)


@lru_cache(maxsize=None)
def _lip_bound(f: TestFunction) -> float:
    return sum(abs(k) * abs(c) for k, c in f.coeffs)


class FunctionNorms(NamedTuple):
    h_p: float
    gevrey: float
    lip: float


def test_function_norms(f: TestFunction, p: float, sigma: float) -> FunctionNorms:
    """Sobolev (1+k^2)^p weight, super-analytic e^{2 sigma k^2} weight, and the
    coefficient Lipschitz upper bound sum |k||c_k|."""
    return FunctionNorms(_h_norm(f, p), _gevrey_norm(f, sigma), _lip_bound(f))


def empirical_integral(sample: SpectralSample, f: TestFunction) -> complex:
    """(1/N) sum_i f(lambda_i), with f evaluated by its Laurent series."""
    vals = np.asarray(sample.values)
    needs_inverse = any(k < 0 for k, _ in f.coeffs)
    if needs_inverse and np.any(vals == 0):
        raise ZeroSpectrumValue("negative Fourier index hit a zero spectral value")
    total = np.zeros(vals.shape, dtype=complex)
    for k, c in f.coeffs:
        total += c * vals.astype(complex) ** k
    return complex(np.mean(total))


LIPSCHITZ = "lipschitz"
SOBOLEV = "sobolev"
GEVREY = "gevrey"
GEVREY_POSITIVE = "gevrey_positive"


def variance_bound_rhs(
    f: TestFunction,
    t: float,
    N: int,
    regime: str,
    *,
    p: float | None = None,
    sigma: float | None = None,
    s_param: float | None = None,
) -> float:
    """Closed-form right-hand side of the variance inequality for one regime.

    lipschitz:        2t/N^2 * Lip(f)^2
    sobolev:          (8/N^{2p-1}) ||f||_{H_p}^2 (sqrt(t/(3-2p)) + 1/sqrt(2p-1))^2,
                      1 < p < 3/2
    gevrey:           (1/N^2)(4/d^2)(1 + (1/2) sqrt(pi/(2 s d))) ||f||^2, d = (sigma/s - 1)/2
    gevrey_positive:  (1/N^2)(4/d^2)(1 + (1/2) sqrt(pi/(8 s d))) ||f||^2, d = (sigma/(4s) - 1)/2

    The two super-analytic regimes additionally require N > sqrt(2/d).
    """
    if N < 1:
        raise InvalidParameter("N must be a positive integer")
    if regime == LIPSCHITZ:
        if t < 0:
            raise RegimeViolation("lipschitz regime requires t >= 0")
        return 2.0 * t / (N * N) * _lip_bound(f) ** 2
    if regime == SOBOLEV:
        if p is None or not (1.0 < p < 1.5):
            raise RegimeViolation("sobolev regime requires 1 < p < 3/2")
        if t < 0:
            raise RegimeViolation("sobolev regime requires t >= 0")
        const = math.sqrt(t / (3.0 - 2.0 * p)) + 1.0 / math.sqrt(2.0 * p - 1.0)
        return 8.0 / N ** (2.0 * p - 1.0) * _h_norm(f, p) ** 2 * const ** 2
    if regime in (GEVREY, GEVREY_POSITIVE):
        if sigma is None or s_param is None or s_param <= 0:
            raise RegimeViolation("super-analytic regimes require sigma and s_param > 0")
        scale = s_param if regime == GEVREY else 4.0 * s_param
        if sigma <= scale:
            raise RegimeViolation(
                f"need sigma > {scale:g} for this regime (got sigma = {sigma:g})"
            )
        delta = 0.5 * (sigma / scale - 1.0)
        if N <= math.sqrt(2.0 / delta):
            raise RegimeViolation(
                f"need N > sqrt(2/delta) = {math.sqrt(2.0 / delta):.4g}"
            )
        inner = 2.0 * s_param if regime == GEVREY else 8.0 * s_param
        const = (4.0 / delta ** 2) * (1.0 + 0.5 * math.sqrt(math.pi / (inner * delta)))
        return const / (N * N) * _gevrey_norm(f, sigma) ** 2
    raise RegimeViolation(f"unknown regime {regime!r}")


# -- streaming Monte-Carlo harness --------------------------------------------


@dataclass(frozen=True)
class MCSummary:
    """Streaming summary of one experiment: per-observable mean/variance/stderr."""

    config: EnsembleConfig
    names: tuple
    means: tuple  # complex per observable
    variances: tuple  # real: mean squared deviation |x - mean|^2, n-1 weighted
    stderrs: tuple
    paths: int


def _default_name(obs) -> str:
    if isinstance(obs, TracePoly):
        return format_poly(obs)
    if isinstance(obs, TestFunction):
        parts = ",".join(f"{k}:{c.real:g}{c.imag:+g}j" for k, c in obs.coeffs)
        return f"f[{parts}]"
    raise InvalidParameter(f"unsupported observable type {type(obs).__name__}")


def _thread_count(paths: int) -> int:
    """Threads for `mc_experiment`: one per CPU this process may use, at most paths."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, paths))


def mc_experiment(
    cfg: EnsembleConfig,
    observables: Sequence,
    *,
    names: Sequence[str] | None = None,
    spectrum_dump: Callable[[int, np.ndarray], None] | None = None,
    dump_kind: str | None = None,
) -> MCSummary:
    """Run the configured number of paths and stream mean/variance per observable.

    Trace polynomials are evaluated directly on the sampled matrix; test
    functions are integrated against the circle spectrum (unitary group) or the
    positive spectrum of ZZ* (general-linear group).

    Paths run on a thread pool, one thread per CPU the process may use, a
    few paths per thread in flight at once; numpy releases the interpreter
    lock in the random fill, the matrix products and the eigen and singular
    value solvers.  The calling thread takes the results in path order: it
    makes the Welford updates, calls spectrum_dump and raises the first
    error, so the summary, the dumps and the exception are bit-identical to a
    serial run on any core count.  Warnings raised while sampling
    (`ConditioningWarning`) can arrive out of path order.

    spectrum_dump, when given, receives (path_index, spectral values) for every
    path, using dump_kind or the group's display default (circle eigenvalues
    for the unitary group, complex eigenvalues otherwise).
    """
    if cfg.paths < 1:
        raise InvalidConfig("experiment needs at least one path")
    obs = list(observables)
    if not obs:
        raise InvalidConfig("experiment needs at least one observable")
    for o in obs:
        if not isinstance(o, (TracePoly, TestFunction)):
            raise InvalidParameter(f"unsupported observable type {type(o).__name__}")
    if names is None:
        names = [_default_name(o) for o in obs]
    names = list(names)
    if len(names) != len(obs):
        raise InvalidConfig("names must match observables one-to-one")

    tf_kind = CIRCLE_EIG if cfg.group == UNITARY else POSITIVE_EIG
    if dump_kind is None:
        dump_kind = CIRCLE_EIG if cfg.group == UNITARY else COMPLEX_EIG
    needs_tf = any(isinstance(o, TestFunction) for o in obs)

    def run_path(j: int):
        # one path's dump values and observable values; a package error in
        # the observables is returned, to be raised after path j's dump
        Z = sample_matrix(cfg, j)
        tf_sample = None
        if needs_tf:
            tf_sample = extract_spectrum(Z, tf_kind, config=cfg, path_index=j)
        dumped = None
        if spectrum_dump is not None:
            dumped = extract_spectrum(Z, dump_kind, config=cfg, path_index=j).values
        try:
            return dumped, [
                eval_on_matrix(o, Z) if isinstance(o, TracePoly) else empirical_integral(tf_sample, o)
                for o in obs
            ]
        except HeatspecError as exc:
            return dumped, exc

    count = 0
    means = np.zeros(len(obs), dtype=complex)
    m2 = np.zeros(len(obs), dtype=float)
    threads = _thread_count(cfg.paths)
    window = _PATHS_PER_THREAD * threads
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        pending = deque(pool.submit(run_path, j) for j in range(min(window, cfg.paths)))
        for j in range(cfg.paths):
            dumped, xs = pending.popleft().result()
            if j + window < cfg.paths:
                pending.append(pool.submit(run_path, j + window))
            if spectrum_dump is not None:
                spectrum_dump(j, dumped)
            if isinstance(xs, HeatspecError):
                raise xs
            count += 1
            for i, x in enumerate(xs):
                delta = x - means[i]
                means[i] += delta / count
                m2[i] += (np.conj(delta) * (x - means[i])).real
    finally:
        pool.shutdown(cancel_futures=True)

    variances = tuple(float(m / (count - 1)) if count > 1 else 0.0 for m in m2)
    stderrs = tuple(math.sqrt(v / count) for v in variances)
    return MCSummary(
        config=cfg,
        names=tuple(names),
        means=tuple(complex(m) for m in means),
        variances=variances,
        stderrs=stderrs,
        paths=count,
    )


def lp_norm_trace(Z: np.ndarray, f: WordPoly, p: int) -> float:
    """Noncommutative L^p norm of f(Z, Z*): ((1/N) Tr[(AA*)^{p/2}])^{1/p}."""
    if p < 2 or p % 2 != 0:
        raise InvalidParameter("p must be an even integer >= 2")
    A = eval_word_on_matrix(f, Z)
    W = A @ A.conj().T
    M = np.linalg.matrix_power(W, p // 2)
    val = float(np.trace(M).real) / Z.shape[0]
    return val ** (1.0 / p)
