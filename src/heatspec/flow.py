"""Index-graded, degree-filtered generator flow on the trace-polynomial algebra.

The two derivations implemented symbolically here are, at unit flow rate,

    first-order part D:  (1/2) sum_{|k|>=1} |k| v_k d_k
                       + (1/2) sum_{k>=2} k [ (sum_{j=1}^{k-1} v_j v_{k-j}) d_k
                                            + (sum_{j=1}^{k-1} v_{-j} v_{-(k-j)}) d_{-k} ]
    second-order part L: (1/2) sum_{|j|,|k|>=1} j k v_{j+k} d_j d_k,   v_0 == 1.

Both conserve the signed index sum sigma of a monomial (`mono_index_sum`).  D
preserves trace degree and L never raises it (it lowers degree when it
contracts a mixed-sign pair v_j v_{-j} to the constant), so the generator is
sigma-graded and filtered by degree: the monomials of degree <= n and index
sum sigma span an invariant subspace, a "sector".  `build_generator`
materializes u * (D + inv_N_sq * L) on the whole basis of degree <= n.
Heat-kernel expectations at matrix size N apply exp(-generator) with
inv_N_sq = 1/N^2 and read off the value at v == 1; they exponentiate only the
small real blocks of the sectors a polynomial touches.  inv_N_sq = 0 gives
the large-N limit flow, which factors over monomials with the closed-form
moments.

Scalar flow-time convention: a single parameter u drives everything — u = t
for the unitary group, u = s - t for eigenvalues under the two-parameter
measure on the general linear group, and u = -t (backward flow) for squared
singular values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    ConditioningWarning,
    DegreeCapExceeded,
    InvalidParameter,
    PreconditionViolated,
)
from .moments import nu_moment
from .trace_poly import (
    Mono,
    TracePoly,
    l1_norm,
    mono_degree,
    mono_div_var,
    mono_index_sum,
    mono_mul_var,
    star_poly,
    trace_degree,
)

DEFAULT_MAX_DEGREE = 12

_PRUNE_REL = 1e-15
_CONDITIONING_THRESHOLD = 20.0


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the flow generator u * (D + inv_N_sq * L) on degree <= n."""

    u: float
    inv_N_sq: float
    degree_cap: int

    def __post_init__(self):
        if not (0.0 <= self.inv_N_sq <= 1.0):
            raise InvalidParameter("inv_N_sq must lie in [0, 1]")
        if self.degree_cap < 0:
            raise InvalidParameter("degree_cap must be nonnegative")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of an operator on a monomial basis."""

    basis: tuple  # monomials of trace degree <= n, canonical order
    entries: np.ndarray  # complex, column j = image of basis[j]

    def __post_init__(self):
        if self.entries.shape != (len(self.basis), len(self.basis)):
            raise InvalidParameter("entries shape does not match basis size")


# -- symbolic derivations ----------------------------------------------------


def _apply_D10_mono(m: Mono) -> dict:
    out: dict[Mono, complex] = {}
    deg = mono_degree(m)
    if deg:
        out[m] = 0.5 * deg
    for k, e in m:
        a = abs(k)
        if a < 2:
            continue
        base = mono_div_var(m, k)
        sgn = 1 if k > 0 else -1
        for j in range(1, a):
            mm = mono_mul_var(mono_mul_var(base, sgn * j), sgn * (a - j))
            out[mm] = out.get(mm, 0) + 0.5 * a * e
    return out


def _apply_L10_mono(m: Mono) -> dict:
    out: dict[Mono, complex] = {}
    idx = [(k, e) for k, e in m]
    for i, (j, ej) in enumerate(idx):
        # diagonal j == k: (1/2) j^2 e_j (e_j - 1) v_{2j} m / v_j^2
        if ej >= 2:
            mm = mono_mul_var(mono_div_var(m, j, 2), 2 * j)
            out[mm] = out.get(mm, 0) + 0.5 * j * j * ej * (ej - 1)
        # off-diagonal pairs (ordered pairs counted once, factor 2 cancels 1/2)
        for jj, (k, ek) in enumerate(idx):
            if jj <= i:
                continue
            mm = mono_mul_var(mono_div_var(mono_div_var(m, j), k), j + k)
            out[mm] = out.get(mm, 0) + j * k * ej * ek
    return out


def apply_D10(p: TracePoly) -> TracePoly:
    """Exact image under the unit-rate first-order generator."""
    out: dict[Mono, complex] = {}
    for m, c in p.terms.items():
        for mm, w in _apply_D10_mono(m).items():
            out[mm] = out.get(mm, 0) + c * w
    return TracePoly(out)


def apply_L10(p: TracePoly) -> TracePoly:
    """Exact image under the unit-rate second-order generator."""
    out: dict[Mono, complex] = {}
    for m, c in p.terms.items():
        for mm, w in _apply_L10_mono(m).items():
            out[mm] = out.get(mm, 0) + c * w
    return TracePoly(out)


# -- basis and matrices ------------------------------------------------------


@lru_cache(maxsize=None)
def hp_basis(n: int) -> tuple:
    """All monomials of trace degree <= n, sorted by (degree, monomial)."""
    if n < 0:
        raise InvalidParameter("degree must be nonnegative")
    indices = [k for k in range(-n, n + 1) if k != 0]
    monos: list[Mono] = []

    def grow(pos: int, budget: int, cur: list):
        monos.append(tuple(cur))
        for i in range(pos, len(indices)):
            k = indices[i]
            cost = abs(k)
            if cost > budget:
                continue
            e = 1
            while e * cost <= budget:
                cur.append((k, e))
                grow(i + 1, budget - e * cost, cur)
                cur.pop()
                e += 1

    grow(0, n, [])
    uniq = sorted({tuple(sorted(m)) for m in monos}, key=lambda m: (mono_degree(m), m))
    return tuple(uniq)


def _warn_conditioning(u: float, n: int) -> None:
    """Warn the caller's caller when exp(-u (D + L)) on degree <= n may amplify roundoff."""
    bound = abs(u) / 2.0 * n * n
    if bound > _CONDITIONING_THRESHOLD:
        warnings.warn(
            f"flow norm bound exp({bound:.1f}) is large; exponential may amplify roundoff",
            ConditioningWarning,
            stacklevel=3,
        )


def build_generator(spec: GeneratorSpec, *, max_degree: int = DEFAULT_MAX_DEGREE) -> OperatorMatrix:
    """Matrix of u * (D + inv_N_sq * L) on the monomial basis of degree <= n."""
    n = spec.degree_cap
    if n > max_degree:
        raise DegreeCapExceeded(f"degree {n} exceeds the configured maximum {max_degree}")
    _warn_conditioning(spec.u, n)
    basis = hp_basis(n)
    index = {m: i for i, m in enumerate(basis)}
    A = np.zeros((len(basis), len(basis)), dtype=complex)
    if spec.u != 0.0:
        for j, m in enumerate(basis):
            img = _apply_D10_mono(m)
            if spec.inv_N_sq:
                for mm, w in _apply_L10_mono(m).items():
                    img[mm] = img.get(mm, 0) + spec.inv_N_sq * w
            for mm, w in img.items():
                A[index[mm], j] = spec.u * w
    return OperatorMatrix(basis=basis, entries=A)


def _l1_opnorm(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(A), axis=0)))


def operator_l1_norm(op: OperatorMatrix) -> float:
    """Maximum column sum — the operator norm induced by the coefficient l1 norm."""
    return _l1_opnorm(op.entries)


def expm(op: OperatorMatrix) -> OperatorMatrix:
    """Matrix exponential by scaling and squaring (`scipy.linalg.expm`, Higham 2005)."""
    return OperatorMatrix(basis=op.basis, entries=scipy.linalg.expm(op.entries))


def apply_operator(op: OperatorMatrix, p: TracePoly) -> TracePoly:
    """Apply a basis matrix to a polynomial, pruning roundoff-scale output."""
    index = {m: i for i, m in enumerate(op.basis)}
    vec = np.zeros(len(op.basis), dtype=complex)
    for m, c in p.terms.items():
        if m not in index:
            raise DegreeCapExceeded("polynomial does not lie in the operator's basis span")
        vec[index[m]] = c
    out = op.entries @ vec
    cut = _PRUNE_REL * _l1_opnorm(op.entries) * max(l1_norm(p), 1e-300)
    return TracePoly({m: c for m, c in zip(op.basis, out) if abs(c) > cut})


# -- heat-kernel expectations ------------------------------------------------


@dataclass(frozen=True)
class _Sector:
    """Monomials of degree <= n and index sum sigma, with the unit-rate D and L on them."""

    basis: tuple
    index: dict  # monomial -> position in basis
    D: np.ndarray  # real, column j = image of basis[j]
    L: np.ndarray


# (n, sigma) ranges over |sigma| <= n <= the largest degree cap in use
@lru_cache(maxsize=None)
def _sector(n: int, sigma: int) -> _Sector:
    basis = tuple(m for m in hp_basis(n) if mono_index_sum(m) == sigma)
    index = {m: i for i, m in enumerate(basis)}
    D = np.zeros((len(basis), len(basis)))
    L = np.zeros_like(D)
    for j, m in enumerate(basis):
        for M, image in ((D, _apply_D10_mono(m)), (L, _apply_L10_mono(m))):
            for mm, w in image.items():
                M[index[mm], j] = w
    return _Sector(basis, index, D, L)


@lru_cache(maxsize=512)
def _sector_functional(u: float, inv_N_sq: float, n: int, sigma: int) -> np.ndarray:
    """The row functional 1^T exp(-u (D + inv_N_sq L)) on one sector.

    Entry j is the expectation of the sector's j-th monomial: evaluation at
    v == 1 after the flow.  The block is real and small, at most 210 x 210 at
    degree 12 against 3132 for the whole basis.
    """
    sec = _sector(n, sigma)
    phi = np.ones(len(sec.basis)) @ scipy.linalg.expm(-u * (sec.D + inv_N_sq * sec.L))
    phi.flags.writeable = False
    return phi


def finite_N_expectation(
    p: TracePoly, u: float, N: int, *, degree_cap: int = DEFAULT_MAX_DEGREE
) -> complex:
    """Exact expectation of a trace polynomial under the size-N heat kernel.

    Computed as (exp(-u (D + N^-2 L)) p)(1), one sector at a time: the
    monomials of p with index sum sigma are evaluated by the functional of the
    sector of that sigma, up to the largest degree among them.  At N = 1 the
    whole algebra collapses onto powers of a single scalar and the combined
    generator acts diagonally on that quotient (eigenvalue sigma^2/2 on the
    image of a monomial with signed index sum sigma), so the flow is evaluated
    in closed form — the only way to keep relative accuracy when the answer is
    as small as exp(-u k^2 / 2) for large k.
    """
    if N < 1:
        raise InvalidParameter("N must be a positive integer")
    n = trace_degree(p)
    if n > degree_cap:
        raise DegreeCapExceeded(f"trace degree {n} exceeds cap {degree_cap}")
    if not p.terms:
        return 0.0 + 0.0j
    if N == 1:
        total = 0.0 + 0.0j
        for m, c in p.terms.items():
            sigma = mono_index_sum(m)
            total += c * math.exp(-float(u) * sigma * sigma / 2.0)
        return complex(total)
    _warn_conditioning(u, n)
    top: dict[int, int] = {}  # sigma -> largest degree of p in that sector
    for m in p.terms:
        sigma = mono_index_sum(m)
        top[sigma] = max(top.get(sigma, 0), mono_degree(m))
    u, inv_N_sq = float(u), 1.0 / (N * N)
    total = 0.0 + 0.0j
    for m, c in p.terms.items():
        sigma = mono_index_sum(m)
        d = top[sigma]
        total += c * _sector_functional(u, inv_N_sq, d, sigma)[_sector(d, sigma).index[m]]
    return complex(total)


def limit_expectation(p: TracePoly, u: float) -> complex:
    """Large-N limit of the heat-kernel expectation.

    The limit flow is generated by the first-order part alone, hence is an
    algebra homomorphism: it factors over monomials with moment values.
    """
    total = 0.0 + 0.0j
    for m, c in p.terms.items():
        val = c
        for k, e in m:
            val *= nu_moment(k, u) ** e
        total += val
    return complex(total)


def finite_N_covariance_unitary(
    p: TracePoly, q: TracePoly, t: float, N: int, *, degree_cap: int = DEFAULT_MAX_DEGREE
) -> complex:
    """Exact covariance Cov(p, q) under the size-N unitary heat kernel.

    Uses the adjoint polynomial q* (indices negated, coefficients conjugated):
    Cov = E[p q*] - E[p] E[q*].
    """
    qs = star_poly(q)
    joint = finite_N_expectation(p * qs, t, N, degree_cap=degree_cap)
    return complex(
        joint
        - finite_N_expectation(p, t, N, degree_cap=degree_cap)
        * finite_N_expectation(qs, t, N, degree_cap=degree_cap)
    )


def concentration_bound(p: TracePoly, s: float, t: float, N: int) -> float:
    """Explicit finite-N vs limit deviation bound.

    With r = |s - t/2| + |t|/2 and n the trace degree:
        (1/N^2) (r/2) n^2 exp((r/2) n^2 (1 + 1/N^2)) * l1_norm(p).
    """
    if N < 1:
        raise InvalidParameter("N must be a positive integer")
    r = abs(s - t / 2.0) + abs(t) / 2.0
    n = trace_degree(p)
    half_rn2 = (r / 2.0) * n * n
    return (1.0 / (N * N)) * half_rn2 * math.exp(half_rn2 * (1.0 + 1.0 / (N * N))) * l1_norm(p)


def refined_bound(p: TracePoly, s: float, t: float, delta: float, N: int) -> float:
    """Time-independent deviation bound, valid for N > sqrt(2/delta)."""
    if delta <= 0:
        raise InvalidParameter("delta must be positive")
    if N <= math.sqrt(2.0 / delta):
        raise PreconditionViolated(
            f"need N > sqrt(2/delta) = {math.sqrt(2.0 / delta):.4g}, got N = {N}"
        )
    r = abs(s - t / 2.0) + abs(t) / 2.0
    n = trace_degree(p)
    return (1.0 / (N * N)) * (1.0 / delta) * math.exp((r / 2.0) * (1.0 + delta) * n * n) * l1_norm(p)


# -- numerical intertwining check ---------------------------------------------


def antihermitian_basis(N: int) -> list:
    """Orthonormal basis of the unitary Lie algebra for -N tr(XY)."""
    out = []
    c1 = 1.0 / math.sqrt(N)
    c2 = 1.0 / math.sqrt(2.0 * N)
    for j in range(N):
        X = np.zeros((N, N), dtype=complex)
        X[j, j] = 1j * c1
        out.append(X)
    for j in range(N):
        for k in range(j + 1, N):
            X = np.zeros((N, N), dtype=complex)
            X[j, k] = c2
            X[k, j] = -c2
            out.append(X)
            Y = np.zeros((N, N), dtype=complex)
            Y[j, k] = 1j * c2
            Y[k, j] = 1j * c2
            out.append(Y)
    return out


def numerical_laplacian(p: TracePoly, U: np.ndarray, h: float = 1e-3) -> complex:
    """Group Laplacian of the trace-polynomial function at U, by central differences.

    Sums second directional derivatives over the orthonormal Lie-algebra basis:
    the result should match -2 * (D + N^-2 L) applied symbolically and
    evaluated at U.
    """
    from .trace_poly import eval_on_matrix

    if h <= 0:
        raise InvalidParameter("step h must be positive")
    U = np.asarray(U, dtype=complex)
    N = U.shape[0]
    f0 = eval_on_matrix(p, U)
    total = 0.0 + 0.0j
    for X in antihermitian_basis(N):
        step = scipy.linalg.expm(h * X)
        step_inv = scipy.linalg.expm(-h * X)
        fp = eval_on_matrix(p, U @ step)
        fm = eval_on_matrix(p, U @ step_inv)
        total += (fp - 2.0 * f0 + fm) / (h * h)
    return complex(total)


def intertwined_laplacian(p: TracePoly, U: np.ndarray, N: int | None = None) -> complex:
    """The symbolic side of the intertwining identity, evaluated at U."""
    from .trace_poly import eval_on_matrix

    U = np.asarray(U, dtype=complex)
    if N is None:
        N = U.shape[0]
    image = apply_D10(p) + (1.0 / (N * N)) * apply_L10(p)
    return -2.0 * eval_on_matrix(image, U)
