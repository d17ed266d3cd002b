"""Pointwise densities and supports of the two limit spectral laws.

Circle law (flow parameter t > 0): the spectral density at e^{iθ} is Re z,
taken with respect to normalized arc length, where z is the unique root with
positive real part of

    (z - 1)/(z + 1) * exp(t z / 2) = e^{iθ}.

Positive-line law (flow parameter τ < 0): the density at x > 0 is Im z/(πx)
with respect to Lebesgue measure, where z is the unique upper-half-plane root of

    z/(z - 1) * exp(-τ (z - 1/2)) = x.

Both densities come from one continuation scheme.  A root of map(z) = target
is followed along a real march parameter p by damped Newton iteration on
log(map(z)/target), starting from the nearest root already solved, in steps
of at most a law-specific size that halve on failure.  The circle law
marches in θ (target e^{iθ}) from the real root at θ = 0, found by
bisection; the line law marches in s = log x (target x = e^s) from just
inside the left support edge, whose root is a perturbation of the defining
equation's branch point.  Every root returned satisfies its defining
equation to 1e−12 in absolute terms; a march that stalls within 1e−6 of a
support edge reports density 0 there, and negative densities no lower than
−1e−12 are roundoff and read 0.  Each solver instance owns its continuation
cache; instances are cheap and single-sweep by design.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .errors import InvalidParameter, NoConvergence

_LOG_TOL = 1e-13  # Newton tolerance on the logarithmic residual
_RESIDUAL_CAP = 1e-12  # contract: defining equation satisfied to this accuracy
_EDGE_STALL = 1e-6  # stalls this close to a support edge report density 0
_NEG_CLAMP = -1e-12  # tiny negative densities are roundoff; clamp to 0


@dataclass(frozen=True)
class ArcSupport:
    """Symmetric arc {e^{iθ} : |θ| ≤ half_width} carrying the circle law."""

    half_width: float

    def __post_init__(self):
        if not (0.0 <= self.half_width <= math.pi):
            raise InvalidParameter("half_width must lie in [0, pi]")

    def contains(self, theta: float) -> bool:
        return abs(theta) <= self.half_width


@dataclass(frozen=True)
class IntervalSupport:
    """Interval [r_minus, r_plus] on the positive half-line."""

    r_minus: float
    r_plus: float

    def __post_init__(self):
        if not (0.0 < self.r_minus <= 1.0 + 1e-12 and self.r_plus >= 1.0 - 1e-12):
            raise InvalidParameter("need 0 < r_minus <= 1 <= r_plus")
        if abs(self.r_minus * self.r_plus - 1.0) > 1e-9:
            raise InvalidParameter("endpoints must multiply to 1 (reciprocal symmetry)")

    def contains(self, x: float) -> bool:
        return self.r_minus <= x <= self.r_plus


def unitary_support(t: float) -> ArcSupport:
    """Support arc of the circle law: half-width ½√(t(4−t)) + arccos(1 − t/2),
    saturating at the full circle for t ≥ 4."""
    if t <= 0.0:
        raise InvalidParameter("circle law requires t > 0")
    if t >= 4.0:
        return ArcSupport(math.pi)
    return ArcSupport(0.5 * math.sqrt(t * (4.0 - t)) + math.acos(1.0 - t / 2.0))


def positive_support(tau: float) -> IntervalSupport:
    """Support interval of the positive-line law.

    With d = √(τ(τ−4)) the endpoints are r_± = ((2−τ±d)/2)·e^{±d/2}; they are
    the critical values of the defining equation at its two real branch points,
    and satisfy r_−·r_+ = 1 exactly.
    """
    if tau >= 0.0:
        raise InvalidParameter("positive-line law requires tau < 0")
    d = math.sqrt(tau * (tau - 4.0))
    r_minus = ((2.0 - tau - d) / 2.0) * math.exp(-d / 2.0)
    r_plus = ((2.0 - tau + d) / 2.0) * math.exp(d / 2.0)
    return IntervalSupport(r_minus, r_plus)


class _Continuation:
    """Continuation solver for the root of map(z) = target(p) on one branch.

    A subclass supplies the defining map ``_map`` and its log-derivative
    ``_dlog``, two singular points with the radius inside which Newton gives
    up (``_singular``), the target as a function of the real march parameter p
    (``_target``), the part of z that is positive on the branch
    (``_branch_part``) and the re-seeds tried when a step lands off the
    branch (``_reseeds``), the largest march step (``_max_step``), a seed
    root (``_start``), the distance of p from a support edge (``_edge_gap``),
    and a public ``root`` that maps its argument to (p, target) for
    ``_root``.  Solved roots are cached sorted by p; a new p marches from the
    nearest cached one, halving the step on failure.  A root that has met the
    residual contract is returned again for the same p and target without a
    second check.
    """

    _law: str  # law and parameter, for error messages
    _param: str  # name of the march parameter, for error messages
    _max_step: float
    _singular: tuple  # ((point, radius), (point, radius))

    def _start(self, p: float, z: complex) -> None:
        self._keys = [p]  # sorted march parameters of the cached roots
        self._roots = [z]
        self._checked = {}  # p -> (target, root) of roots that met the contract

    def _newton(self, z: complex, target: complex) -> complex | None:
        """Damped Newton on log(map(z)/target); None if it fails to converge."""
        (a, ra), (b, rb) = self._singular
        for _ in range(80):
            if abs(z - a) < ra or abs(z - b) < rb:
                return None
            m = self._map(z)
            w = m / target
            if w == 0.0 or cmath.isinf(w) or cmath.isnan(w):
                return None
            r = cmath.log(w)
            if abs(r) < _LOG_TOL:
                break
            dz = -r / self._dlog(z)
            mag = abs(dz)
            if mag > 0.5:
                dz *= 0.5 / mag
            z = z + dz
        else:
            return None
        # the log residual is relative: where |target| is large, polish the
        # absolute residual the contract is stated in
        res = m - target
        if abs(res) > 0.25 * _RESIDUAL_CAP:
            for _ in range(3):
                z = z - res / (m * self._dlog(z))
                m = self._map(z)
                res = m - target
                if abs(res) <= 0.25 * _RESIDUAL_CAP:
                    break
        return z

    def _root(self, p: float, target: complex) -> complex:
        """The branch root at march parameter p, with |map(z) − target| ≤ 1e−12."""
        hit = self._checked.get(p)
        if hit is not None and hit[0] == target:
            return hit[1]
        keys = self._keys
        i = bisect.bisect_left(keys, p)
        if i < len(keys) and keys[i] == p:
            z = self._roots[i]
        else:
            try:
                z = self._march(p, i)
            except NoConvergence:
                if self._edge_gap(p, target) <= _EDGE_STALL:
                    return complex(0.0)  # defective edge root; density vanishes there
                raise
        if abs(self._map(z) - target) > _RESIDUAL_CAP:
            raise NoConvergence(f"{self._law}: residual contract violated")
        self._checked[p] = (target, z)
        return z

    def _march(self, p: float, i: int) -> complex:
        # from the nearest cached parameter (i is p's insertion index), in
        # steps that halve on failure and grow back to _max_step on success
        keys, roots = self._keys, self._roots
        candidates = [j for j in (i - 1, i) if 0 <= j < len(keys)]
        anchor = min(candidates, key=lambda j: abs(keys[j] - p))
        cur, z = keys[anchor], roots[anchor]

        step = self._max_step
        while cur != p:
            nxt = min(p, cur + step) if p > cur else max(p, cur - step)
            target = self._target(nxt)
            z_try = self._newton(z, target)
            if z_try is not None and self._branch_part(z_try) <= 0.0:
                for seed in self._reseeds(z):
                    z_try = self._newton(seed, target)
                    if z_try is not None and self._branch_part(z_try) > 0.0:
                        break
            if z_try is None or self._branch_part(z_try) <= 0.0:
                step *= 0.5
                if step < 1e-13:
                    raise NoConvergence(
                        f"{self._law}: continuation stalled at {self._param} = {cur:.6g} "
                        f"(target {p:.6g})"
                    )
                continue
            cur, z = nxt, z_try
            step = min(self._max_step, step * 2.0)
            k = bisect.bisect_left(keys, cur)
            if k == len(keys) or keys[k] != cur:
                keys.insert(k, cur)
                roots.insert(k, z)
        return z

    def _clamp_negative(self, val: float) -> float:
        # negative densities down to _NEG_CLAMP are roundoff
        if val < _NEG_CLAMP:
            raise NoConvergence(f"{self._law}: density came out negative")
        return 0.0


class CircleDensity(_Continuation):
    """Continuation solver for the circle-law density at a fixed t > 0.

    Marches in θ ≥ 0 (the density is even) with target e^{iθ}, in steps of at
    most π/512, from the real root at θ = 0; the root has Re z > 0.
    """

    _param = "angle"
    _max_step = math.pi / 512
    _singular = ((-1.0, 1e-12), (1.0, 1e-300))
    _target = staticmethod(partial(cmath.rect, 1.0))  # e^{iθ}
    _branch_part = attrgetter("real")

    def __init__(self, t: float):
        if t <= 0.0:
            raise InvalidParameter("circle law requires t > 0")
        self.t = float(t)
        self._law = f"circle law (t={self.t})"
        self.support = unitary_support(self.t)
        self._start(0.0, self._seed_at_origin())

    def _map(self, z: complex) -> complex:
        return (z - 1.0) / (z + 1.0) * cmath.exp(0.5 * self.t * z)

    def _dlog(self, z: complex) -> complex:
        return 2.0 / (z * z - 1.0) + 0.5 * self.t

    @staticmethod
    def _reseeds(z: complex) -> tuple:
        # perturbed seeds biased into Re z > 0
        return (z + 0.05, z * (1.0 + 0.03 + 0.04j), z.conjugate() + 0.1)

    def _seed_at_origin(self) -> complex:
        # real root of (x-1)/(x+1)e^{tx/2} = 1 on (1, 1 + 40/t]: the map is 0 at
        # x = 1+ and exceeds 1 at the right end, so bisection always brackets
        t = self.t
        lo = 1.0 + min(1e-12, 0.25 * math.exp(-min(t, 1400.0) / 2.0))
        hi = 1.0 + 40.0 / t

        def g(x: float) -> float:
            return math.log((x - 1.0) / (x + 1.0)) + 0.5 * t * x

        if not (g(lo) < 0.0 < g(hi)):
            raise NoConvergence("seed bracket failed for the circle-law origin root")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-16 * hi:
                break
        out = self._newton(complex(0.5 * (lo + hi)), 1.0)
        if out is None:
            raise NoConvergence("origin root polish failed for the circle law")
        return out

    def _edge_gap(self, theta: float, target: complex) -> float:
        return self.support.half_width - theta

    def root(self, theta: float) -> complex:
        """The Re z > 0 root at angle θ, residual ≤ 1e−12 on the defining map."""
        th = abs(math.remainder(float(theta), 2.0 * math.pi))
        return self._root(th, self._target(th))

    def __call__(self, theta: float) -> float:
        th = abs(math.remainder(float(theta), 2.0 * math.pi))
        if self.t < 4.0 and th >= self.support.half_width:
            return 0.0
        val = self.root(th).real
        return val if val >= 0.0 else self._clamp_negative(val)


class LineDensity(_Continuation):
    """Continuation solver for the positive-line-law density at a fixed τ < 0.

    Marches in s = log x with target x = e^s, in steps of at most 0.02, from
    just inside the left support edge, where the root branches off
    z_- = (1 − √(1−4/τ))/2 into the upper half plane; the root has Im z > 0.
    """

    _param = "log x"
    _max_step = 0.02
    _singular = ((0.0, 1e-300), (1.0, 1e-300))
    _target = staticmethod(math.exp)
    _branch_part = attrgetter("imag")

    def __init__(self, tau: float):
        if tau >= 0.0:
            raise InvalidParameter("positive-line law requires tau < 0")
        self.tau = float(tau)
        self._law = f"line law (tau={self.tau})"
        self.support = positive_support(self.tau)
        self._seed_interior()

    def _map(self, z: complex) -> complex:
        return z / (z - 1.0) * cmath.exp(-self.tau * (z - 0.5))

    def _dlog(self, z: complex) -> complex:
        return 1.0 / z - 1.0 / (z - 1.0) - self.tau

    @staticmethod
    def _reseeds(z: complex) -> tuple:
        return (z + 0.05j * max(1.0, abs(z)), z * (1.0 + 0.05j))

    def _seed_interior(self):
        z_minus = (1.0 - math.sqrt(1.0 - 4.0 / self.tau)) / 2.0
        x0 = self.support.r_minus * math.exp(0.01)
        scale = max(1.0, abs(z_minus))
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            z = self._newton(complex(z_minus, eps * scale), x0)
            if z is not None and z.imag > 0.0:
                self._start(math.log(x0), z)
                return
        raise NoConvergence(
            f"left-edge seeding failed for the positive-line law at tau={self.tau}"
        )

    def _edge_gap(self, s: float, x: float) -> float:
        return min(
            abs(x - self.support.r_minus) / max(1.0, self.support.r_minus),
            abs(self.support.r_plus - x) / max(1.0, self.support.r_plus),
        )

    def root(self, x: float) -> complex:
        """The Im z > 0 root at x, residual ≤ 1e−12 on the defining map."""
        if x <= 0.0:
            raise InvalidParameter("positive-line law is supported on x > 0")
        x = float(x)
        return self._root(math.log(x), x)

    def __call__(self, x: float) -> float:
        x = float(x)
        if x <= 0.0:
            raise InvalidParameter("positive-line law is supported on x > 0")
        eps_lo = _EDGE_STALL * max(1.0, self.support.r_minus)
        eps_hi = _EDGE_STALL * max(1.0, self.support.r_plus)
        if x <= self.support.r_minus + eps_lo or x >= self.support.r_plus - eps_hi:
            return 0.0
        val = self.root(x).imag / (math.pi * x)
        return val if val >= 0.0 else self._clamp_negative(val)


def unitary_density(theta: float, t: float, *, solver: CircleDensity | None = None) -> float:
    """Circle-law density at angle θ (w.r.t. normalized arc length).

    Pass a shared solver when sweeping many angles at one t; a fresh solver is
    created (and its continuation cache discarded) otherwise.
    """
    if solver is None:
        solver = CircleDensity(t)
    elif solver.t != t:
        raise InvalidParameter("solver was built for a different t")
    return solver(theta)


def positive_density(x: float, tau: float, *, solver: LineDensity | None = None) -> float:
    """Positive-line-law density at x (w.r.t. Lebesgue measure)."""
    if solver is None:
        solver = LineDensity(tau)
    elif solver.tau != tau:
        raise InvalidParameter("solver was built for a different tau")
    return solver(x)


def adaptive_simpson(f, a: float, b: float, *, tol: float = 1e-8, max_depth: int = 48) -> float:
    """Recursive adaptive Simpson quadrature with absolute tolerance.

    Callers integrating a density should split panels at the support edges;
    inside the support the integrands here are analytic, with at worst a
    square-root derivative blowup at the edges, which the recursion absorbs.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(f, a, m, b, fa, fm, fb, whole, tol, 0, max_depth)


def _simpson(f, a, m, b, fa, fm, fb, whole, tol, depth, max_depth):
    # a module-level function, not a closure over itself: a self-recursive
    # closure is a reference cycle that keeps f, and the solver caches f
    # holds, alive until the next full garbage collection
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= max_depth:
        return left + right
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _simpson(f, a, lm, m, fa, flm, fm, left, tol / 2.0, depth + 1, max_depth) + _simpson(
        f, m, rm, b, fm, frm, fb, right, tol / 2.0, depth + 1, max_depth
    )
