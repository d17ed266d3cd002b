"""The four benchmark workloads.

Each workload runs in whole rounds.  A round is a fixed set of operations whose
inputs come from numpy's generator seeded with (seed, round index), so the same
seed gives the same inputs and every round costs the same kind of work.  A
round called without spans is the untraced path whose time is reported end to
end; a round called with spans times each public call into the package, from
outside, for the per-layer figures.  Outputs are kept and checked against
`oracles` after the timed section.

Only entry points that the package keeps are called: `mc_experiment`,
`sample_matrix`, `extract_spectrum`, `empirical_integral`, `eval_on_matrix`,
`finite_N_expectation`, `limit_expectation`, `CircleDensity`, `LineDensity`,
`unitary_density`, `positive_density` and `adaptive_simpson`.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections import defaultdict
from time import perf_counter

import numpy as np

from heatspec import (
    CircleDensity,
    EnsembleConfig,
    HeatspecError,
    LineDensity,
    TestFunction,
    TracePoly,
    adaptive_simpson,
    empirical_integral,
    eval_on_matrix,
    extract_spectrum,
    finite_N_expectation,
    limit_expectation,
    mc_experiment,
    positive_density,
    sample_matrix,
    unitary_density,
    v,
)

import oracles

# z-score band for Monte Carlo means; a false alarm at 5 s.e. has odds ~1e-6
Z_BAND = 5.0


class Spans:
    """Seconds and call counts per layer, timed around public calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def add(self, name, dt):
        self.seconds[name] += dt
        self.calls[name] += 1

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, perf_counter() - t0)

    def per_call(self, name):
        return self.seconds[name] / self.calls[name] if self.calls[name] else 0.0


class HostProbe:
    """A fixed piece of work whose time tracks the host's current speed.

    The machines the benchmark runs on share their cores with other virtual
    machines, and their speed drifts by up to 40% over tens of seconds.  The
    probe mixes the three kinds of work the workloads do (interpreted Python,
    small complex matrix products, one large one); rates are scaled by its
    time over REFERENCE_S, its time on an unloaded 2-core host with OpenBLAS
    0.3.31, so figures read as if measured there.
    """

    REFERENCE_S = 0.009

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.large = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def __call__(self) -> float:
        t0 = perf_counter()
        x, slots = 0.0, {}
        for i in range(20000):
            x = (x * 1.0000001 + i) % 1000.0
            slots[i & 255] = x
        X = self.small
        for _ in range(150):
            X = self.small @ X
            X = X / np.abs(X).max()
        self.large @ self.large @ self.large
        return perf_counter() - t0


def rng_for(seed, r):
    return np.random.default_rng([seed, r])


# -- trace polynomials kept as {((k, e), ...): c}, apart from the package -----


class Poly:
    """A trace polynomial kept as {((k, e), ...): c}, with its package form."""

    def __init__(self, terms):
        self.terms = terms
        self.degree = max(sum(abs(k) * e for k, e in mono) for mono in terms)
        self.l1 = sum(abs(c) for c in terms.values())
        self.tp = TracePoly.zero()
        for mono, c in terms.items():
            m = TracePoly.const(c)
            for k, e in mono:
                m = m * v(k) ** e
            self.tp = self.tp + m

    def star(self):
        return Poly({tuple(sorted((-k, e) for k, e in mono)): complex(c).conjugate() for mono, c in self.terms.items()})


def monomials(n):
    """All nonconstant monomials of trace degree <= n, in a fixed order."""
    out = []

    def grow(indices, budget, cur):
        if cur:
            out.append(tuple(cur))
        for i, k in enumerate(indices):
            e = 1
            while e * abs(k) <= budget:
                grow(indices[i + 1:], budget - e * abs(k), cur + [(k, e)])
                e += 1

    grow([k for k in range(-n, n + 1) if k], n, [])
    return sorted(out)


def limit_by_moments(terms, u):
    total = 0j
    for mono, c in terms.items():
        val = complex(c)
        for k, e in mono:
            val *= oracles.limit_moment(k, u) ** e
        total += val
    return total


# -- workloads ----------------------------------------------------------------


class Workload:
    """Common bookkeeping: operations attempted and failed, checks, detail."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def detail(self):
        return {}

    def compare(self, untraced_detail):
        return []


class MonteCarlo(Workload):
    """Heat-kernel Monte Carlo; an operation is one sampled path."""

    group = None
    paths_per_round = None

    def __init__(self, seed):
        super().__init__(seed)
        self.summaries = []  # (paths, means, variances) per round
        self.path_problems = []

    def config(self, r):
        return EnsembleConfig(
            group=self.group, N=self.N, t=self.t, s=self.s, steps=self.steps,
            paths=self.paths_per_round, seed=int(rng_for(self.seed, r).integers(2**63)),
        )

    def warm_up(self):
        mc_experiment(dataclasses.replace(self.config(0), N=2, steps=2, paths=1), self.objects)

    def round(self, r, spans):
        cfg = self.config(r)
        self.attempted += cfg.paths
        if spans is None:
            try:
                res = mc_experiment(cfg, self.objects)
            except HeatspecError:
                self.failed += cfg.paths
                return
            self.summaries.append((res.paths, res.means, res.variances))
            return
        # separate loop over the same paths, one span per public call
        kind = "circle" if self.group == "unitary" else "positive"
        count = 0
        means = np.zeros(len(self.objects), dtype=complex)
        m2 = np.zeros(len(self.objects))
        for j in range(cfg.paths):
            try:
                Z = spans.call("simulate.sample_s", sample_matrix, cfg, j)
                spectrum = spans.call("simulate.spectrum_s", extract_spectrum, Z, kind)
                xs = [
                    spans.call("trace_poly.eval_s", eval_on_matrix, o, Z)
                    if isinstance(o, TracePoly)
                    else spans.call("simulate.integral_s", empirical_integral, spectrum, o)
                    for o in self.objects
                ]
            except HeatspecError:
                self.failed += 1
                continue
            self.check_path(Z, xs)
            count += 1
            for i, x in enumerate(xs):
                delta = x - means[i]
                means[i] += delta / count
                m2[i] += (np.conj(delta) * (x - means[i])).real
        if count:
            var = tuple(float(m / (count - 1)) if count > 1 else 0.0 for m in m2)
            self.summaries.append((count, tuple(complex(m) for m in means), var))

    def pooled(self):
        """Means and standard errors over all rounds (independent seeds)."""
        n = sum(p for p, _, _ in self.summaries)
        means = [sum(p * m[i] for p, m, _ in self.summaries) / n for i in range(len(self.objects))]
        ses = []
        for i, mu in enumerate(means):
            ss = sum((p - 1) * var[i] + p * abs(m[i] - mu) ** 2 for p, m, var in self.summaries)
            ses.append(math.sqrt(ss / (n - 1) / n))
        return means, ses

    def check(self):
        problems = list(self.path_problems)
        if not self.summaries:
            return problems + ["no completed round"]
        means, ses = self.pooled()
        for name, want, mean, se in zip(self.names, self.expected(), means, ses):
            if want is not None and abs(mean - want) > Z_BAND * se:
                problems.append(f"mean of {name} {mean:.6g} is {abs(mean - want) / se:.1f} s.e. from {want:.6g}")
        return problems + self.check_means(means)

    def check_means(self, means):
        return []

    def detail(self):
        if not self.summaries:
            return {}
        means, _ = self.pooled()
        return {"means": [[m.real, m.imag] for m in means]}

    def compare(self, untraced_detail):
        mine = self.detail().get("means", [])
        theirs = untraced_detail.get("means", [])
        if len(mine) != len(theirs):
            return ["traced and untraced runs produced different observables"]
        return [
            f"traced mean of {name} {complex(*a)} differs from untraced {complex(*b)}"
            for name, a, b in zip(self.names, mine, theirs)
            if abs(complex(*a) - complex(*b)) > 1e-12 * (1.0 + abs(complex(*b)))
        ]


class UnitaryMC(MonteCarlo):
    group = "unitary"
    N, t, s, steps = 32, 1.0, None, 200
    paths_per_round = 16
    names = ("v1", "v2", "v1*v-1", "sv:1")
    objects = [v(1), v(2), v(1) * v(-1), TestFunction.chi(1)]

    def expected(self):
        N, t = self.N, self.t
        return [oracles.mean_v1(t), oracles.mean_v2(t, N), oracles.mean_v1_vm1(t, N), None]

    def check_means(self, means):
        # the eigenvalue sum and the trace reach the same number by two routes
        if abs(means[3] - means[0]) > 1e-12:
            return [f"circle-spectrum integral {means[3]} differs from the v1 mean {means[0]}"]
        return []

    def check_path(self, Z, xs):
        drift = float(np.max(np.abs(Z.conj().T @ Z - np.eye(self.N))))
        if drift > 1e-10:
            self.path_problems.append(f"sample off the unitary group by {drift:.2e}")


class GeneralLinearMC(MonteCarlo):
    group = "gl"
    N, t, s, steps = 32, 0.5, 1.0, 400
    paths_per_round = 4
    names = ("v1", "v2", "sv:1")
    objects = [v(1), v(2), TestFunction.chi(1)]

    def expected(self):
        u = self.s - self.t
        return [oracles.mean_v1(u), oracles.mean_v2(u, self.N), math.exp(self.t)]

    def check_path(self, Z, xs):
        frob = float(np.sum(np.abs(Z) ** 2)) / self.N
        if abs(xs[2] - frob) > 1e-10 * frob:
            self.path_problems.append(f"positive-spectrum integral {xs[2]} is not |Z|_F^2/N = {frob}")


class Exact(Workload):
    """Shared flow-query bookkeeping for the two exact workloads."""

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = set()  # (u, N, degree) already asked in this process

    def expectation(self, p, u, N, spans):
        key = (u, N, p.degree)
        cold = key not in self.asked
        self.asked.add(key)
        if spans is None:
            return finite_N_expectation(p.tp, u, N)
        name = "flow.cold_query_s" if cold else "flow.warm_query_s"
        return spans.call(name, finite_N_expectation, p.tp, u, N)

    def limit(self, p, u, spans):
        if spans is None:
            return limit_expectation(p.tp, u)
        return spans.call("flow.limit_s", limit_expectation, p.tp, u)


V1, V2, V1VM1, V5VM5 = ((1, 1),), ((2, 1),), ((-1, 1), (1, 1)), ((-5, 1), (5, 1))
DEGREE_10 = [m for m in monomials(10) if sum(abs(k) * e for k, e in m) == 10]
LOW = [m for m in monomials(6) if m not in (V1, V2, V1VM1)]
CHECKED = (("v1", V1), ("v2", V2), ("v1*v-1", V1VM1))


class FlowDeep(Exact):
    """Degree-10 expectations at (u, N) pairs new to the process.

    Rounds come in threes that share u and a polynomial q: (u, 16), (u, 32)
    and the backward flow (-u, N_b).  At each pair the first query is cold and
    the others reuse the cached flow.  An operation is one
    `finite_N_expectation` or `limit_expectation` call, seven per round.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.records = []

    def warm_up(self):
        finite_N_expectation(v(1) * v(-1), 0.5, 3)
        limit_expectation(v(1) * v(-1), 0.5)

    def round(self, r, spans):
        rng = rng_for(self.seed, r // 3)
        # the generator's 1-norm is 50|u| at degree 10; this band keeps it in
        # (32, 64], so every cold query takes 7 squarings and costs the same
        u = 0.85 + 0.1 * rng.random()
        u, N = [(u, 16), (u, 32), (-u, int(rng.choice([12, 20, 24])))][r % 3]
        c = rng.standard_normal((4, 2)) @ np.array([1.0, 1.0j])
        terms = {V5VM5: c[0], ((-2, 2), (3, 2)): c[1]}
        terms[DEGREE_10[rng.integers(len(DEGREE_10))]] = c[2]
        terms[LOW[rng.integers(len(LOW))]] = c[3]
        q = Poly(terms)
        queries = [("q", q), ("star", q.star())]
        queries += [(name, Poly({**terms, m: terms.get(m, 0) + 1.0})) for name, m in CHECKED]
        g = Poly({V5VM5: 1.0})
        queries.append(("g", g))
        self.attempted += len(queries) + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ConditioningWarning at degree 10 is expected
            try:
                out = {name: self.expectation(p, u, N, spans) for name, p in queries}
                out["g_limit"] = self.limit(g, u, spans)
            except HeatspecError:
                self.failed += len(queries) + 1
                return
        self.records.append((u, N, out))

    def check(self):
        problems = []
        for u, N, out in self.records:
            eq = out["q"]
            tol = 1e-10 * (1.0 + abs(eq))
            for (name, _), want in zip(
                CHECKED, (oracles.mean_v1(u), oracles.mean_v2(u, N), oracles.mean_v1_vm1(u, N))
            ):
                if abs(out[name] - eq - want) > tol:
                    problems.append(f"E[q+{name}]-E[q] = {out[name] - eq} at u={u}, N={N}; want {want}")
            if abs(out["star"] - eq.conjugate()) > tol:
                problems.append(f"E[q*] {out['star']} is not conj E[q] {eq} at u={u}, N={N}")
            want = oracles.limit_moment(5, u) ** 2
            if abs(out["g_limit"] - want) > 1e-12 * want:
                problems.append(f"limit of v5*v-5 {out['g_limit']} at u={u} off the closed form")
        gaps = {(u, N): abs(out["g"] - out["g_limit"]) for u, N, out in self.records}
        for (u, N), gap in gaps.items():
            if N == 16 and (u, 32) in gaps:
                ratio = gap / gaps[(u, 32)] if gaps[(u, 32)] else math.inf
                if not 3.0 <= ratio <= 5.0:
                    problems.append(f"v5*v-5 gap ratio N=16/N=32 is {ratio:.3f} at u={u}")
        return problems + ([] if self.records else ["no completed query"])


# A density that does not settle to the quadrature tolerance would make
# adaptive_simpson recurse to depth 48; a correct one needs under 20 000
# evaluations per integral here.
EVAL_BUDGET = 200_000


class QuadratureStalled(Exception):
    pass


class ExactSweep(Exact):
    """Many small exact computations.

    A round asks 200 random polynomials of degree <= 6 at 9 grid points
    (finite N, its adjoint and the limit: one operation per polynomial and
    point) and computes 27 density integrals with fresh solvers (one
    operation each): circle law at t in {1, 2, 4}, mass and moments n <= 6;
    positive-line law at tau in {-0.5, -1, -2}, mass and mean.
    """

    us, Ns, ts, taus = (0.25, 1.0, 4.0), (2, 4, 8), (1.0, 2.0, 4.0), (-0.5, -1.0, -2.0)
    polys_per_round = 200
    MONOS = monomials(6)

    def __init__(self, seed):
        super().__init__(seed)
        self.records = []
        self.integrals = []  # (description, value, wanted, tolerance)
        self.stalled = []  # integrals that ran out of evaluations

    def warm_up(self):
        finite_N_expectation(v(1) * v(-1), 0.5, 3)
        limit_expectation(v(1), 0.5)
        circle, line = CircleDensity(0.5), LineDensity(-0.25)
        adaptive_simpson(lambda th: unitary_density(th, 0.5, solver=circle), 0.0, 0.1, tol=1e-6)
        adaptive_simpson(lambda x: positive_density(x, -0.25, solver=line), 0.9, 1.1, tol=1e-6)

    def round(self, r, spans):
        rng = rng_for(self.seed, r)
        # a grid moved by up to 5% each round, so every round asks some cold
        # (u, N, degree) as well as many repeated ones
        us = [u * (1.0 + 0.05 * rng.random()) for u in self.us]
        polys = []
        for _ in range(self.polys_per_round):
            idx = rng.choice(len(self.MONOS), size=int(rng.integers(1, 5)), replace=False)
            p = Poly({self.MONOS[i]: complex(rng.normal(), rng.normal()) for i in idx})
            polys.append((p, p.star()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # ConditioningWarning at u = 4 is expected
            for u in us:
                for N in self.Ns:
                    for p, p_star in polys:
                        self.attempted += 1
                        try:
                            fin = self.expectation(p, u, N, spans)
                            fin_star = self.expectation(p_star, u, N, spans)
                            lim = self.limit(p, u, spans)
                        except HeatspecError:
                            self.failed += 1
                            continue
                        self.records.append((p, u, N, fin, fin_star, lim))
        for t in self.ts:
            self.integrate("circle", t, spans)
        for tau in self.taus:
            self.integrate("line", tau, spans)

    def integrate(self, law, param, spans):
        if law == "circle":
            make, density = CircleDensity, unitary_density
            a, b = 0.0, oracles.circle_half_width(param)
            weights = [(f"circle t={param} mass", lambda th: 1.0 / math.pi, 1.0)] + [
                (f"circle t={param} moment {n}", lambda th, n=n: math.cos(n * th) / math.pi,
                 oracles.limit_moment(n, param))
                for n in range(1, 7)
            ]
        else:
            make, density = LineDensity, positive_density
            a, b = oracles.line_support(param)
            weights = [
                (f"line tau={param} mass", lambda x: 1.0, 1.0),
                (f"line tau={param} mean", lambda x: x, math.exp(-param / 2.0)),
            ]
        self.attempted += len(weights)
        try:
            solver = make(param) if spans is None else spans.call("density.init_s", make, param)
        except HeatspecError:
            self.failed += len(weights)
            return
        for what, weight, want in weights:
            evals = 0

            def f(x, w=weight):
                nonlocal evals
                evals += 1
                if evals > EVAL_BUDGET:
                    raise QuadratureStalled(what)
                if spans is None:
                    return w(x) * density(x, param, solver=solver)
                return w(x) * spans.call("density.eval_s", density, x, param, solver=solver)

            evals_s = spans.seconds["density.eval_s"] if spans else 0.0
            t0 = perf_counter()
            try:
                value = adaptive_simpson(f, a, b, tol=1e-10)
            except HeatspecError:
                self.failed += 1
                continue
            except QuadratureStalled:
                self.stalled.append(what)
                continue
            if spans is not None:
                quad = perf_counter() - t0
                spans.add("density.quad_self_s", quad - (spans.seconds["density.eval_s"] - evals_s))
            self.integrals.append((what, value, want, 1e-6 if "mass" in what else 1e-5))

    def check(self):
        problems = []
        for p, u, N, fin, fin_star, lim in self.records:
            bound = oracles.deviation_bound(p.degree, p.l1, abs(u), N)
            if abs(fin - lim) > bound:
                problems.append(f"gap {abs(fin - lim):.3g} above bound {bound:.3g} at u={u}, N={N}")
            want = limit_by_moments(p.terms, u)
            if abs(lim - want) > 1e-10 * max(1.0, abs(want)):
                problems.append(f"limit {lim} is not the moment product {want} at u={u}")
            # where the package warns that its flow may amplify roundoff,
            # (|u|/2) n^2 > 20, it is held to 1e-6 instead of 1e-10
            star_tol = (1e-6 if abs(u) / 2.0 * p.degree**2 > 20.0 else 1e-10) * max(1.0, p.l1)
            if abs(fin_star - fin.conjugate()) > star_tol:
                problems.append(f"E[p*] {fin_star} is not conj E[p] {fin} at u={u}, N={N}")
        for what, value, want, tol in self.integrals:
            if abs(value - want) > tol:
                problems.append(f"{what}: {value!r}, want {want!r}")
        problems += [f"{what}: adaptive_simpson needed over {EVAL_BUDGET} evaluations" for what in self.stalled]
        return problems + ([] if self.records and self.integrals else ["no completed operation"])


WORKLOADS = {
    "unitary-mc": UnitaryMC,
    "gl-mc": GeneralLinearMC,
    "flow-deep": FlowDeep,
    "exact-sweep": ExactSweep,
}
