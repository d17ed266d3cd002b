"""Command-line experiment runner.

Every subcommand emits machine-readable output (JSON on stdout, optional CSV
files) stamped with a run manifest: subcommand name, the full resolved flag
set, the seed, the tool version, and wall time.  CSV headers carry the
deterministic part of the manifest (no wall time) so that repeated runs with
the same seed produce byte-identical files.

Exit codes: 0 on success, 2 on invalid parameters or configuration, 1 on
internal numerical failures (and on a failed check report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .density import CircleDensity, LineDensity, positive_support
from .errors import HeatspecError, InvalidConfig, InvalidParameter
from .flow import finite_N_covariance_unitary, finite_N_expectation, intertwined_laplacian, limit_expectation, numerical_laplacian
from .moments import SAFE_MAX_N, moment_table
from .simulate import EnsembleConfig, TestFunction, haar_unitary, mc_experiment, path_rng
from .trace_poly import parse_poly, v


def _flags(ns: argparse.Namespace) -> dict:
    """The resolved flag set, sorted by name."""
    return {k: val for k, val in sorted(vars(ns).items()) if k not in ("func", "command")}


def _manifest(name: str, ns: argparse.Namespace, t0: float) -> dict:
    return {
        "subcommand": name,
        "flags": _flags(ns),
        "seed": getattr(ns, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }


def _manifest_comment(name: str, ns: argparse.Namespace) -> str:
    """Deterministic manifest line for CSV headers (no wall time)."""
    body = ", ".join(f"{k}={val}" for k, val in _flags(ns).items())
    return f"# manifest: subcommand={name}, version={__version__}, {body}"


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _c2pair(z: complex) -> list:
    return [z.real, z.imag]


# -- moments -------------------------------------------------------------------


def cmd_moments(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if ns.max_n > SAFE_MAX_N and not ns.unsafe_precision:
        raise InvalidParameter(
            f"max-n {ns.max_n} exceeds the numerically safe range "
            f"(> {SAFE_MAX_N}); pass --unsafe-precision to force"
        )
    table = moment_table(ns.t, ns.max_n)
    pairs = [[n, table.entries[n]] for n in range(ns.max_n + 1)]
    _emit({
        "manifest": _manifest("moments", ns, t0),
        "t": ns.t,
        "max_n": ns.max_n,
        "moments": pairs,
    })
    return 0


# -- flow ----------------------------------------------------------------------


def cmd_flow(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    p = parse_poly(ns.poly)
    if ns.N == "limit":
        N_out: object = "limit"
        value = limit_expectation(p, ns.u)
    else:
        try:
            N = int(ns.N)
        except ValueError as exc:
            raise InvalidParameter(f"--N must be an integer or 'limit', got {ns.N!r}") from exc
        if N < 1:
            raise InvalidParameter("--N must be a positive integer or 'limit'")
        N_out = N
        value = finite_N_expectation(p, ns.u, N, degree_cap=ns.degree_cap)
    _emit({
        "manifest": _manifest("flow", ns, t0),
        "poly": ns.poly,
        "u": ns.u,
        "N": N_out,
        "value": _c2pair(value),
    })
    return 0


# -- simulate --------------------------------------------------------------------


def _parse_observables(arg: str):
    """Comma list: trace-polynomial strings, or sv:<k> for the k-th moment of
    the squared-singular-value spectrum (eigenvalues of ZZ*)."""
    names, obs = [], []
    for entry in arg.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if entry.startswith("sv:"):
            try:
                k = int(entry[3:])
            except ValueError as exc:
                raise InvalidParameter(f"observable {entry!r}: sv:<k> needs an integer k") from exc
            obs.append(TestFunction.chi(k))
        else:
            obs.append(parse_poly(entry))
        names.append(entry)
    if not obs:
        raise InvalidConfig("at least one observable is required")
    return names, obs


def cmd_simulate(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cfg = EnsembleConfig(
        group=ns.group, N=ns.N, t=ns.t, s=ns.s,
        steps=ns.steps, paths=ns.paths, seed=ns.seed,
    )
    names, obs = _parse_observables(ns.observables)

    out = None
    dump = None
    if ns.out is not None:
        out = open(ns.out, "w", encoding="utf-8", newline="\n")
        out.write(_manifest_comment("simulate", ns) + "\n")
        out.write(
            f"# group={cfg.group}, N={cfg.N}, t={cfg.t}, s={cfg.s}, seed={cfg.seed}\n"
        )
        out.write("path,index,re,im\n")

        def dump(path_index: int, values: np.ndarray) -> None:
            for i, lam in enumerate(values):
                z = complex(lam)
                out.write(f"{path_index},{i},{z.real!r},{z.imag!r}\n")

    try:
        summary = mc_experiment(cfg, obs, names=names, spectrum_dump=dump)
    finally:
        if out is not None:
            out.close()

    _emit({
        "manifest": _manifest("simulate", ns, t0),
        "config": {
            "group": cfg.group, "N": cfg.N, "t": cfg.t, "s": cfg.s,
            "steps": cfg.steps, "paths": cfg.paths, "seed": cfg.seed,
        },
        "observables": [
            {
                "name": summary.names[i],
                "mean": _c2pair(summary.means[i]),
                "variance": summary.variances[i],
                "stderr": summary.stderrs[i],
            }
            for i in range(len(summary.names))
        ],
    })
    return 0


# -- density ---------------------------------------------------------------------


def cmd_density(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if ns.grid < 2:
        raise InvalidConfig("--grid must be at least 2")
    if ns.law == "unitary":
        solver = CircleDensity(ns.t)
        xs = np.linspace(-math.pi, math.pi, ns.grid)
        # density with respect to dtheta, so the trapezoid mass of the grid is ~1
        ys = [solver(x) / (2.0 * math.pi) for x in xs]
    elif ns.law == "positive":
        tau = -abs(ns.t)
        support = positive_support(tau)
        solver = LineDensity(tau)
        # cosine-spaced grid: clusters points at the square-root edges so the
        # trapezoid mass of the dumped table converges fast
        frac = (1.0 - np.cos(np.linspace(0.0, math.pi, ns.grid))) / 2.0
        xs = support.r_minus + (support.r_plus - support.r_minus) * frac
        ys = [solver(x) for x in xs]
    else:
        raise InvalidParameter(f"unknown law {ns.law!r}")

    lines = [_manifest_comment("density", ns), f"# law={ns.law}, t={ns.t}", "theta_or_x,density"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    text = "\n".join(lines) + "\n"
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if ns.out is not None:
        _emit({
            "manifest": _manifest("density", ns, t0),
            "law": ns.law,
            "t": ns.t,
            "grid": ns.grid,
            "trapezoid_mass": float(np.trapezoid(ys, xs)),
        })
    return 0


# -- variance scan ----------------------------------------------------------------


def cmd_variance_scan(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    try:
        Ns = [int(x) for x in ns.Ns.split(",") if x.strip()]
    except ValueError as exc:
        raise InvalidParameter(f"--Ns must be a comma list of integers, got {ns.Ns!r}") from exc
    if not Ns:
        raise InvalidConfig("--Ns must list at least one matrix size")
    if any(n < 2 for n in Ns):
        raise InvalidConfig("variance scan requires N >= 2")
    p = parse_poly(ns.observable)

    rows = []
    for N in Ns:
        cfg = EnsembleConfig(group="unitary", N=N, t=ns.t, paths=ns.paths, seed=0)
        summary = mc_experiment(cfg, [p], names=[ns.observable])
        exact = finite_N_covariance_unitary(p, p, ns.t, N).real
        rows.append({"N": N, "variance": summary.variances[0], "exact_variance": exact})

    slope = None
    if len(Ns) >= 2:
        logN = np.log([r["N"] for r in rows])
        logv = np.log([r["variance"] for r in rows])
        slope = float(np.polyfit(logN, logv, 1)[0])
    _emit({
        "manifest": _manifest("variance-scan", ns, t0),
        "t": ns.t,
        "observable": ns.observable,
        "paths": ns.paths,
        "rows": rows,
        "slope": slope,
    })
    return 0


# -- intertwining check -------------------------------------------------------------


def cmd_check_intertwine(ns: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if ns.hstep <= 0:
        raise InvalidConfig("--hstep must be positive")
    if ns.N < 1:
        raise InvalidConfig("--N must be a positive integer")
    cases = [("v2", v(2)), ("v3", v(3)), ("v2*v3", v(2) * v(3))]
    rng = path_rng(ns.seed, 0)
    U = haar_unitary(ns.N, rng)

    reports = []
    all_pass = True
    for name, p in cases:
        fd = numerical_laplacian(p, U, h=ns.hstep)
        op = intertwined_laplacian(p, U, N=ns.N)
        rel = abs(fd - op) / max(abs(op), 1e-12)
        entry = {"poly": name, "rel_error": rel, "pass": bool(rel < 1e-4)}
        if ns.N == 1:
            # on the circle the whole pipeline must collapse to the scalar
            # power law: the Laplacian of u^sigma is -sigma^2 u^sigma
            u_scalar = complex(U[0, 0])
            sigma = sum(k * e for m in p.terms for k, e in m)
            exact = -(sigma ** 2) * u_scalar ** sigma
            entry["power_law_rel_error"] = abs(op - exact) / max(abs(exact), 1e-12)
            entry["pass"] = bool(entry["pass"] and entry["power_law_rel_error"] < 1e-10)
        all_pass = all_pass and entry["pass"]
        reports.append(entry)

    _emit({
        "manifest": _manifest("check-intertwine", ns, t0),
        "N": ns.N,
        "hstep": ns.hstep,
        "cases": reports,
        "all_pass": all_pass,
    })
    return 0 if all_pass else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heatspec",
        description="Spectral statistics of Brownian motion on matrix groups.",
    )
    ap.add_argument("--version", action="version", version=f"heatspec {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="limiting spectral moments as JSON")
    p.add_argument("--t", type=float, required=True, help="heat time")
    p.add_argument("--max-n", type=int, required=True, help="largest moment order")
    p.add_argument("--unsafe-precision", action="store_true",
                   help="allow orders beyond the numerically safe range")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("flow", help="expected trace polynomial under the heat flow")
    p.add_argument("--poly", type=str, required=True, help="trace polynomial, e.g. 'v1' or '0.5*v2*v2 - 3'")
    p.add_argument("--u", type=float, required=True, help="flow parameter")
    p.add_argument("--N", type=str, default="limit", help="matrix size, or 'limit'")
    p.add_argument("--degree-cap", type=int, default=12, help="largest trace degree handled")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("simulate", help="Monte-Carlo sampling of a matrix ensemble")
    p.add_argument("--group", choices=["unitary", "gl"], required=True)
    p.add_argument("--N", type=int, required=True, help="matrix size")
    p.add_argument("--t", type=float, required=True, help="heat time")
    p.add_argument("--s", type=float, default=None, help="second parameter (gl only, s > t/2)")
    p.add_argument("--steps", type=int, default=None, help="Euler steps per path (default 100 per unit time)")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="CSV file for per-path eigenvalue dumps")
    p.add_argument("--observables", type=str, default="v1",
                   help="comma list of trace polynomials, or sv:<k> for moments of ZZ*")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density", help="limiting spectral density on a grid as CSV")
    p.add_argument("--law", choices=["unitary", "positive"], required=True)
    p.add_argument("--t", type=float, required=True,
                   help="heat time (positive law: magnitude of the negative time)")
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--out", type=str, default=None, help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("variance-scan", help="variance of an observable across matrix sizes")
    p.add_argument("--Ns", type=str, required=True, help="comma list of matrix sizes")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--observable", type=str, default="v1")
    p.add_argument("--paths", type=int, default=1000)
    p.set_defaults(func=cmd_variance_scan)

    p = sub.add_parser("check-intertwine",
                       help="finite-difference Laplacian vs the operator image")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hstep", type=float, default=1e-3)
    p.set_defaults(func=cmd_check_intertwine)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except InvalidParameter as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except HeatspecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
