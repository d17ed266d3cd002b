"""Benchmark of the heatspec package: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload unitary-mc --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (`setup_s`, `ops_per_s`, `peak_rss_mb`), measured with no
spans.  With `--trace 1` the untraced run is made first in a child process,
then the same rounds are replayed here with a span around every public call,
and the metrics are the per-layer ones.  The package is imported from the
`src` directory next to this one; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: run-to-run spread on a shared 2-core machine halves, and
# the figures do not depend on how many cores other processes leave free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("unitary-mc", "gl-mc", "flow-deep", "exact-sweep")
CHILD_TIMEOUT_S = 150


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def run_rounds(workload, probe, spans=None, seconds=None, rounds=None):
    """Whole rounds until `seconds` of rounds have run, or exactly `rounds`.

    The probe runs between rounds, outside their time.  Returns the rounds'
    total time and, per round, the operations that did not fail per second,
    scaled by the mean of the probes before and after the round.
    """
    wall = 0.0
    counts = []  # (operations that did not fail, seconds, probe before)
    before = probe()
    while (len(counts) < rounds) if rounds is not None else (wall < seconds):
        ok_before = workload.attempted - workload.failed
        t0 = time.perf_counter()
        workload.round(len(counts), spans)
        dt = time.perf_counter() - t0
        wall += dt
        counts.append((workload.attempted - workload.failed - ok_before, dt, before))
        before = probe()
    probes = [c[2] for c in counts[1:]] + [before]
    rates = [ok / dt * (p0 + p1) / (2.0 * probe.REFERENCE_S) for (ok, dt, p0), p1 in zip(counts, probes)]
    return wall, rates


def untraced_run(args):
    """The child of a traced run: its result line and its detail line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced run failed with code {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    src = ROOT / "src"
    if not (src / "heatspec" / "__init__.py").is_file():
        print(f"no heatspec package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import heatspec  # noqa: F401  (timed: the import every CLI call pays)
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    bench_s = time.perf_counter() - t0  # the benchmark's own set-up, left out of setup_s
    t0 = time.perf_counter()
    workload.warm_up()
    warmup_s = time.perf_counter() - t0
    setup_s = process_age() - bench_s
    probe = workloads.HostProbe()
    probe()  # the first call pays for the probe's own first use
    host_scale = probe() / probe.REFERENCE_S

    if not args.trace:
        wall, rates = run_rounds(workload, probe, seconds=args.seconds)
        rounds = len(rates)
        problems = workload.check()
        metrics = {
            "setup_s": (setup_s / host_scale, "s"),
            "ops_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail = {
            "rounds": rounds, "wall_s": wall, "unscaled_setup_s": setup_s,
            "unscaled_ops_per_s": (workload.attempted - workload.failed) / wall, **workload.detail(),
        }
    else:
        child, child_detail = untraced_run(args)
        spans = workloads.Spans()
        wall, rates = run_rounds(workload, probe, spans=spans, rounds=child_detail["rounds"])
        rounds = len(rates)
        problems = workload.check() + workload.compare(child_detail)
        if not child["correct"]:
            problems.append("the untraced run reported incorrect outputs")
        per_call = {name: (spans.per_call(name), "s") for name in (
            "simulate.sample_s", "simulate.spectrum_s", "simulate.integral_s", "trace_poly.eval_s",
            "flow.cold_query_s", "flow.warm_query_s", "flow.limit_s",
            "density.init_s", "density.eval_s", "density.quad_self_s",
        )}
        metrics = {
            "setup.import_s": (import_s, "s"),
            "setup.warmup_s": (warmup_s, "s"),
            **per_call,
            "density.evals": (spans.calls["density.eval_s"] // rounds, "count"),
            "trace.overhead_s": (wall - child_detail["wall_s"], "s"),
        }
        detail = {"rounds": rounds, "wall_s": wall, "untraced_wall_s": child_detail["wall_s"]}

    for line in problems[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
