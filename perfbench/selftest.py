"""Self-test of the benchmark.

    python3 perfbench/selftest.py            # tracer coverage
    python3 perfbench/selftest.py --seeds    # also one operation per workload
                                             # on the default and confirmation seeds

Tracer coverage fails if any nlss module still holds an unwrapped original
after the tracer is installed, or if a call made through a name bound by
``from .scalar import ...`` escapes the span stack.
"""

from __future__ import annotations

import argparse
import os
import sys

import run  # noqa: F401  (puts the benchmark directory on sys.path)
from run import DEFAULT_SEED, ROOT, WORKLOADS, metric_lists

CONFIRM_SEED = 2


def tracer_coverage() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracer import Tracer, metric_value

    tr = Tracer().install()
    problems = [f"unwrapped original: {name}" for name in tr.unwrapped()]
    traced = {name for _, name in tr.originals.values()}
    for metric, _ in metric_lists()[1]:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and base not in traced:
            problems.append(f"no traced function for {metric}")

    # thresholds reaches the scalar solver through its own imported name, and
    # the scalar solver reaches sphere_descent through another
    import math

    from nlss import thresholds
    from nlss.functional import SystemParams
    from nlss.grids import DomainSpec, build_grid
    from nlss.options import SolverOptions
    from nlss.spectral import get_spectrum

    g = build_grid(DomainSpec("interval", (math.pi,), 12))
    s = get_spectrum(g)
    lam = s.lambda1()
    thresholds.compute_thresholds(
        SystemParams(lam, lam, 1.0, 1.0, 0.5), g, s, SolverOptions(max_iter=20, restarts=2)
    )
    snap = tr.snapshot()
    if metric_value(snap, "scalar.solve_scalar_ground.calls") != 2:
        problems.append("scalar.solve_scalar_ground not traced through thresholds")
    if metric_value(snap, "opt.sphere_descent.calls") < 4:
        problems.append("opt.sphere_descent not traced through scalar")
    total = metric_value(snap, "thresholds.compute_thresholds.s")
    if not 0.0 <= metric_value(snap, "thresholds.compute_thresholds.self_s") < total:
        problems.append("self time of thresholds.compute_thresholds not below its inclusive time")
    return problems


def seeds() -> list[str]:
    problems = []
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, CONFIRM_SEED):
            res = run.run(name, seed, 0.0, False, log=lambda *_: None)
            print(f"{name} seed {seed}: attempted {res['attempted']}, failed {res['failed']}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} seed {seed}: {res['failed']} failed")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", action="store_true")
    args = ap.parse_args()
    problems = tracer_coverage()
    if args.seeds:
        problems += seeds()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
