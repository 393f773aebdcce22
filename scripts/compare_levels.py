#!/usr/bin/env python3
"""Check that this tree gives the results of another nlss checkout.

Usage: python3 scripts/compare_levels.py PARENT_ROOT [--workload NAME] [--seed N]

Runs `nlss solve` (report workloads) or `nlss sweep` on the benchmark's
configs (perfbench/workloads.py), once with this tree's src/ and once with
PARENT_ROOT's, each with NLSS_THREADS=1 and one BLAS thread.  The default
configs are resonant-1d seeds 1000, 1001, 2000 and 7003, indefinite-sweep
seeds 1000, 2000 and 3000, and resonant-2d seeds 1000 and 1001;
--workload and --seed keep only the matching ones.  Prints, per config and
over all, the largest relative move of e_est, c', c_sem, the thresholds
beta_hat1 and beta_hat2 and S' = sqrt(4 c'), and the largest absolute move
of minimizer_angle (reports only: sweep.csv does not hold it).  It also
prints whether the artifacts (report.json and report.csv, or sweep.csv and
sweep.svg) are byte-identical to PARENT_ROOT's, and, for a sweep, runs this
tree again at NLSS_THREADS=2 and byte-compares that run's artifacts with
its NLSS_THREADS=1 run's.  Per config it prints the work of each tree's
NLSS_THREADS=1 run: its fiber maximizations on k = 1 and on k = 2 charts
(nlss.fiber.fiber_maximize), printed as fiber_max, and its sphere
descents (sphere_descent), counted in the run's process and written to
work_counts.json next to its artifacts.  It also prints
the line counts of src/nlss/*.py and of tests/*.py (each the total of
wc -l) in both trees, so that code moved into the tests does not pass for
code removed.  Exits 1 if any verdict differs or a run fails, else 0.
perfbench/ is only read.
"""

import argparse
import csv
import glob
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # read perfbench/, leave nothing in it
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_CONFIGS = [
    ("resonant-1d", 1000), ("resonant-1d", 1001), ("resonant-1d", 2000), ("resonant-1d", 7003),
    ("indefinite-sweep", 1000), ("indefinite-sweep", 2000), ("indefinite-sweep", 3000),
    ("resonant-2d", 1000), ("resonant-2d", 1001),
]
ARTIFACTS = {"solve": ("report.json", "report.csv"), "sweep": ("sweep.csv", "sweep.svg")}
# the sweep.csv columns compared by relative move
LEVELS = ("e_est", "c_prime", "c_sem", "beta_hat1", "beta_hat2", "S_prime")
WORK = ("fiber_max k=1", "fiber_max k=2", "sphere_descent")
# the nlss CLI, imported from the src/ given as the first argument; every
# nlss module that holds fiber_maximize or sphere_descent gets a counting
# wrapper, and the counts (of this process only: a sweep's pool workers
# count apart) go to work_counts.json in the working directory
RUNNER = (
    "import json, os, sys, nlss, nlss.cli, nlss.fiber, nlss._opt\n"
    "if not os.path.abspath(nlss.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):\n"
    "    sys.exit(f'nlss imported from {nlss.__file__}, not from {sys.argv[1]}')\n"
    "counts = {}\n"
    "def counted(orig, key):\n"
    "    def wrapper(*args, **kwargs):\n"
    "        name = key(args)\n"
    "        counts[name] = counts.get(name, 0) + 1\n"
    "        return orig(*args, **kwargs)\n"
    "    return wrapper\n"
    "for orig, key in ((nlss.fiber.fiber_maximize, lambda args: f'fiber_max k={len(args[0].taus)}'),\n"
    "                  (nlss._opt.sphere_descent, lambda args: 'sphere_descent')):\n"
    "    wrapper = counted(orig, key)\n"
    "    for name, mod in list(sys.modules.items()):\n"
    "        if name.startswith('nlss') and getattr(mod, orig.__name__, None) is orig:\n"
    "            setattr(mod, orig.__name__, wrapper)\n"
    "rc = nlss.cli.main(sys.argv[2:])\n"
    "with open('work_counts.json', 'w', encoding='utf-8') as fh:\n"
    "    json.dump(counts, fh)\n"
    "sys.exit(rc)\n"
)


def run_nlss(root, argv, out_dir, threads="1"):
    """Run the CLI of the checkout at root with NLSS_THREADS=threads; returns
    one dict per report or sweep point, with the levels, thresholds, S',
    minimizer_angle and the verdicts."""
    env = dict(os.environ, NLSS_THREADS=threads, PYTHONPATH=os.path.join(root, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, os.path.join(root, "src"), *argv, "--out", out_dir],
        cwd=out_dir, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"nlss {argv[0]} in {root} exited {proc.returncode}:\n{proc.stderr}")
    if argv[0] == "solve":
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        th = rep["thresholds"] or {}
        return [{
            "e_est": rep["e_est"], "c_prime": rep["c_prime_est"], "c_sem": rep["c_sem"],
            "beta_hat1": th.get("beta_hat_1"), "beta_hat2": th.get("beta_hat_2"),
            "S_prime": rep["S_prime_est"], "minimizer_angle": rep["minimizer_angle"],
            "verdicts": {k: v["status"] for k, v in sorted(rep["verdicts"].items())},
        }]
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{
        **{k: float(row[k]) if row[k] else None for k in LEVELS},
        "minimizer_angle": None,
        "verdicts": {k: row[k] for k in ("verdict_t11", "verdict_t12", "verdict_t13")},
    } for row in rows]


def move(a, b, relative):
    """|a - b| (relative to |b| when asked); 0 when both are missing, inf
    when one is."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    d = abs(a - b)
    return d / abs(b) if relative and b != 0.0 else d


def compare(here, there):
    """(largest moves by quantity, verdict differences) of two runs."""
    moves = dict.fromkeys([*LEVELS, "minimizer_angle"], 0.0)
    diffs = []
    if len(here) != len(there):
        return moves, [f"{len(here)} points against {len(there)}"]
    for i, (x, y) in enumerate(zip(here, there)):
        for k in LEVELS:
            moves[k] = max(moves[k], move(x[k], y[k], True))
        moves["minimizer_angle"] = max(
            moves["minimizer_angle"], move(x["minimizer_angle"], y["minimizer_angle"], False)
        )
        if x["verdicts"] != y["verdicts"]:
            diffs.append(f"point {i}: {x['verdicts']} against {y['verdicts']}")
    return moves, diffs


def work_counts(out_dir):
    """The counts of WORK that the run in out_dir wrote, 0 for a count it
    never reached."""
    with open(os.path.join(out_dir, "work_counts.json"), encoding="utf-8") as fh:
        counts = json.load(fh)
    return [counts.get(k, 0) for k in WORK]


def fmt(moves):
    return ", ".join(f"{k} {v:.2g}" for k, v in moves.items())


def same_bytes(dir_a, dir_b, names):
    """{artifact: whether it is byte-identical in the two run directories}."""
    def read(d, name):
        with open(os.path.join(d, name), "rb") as fh:
            return fh.read()

    return {name: read(dir_a, name) == read(dir_b, name) for name in names}


def fmt_bytes(same):
    return ", ".join(f"{k} {'identical' if v else 'differs'}" for k, v in same.items())


def count_lines(root, *parts):
    """Newlines in the files matching the glob os.path.join(root, *parts): the
    total of `wc -l`."""
    total = 0
    for path in glob.glob(os.path.join(root, *parts)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", help="root of the nlss checkout to compare against")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="only this workload")
    ap.add_argument("--seed", type=int, help="only this config seed")
    args = ap.parse_args()
    configs = [
        (name, seed) for name, seed in DEFAULT_CONFIGS
        if args.workload in (None, name) and args.seed in (None, seed)
    ]
    if not configs:
        ap.error("no default config matches --workload and --seed")

    worst = dict.fromkeys([*LEVELS, "minimizer_angle"], 0.0)
    bad = False
    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in configs:
            wl = WORKLOADS[name]
            base = os.path.join(tmp, f"{name}-{seed}")
            cfg = os.path.join(base, "config.json")
            argv = wl.argv(cfg)
            sides = ("here", "parent", "threads2") if argv[0] == "sweep" else ("here", "parent")
            outs = {side: os.path.join(base, side) for side in sides}
            for d in outs.values():
                os.makedirs(d)
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(wl.config(seed, base), fh)
            try:
                here = run_nlss(ROOT, argv, outs["here"])
                there = run_nlss(args.parent_root, argv, outs["parent"])
                if "threads2" in outs:
                    run_nlss(ROOT, argv, outs["threads2"], threads="2")
            except RuntimeError as exc:
                print(f"{name} seed {seed}: FAILED RUN\n{exc}")
                bad = True
                continue
            moves, diffs = compare(here, there)
            for k, v in moves.items():
                worst[k] = max(worst[k], v)
            print(f"{name} seed {seed}: {fmt(moves)}")
            names = ARTIFACTS[argv[0]]
            checks = [("against the parent", same_bytes(outs["here"], outs["parent"], names))]
            if "threads2" in outs:
                checks.append(("at NLSS_THREADS=2 against 1",
                               same_bytes(outs["threads2"], outs["here"], names)))
            for label, same in checks:
                print(f"  artifacts {label}: {fmt_bytes(same)}")
                all_same &= all(same.values())
            work = {side: work_counts(outs[side]) for side in ("here", "parent")}
            print("  work at NLSS_THREADS=1 (" + ", ".join(WORK) + "): " + "; ".join(
                f"{side} " + ", ".join(map(str, counts)) for side, counts in work.items()
            ))
            for d in diffs:
                print(f"  verdict differs at {d}")
            bad |= bool(diffs)
    for label, parts in (("src/nlss", ("src", "nlss", "*.py")), ("tests", ("tests", "*.py"))):
        n_here, n_parent = count_lines(ROOT, *parts), count_lines(args.parent_root, *parts)
        print(f"{label} lines: {n_here} here, {n_parent} in the parent")
    print(f"largest moves: {fmt(worst)} (levels relative, minimizer_angle absolute)")
    print("all artifacts byte-identical" if all_same else "some artifacts differ")
    print("verdicts differ or a run failed" if bad else "all verdicts identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
