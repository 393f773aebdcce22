#!/usr/bin/env python3
"""Produce sweep.csv and sweep.svg for a beta sweep in the resonant
symmetric scenario, writing a temporary config and invoking the CLI.

Usage: python3 scripts/run_beta_sweep.py [--n 48] [--steps 12] [--out out]
"""

import argparse
import json
import math
import os
import tempfile

from nlss.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--from", dest="start", type=float, default=0.5)
    ap.add_argument("--to", dest="stop", type=float, default=8.0)
    ap.add_argument("--mu2", type=float, default=1.0)
    ap.add_argument("--out", default="out")
    ap.add_argument("--log", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = {
        "domain": {"kind": "interval", "lengths": [math.pi], "n": args.n},
        "tau_mode": "lambda1",
        "params": {"tau1": 0.0, "tau2": 0.0, "mu1": 1.0, "mu2": args.mu2, "beta": 1.0},
        "solver": {"seed": args.seed},
        "output": {"dir": args.out},
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(cfg, fh)
        path = fh.name
    argv = [
        "sweep", "--config", path, "--out", args.out,
        "--vary", "beta",
        "--from", str(args.start), "--to", str(args.stop),
        "--steps", str(args.steps),
    ]
    if args.log:
        argv.append("--log")
    try:
        rc = cli_main(argv)
    finally:
        os.remove(path)
    raise SystemExit(rc)


if __name__ == "__main__":
    main()
