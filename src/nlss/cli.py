"""Command-line front end: solve, sweep, thresholds.

Artifacts: report.json and report.csv for single solves, sweep.csv and
sweep.svg for sweeps.  All numeric cells use 17 significant digits so a
rerun with the same seed is byte-identical; NaN becomes an empty CSV cell
and a JSON null.  NLSS_THREADS caps the sweep worker pool.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys

from .config import VARY, RunConfig, SweepSpec, load_config
from .errors import ConfigError, NlssError
from .functional import SystemParams
from .grids import build_grid
from .levels import EnergyReport, assemble_report
from .scalar import pair_grounds, scale_grounds
from .spectral import get_spectrum
from .thresholds import compute_thresholds


def _num(x) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return ""
    return f"{x:.17g}"


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if hasattr(obj, "tolist"):
        return _jsonify(obj.tolist())
    return obj


def _regime_label(rep: EnergyReport) -> str:
    if rep.regime is None:
        return ""
    flags = []
    if rep.regime.ground_state_exists:
        flags.append("exists")
    if rep.regime.equalities_regime:
        flags.append("equalities")
    if rep.regime.semitrivial_ground_hint:
        flags.append("semitrivial_hint")
    if rep.regime.synchronized_regime:
        flags.append("synchronized")
    return "+".join(flags) if flags else "none"


# the CSV columns after param (the swept value): name and cell of a report,
# a number (None if absent) or a label
COLUMNS = (
    *((k, lambda rep, k=k: getattr(rep.params, k)) for k in ("beta", "mu1", "mu2", "tau1", "tau2")),
    ("e_est", lambda rep: rep.e_est),
    ("c_prime", lambda rep: rep.c_prime_est),
    ("c_sem", lambda rep: rep.c_sem),
    ("beta_hat1", lambda rep: getattr(rep.thresholds, "beta_hat_1", None)),
    ("beta_hat2", lambda rep: getattr(rep.thresholds, "beta_hat_2", None)),
    ("S", lambda rep: rep.S),
    ("S_prime", lambda rep: rep.S_prime_est),
    ("h_inf", lambda rep: rep.h_inf),
    ("regime", _regime_label),
    *((f"verdict_{t}", lambda rep, t=t: rep.verdicts.get(t, {}).get("status", ""))
      for t in ("t11", "t12", "t13")),
)
CSV_HEADER = ",".join(["param", *(name for name, _ in COLUMNS)])


def _row(param, rep: EnergyReport) -> dict:
    """The cells of one CSV row by column name."""
    return {"param": param, **{name: cell(rep) for name, cell in COLUMNS}}


def _csv_line(row: dict) -> str:
    return ",".join(c if isinstance(c, str) else _num(c) for c in row.values())


def _prepare(cfg: RunConfig):
    """Grid, spectrum, and the effective params after tau snapping."""
    g = build_grid(cfg.domain)
    s = get_spectrum(g)
    p = cfg.params
    if cfg.tau_mode == "lambda1":
        lam1 = s.lambda1()
        p = SystemParams(lam1, lam1, p.mu1, p.mu2, p.beta)
    return g, s, p


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_solve(config_path: str, out_dir: str | None = None) -> int:
    cfg = load_config(config_path)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    g, s, p = _prepare(cfg)
    rep = assemble_report(p, g, s, cfg.solver)
    _write(
        os.path.join(out, "report.json"),
        json.dumps(_jsonify(rep), indent=2) + "\n",
    )
    _write(
        os.path.join(out, "report.csv"),
        CSV_HEADER + "\n" + _csv_line(_row(None, rep)) + "\n",
    )
    for key, msg in rep.errors.items():
        print(f"solver failure [{key}]: {msg}", file=sys.stderr)
    return 2 if rep.partial else 0


def _sweep_values(spec: SweepSpec) -> list[float]:
    """spec.steps points from exactly spec.start to exactly spec.stop."""
    n = spec.steps
    if spec.scale == "log":
        a, b = math.log(spec.start), math.log(spec.stop)
        inner = [math.exp(a + (b - a) * i / (n - 1)) for i in range(1, n - 1)]
    else:
        d = spec.stop - spec.start
        inner = [spec.start + d * i / (n - 1) for i in range(1, n - 1)]
    return [spec.start, *inner, spec.stop]


def _sweep_point(payload) -> tuple[dict, bool, str]:
    """One sweep point; returns (row, failed, stderr_note).

    Top-level so a process pool can pickle it; per-point seed is the config
    seed XOR the point index, making the result independent of pool size.
    grounds are the shared mu = 1 scalar ground states of a beta or mu
    sweep, scaled here to the point's mu1 and mu2, or None to solve them at
    this point; thresholds are the shared Thresholds of a beta sweep, or
    None to compute them at this point.
    """
    cfg, vary, value, index, grounds, thresholds = payload
    params = dataclasses.replace(cfg.params, **{vary: value})
    opts = dataclasses.replace(cfg.solver, seed=cfg.solver.seed ^ index)
    try:
        g, s, p = _prepare(dataclasses.replace(cfg, params=params))
        if grounds is not None:
            grounds = scale_grounds(grounds, p.mu1, p.mu2)
        rep = assemble_report(p, g, s, opts, grounds=grounds, thresholds=thresholds)
    except (NlssError, ValueError) as exc:
        failed = EnergyReport(params, math.nan)  # every cell after tau2 empty
        return _row(value, failed), True, f"point {index} ({vary}={value:g}): {exc}"
    note = ""
    if rep.partial:
        errs = "; ".join(f"{k}: {v}" for k, v in rep.errors.items())
        note = f"point {index} ({vary}={value:g}) partial: {errs}"
    return _row(value, rep), rep.partial, note


def cmd_sweep(config_path: str, spec: SweepSpec, out_dir: str | None = None) -> int:
    cfg = load_config(config_path)
    if spec.vary in ("tau1", "tau2") and cfg.tau_mode != "explicit":
        # lambda1 mode would snap every point back to tau = lambda1
        raise ConfigError(f"--vary {spec.vary} needs tau_mode explicit")
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    values = _sweep_values(spec)
    raw = os.environ.get("NLSS_THREADS") or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"NLSS_THREADS={raw!r} is not an integer") from None
    if threads <= 0:
        # the CPUs this process may run on, not all of the machine's
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(threads, len(values))  # a forked pool starts every worker at once
    grounds = thresholds = None
    if spec.vary in ("beta", "mu1", "mu2"):
        # the scalar ground states do not depend on beta and scale exactly
        # with mu: solve them once at mu = 1, with the config seed (point
        # 0's), so not on the pool size; nor do the thresholds depend on
        # beta; if either fails, every point computes it, and fails, on its
        # own
        try:
            g, s, p = _prepare(cfg)
            unit = dataclasses.replace(p, mu1=1.0, mu2=1.0)
            grounds = pair_grounds(unit, g, s, cfg.solver)
            if spec.vary == "beta":
                own = scale_grounds(grounds, p.mu1, p.mu2)
                thresholds = compute_thresholds(p, g, s, cfg.solver, own)
        except (NlssError, ValueError):
            pass
    payloads = [(cfg, spec.vary, v, i, grounds, thresholds) for i, v in enumerate(values)]

    if threads <= 1:
        results = [_sweep_point(pl) for pl in payloads]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_point, payloads))

    rows = [row for row, _, _ in results]
    any_failed = any(failed for _, failed, _ in results)
    for _, _, note in results:
        if note:
            print(note, file=sys.stderr)
    csv = "\n".join(_csv_line(row) for row in rows)
    _write(os.path.join(out, "sweep.csv"), CSV_HEADER + "\n" + csv + "\n")
    _write(os.path.join(out, "sweep.svg"), _sweep_svg(spec, values, rows))
    return 2 if any_failed else 0


def _sweep_svg(spec: SweepSpec, values, rows) -> str:
    from .svgplot import LinePlot

    plot = LinePlot(
        title=f"energy levels vs {spec.vary}",
        xlabel=spec.vary,
        ylabel="energy",
        logx=spec.scale == "log",
    )
    for name in ("e_est", "c_prime", "c_sem"):
        plot.add_series(name, values, [r[name] for r in rows])
    if spec.vary == "beta":
        pairs = [(r["beta_hat1"], r["beta_hat2"]) for r in rows]
        pairs = [pair for pair in pairs if None not in pair]
        if pairs:
            plot.add_vertical("Lambda", max(pairs[0]))
        mu1, mu2 = rows[0]["mu1"], rows[0]["mu2"]
        plot.add_vertical("3sqrt(mu1 mu2)", 3.0 * math.sqrt(mu1 * mu2))
        plot.add_vertical("max mu", max(mu1, mu2))
    return plot.render()


def cmd_thresholds(config_path: str, as_json: bool = False) -> int:
    cfg = load_config(config_path)
    g, s, p = _prepare(cfg)
    try:
        th = compute_thresholds(p, g, s, cfg.solver)
    except NlssError as exc:
        print(f"solver failure [thresholds]: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(_jsonify(th), indent=2))
    else:
        print(f"beta_hat_1 = {th.beta_hat_1:.12g}")
        print(f"beta_hat_2 = {th.beta_hat_2:.12g}")
        print(f"Lambda     = {th.lambda_cap:.12g}")
        print(f"3*sqrt(mu1*mu2) = {th.three_sqrt:.12g}")
        print(f"max(mu1, mu2)   = {th.mu_max:.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlss")
    sub = ap.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="single solve, writes report.json/report.csv")
    solve.add_argument("--config", required=True)
    solve.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="parameter sweep, writes sweep.csv/sweep.svg")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--vary", required=True, choices=VARY)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--log", action="store_true")

    thr = sub.add_parser("thresholds", help="print coupling thresholds")
    thr.add_argument("--config", required=True)
    thr.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out)
        if args.command == "sweep":
            spec = SweepSpec(
                vary=args.vary,
                start=args.start,
                stop=args.stop,
                steps=args.steps,
                scale="log" if args.log else "linear",
            )
            return cmd_sweep(args.config, spec, args.out)
        return cmd_thresholds(args.config, args.json)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
