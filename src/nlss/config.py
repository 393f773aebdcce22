"""Run configuration: strict JSON ingestion for the command-line tools.

The config file is flat two-level JSON mirroring RunConfig.  Unknown keys
are errors (typos in math-heavy configs are silent disasters otherwise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .functional import SystemParams
from .grids import DomainSpec
from .options import SolverOptions


@dataclass(frozen=True)
class SweepSpec:
    vary: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.vary not in ("beta", "mu1", "mu2", "tau1", "tau2"):
            raise ConfigError(f"cannot vary {self.vary!r}")
        if not self.start < self.stop:
            raise ConfigError("sweep requires from < to")
        if self.steps < 2:
            raise ConfigError("sweep requires steps >= 2")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"unknown sweep scale {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ConfigError("log scale requires from > 0")


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSpec
    params: SystemParams
    tau_mode: str = "explicit"
    solver: SolverOptions = SolverOptions()
    out_dir: str = "."


def _take(d: dict, section: str, allowed: dict):
    """Pop known keys with defaults; any leftover key is a ConfigError."""
    out = {}
    for key, default in allowed.items():
        out[key] = d.pop(key, default)
    if d:
        bad = sorted(d)[0]
        where = f"{section}.{bad}" if section else bad
        raise ConfigError(f"unknown config key: {where}")
    return out


_REQUIRED = object()


def _req(section: str, vals: dict):
    for k, v in vals.items():
        if v is _REQUIRED:
            where = f"{section}.{k}" if section else k
            raise ConfigError(f"missing config key: {where}")
    return vals


def _integer(where: str, value, low: int) -> int:
    """value, which must be a JSON integer >= low (not true or 2.7)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where} must be an integer >= {low}")
    return value


def _number(where: str, value) -> float:
    """value, which must be a finite JSON number (not NaN, true or "2.5")."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number")
    return float(value)


def _tolerance(where: str, value) -> float:
    """value, which must be a finite positive JSON number."""
    x = _number(where, value)
    if x <= 0:
        raise ConfigError(f"{where} must be a finite positive number")
    return x


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = dict(raw)
    dom_raw = raw.pop("domain", None)
    par_raw = raw.pop("params", None)
    if not isinstance(dom_raw, dict):
        raise ConfigError("missing config key: domain")
    if not isinstance(par_raw, dict):
        raise ConfigError("missing config key: params")
    sol_raw = raw.pop("solver", {})
    out_raw = raw.pop("output", {})
    top = _take(raw, "", {"tau_mode": "explicit"})
    if top["tau_mode"] not in ("explicit", "lambda1"):
        raise ConfigError(f"unknown tau_mode {top['tau_mode']!r}")

    dom = _req(
        "domain",
        _take(dict(dom_raw), "domain", {"kind": _REQUIRED, "lengths": _REQUIRED, "n": _REQUIRED}),
    )
    par = _req(
        "params",
        _take(
            dict(par_raw),
            "params",
            {
                "tau1": _REQUIRED,
                "tau2": _REQUIRED,
                "mu1": _REQUIRED,
                "mu2": _REQUIRED,
                "beta": _REQUIRED,
            },
        ),
    )
    defaults = SolverOptions()
    sol = _take(
        dict(sol_raw),
        "solver",
        {
            "tol_newton": defaults.tol_newton,
            "max_iter": defaults.max_iter,
            "restarts": defaults.restarts,
            "extra_seeds": defaults.extra_seeds,
            "seed": defaults.seed,
        },
    )
    out = _take(dict(out_raw), "output", {"dir": "."})

    seed = sol["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("solver.seed must be an unsigned 64-bit integer")
    if not isinstance(out["dir"], str):
        raise ConfigError("output.dir must be a string")

    if not isinstance(dom["lengths"], list):
        raise ConfigError("domain.lengths must be a list of numbers")
    try:
        domain = DomainSpec(
            kind=str(dom["kind"]),
            lengths=tuple(_number("domain.lengths", x) for x in dom["lengths"]),
            n=_integer("domain.n", dom["n"], 3),
        )
        params = SystemParams(**{k: _number(f"params.{k}", v) for k, v in par.items()})
        solver = SolverOptions(
            tol_newton=_tolerance("solver.tol_newton", sol["tol_newton"]),
            max_iter=_integer("solver.max_iter", sol["max_iter"], 1),
            restarts=_integer("solver.restarts", sol["restarts"], 1),
            extra_seeds=_integer("solver.extra_seeds", sol["extra_seeds"], 0),
            seed=seed,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        domain=domain,
        params=params,
        tau_mode=top["tau_mode"],
        solver=solver,
        out_dir=out["dir"],
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
