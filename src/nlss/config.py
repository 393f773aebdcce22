"""Run configuration: strict JSON ingestion for the command-line tools.

The config file is flat two-level JSON mirroring RunConfig.  The domain,
params and solver sections are read from the fields of DomainSpec,
SystemParams and SolverOptions: each field is a key, its type fixes the
JSON type and its default makes the key optional; the ranges are checked
by the types themselves.  Unknown keys are errors (typos in math-heavy
configs are silent disasters otherwise).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass

from .errors import ConfigError
from .functional import SystemParams
from .grids import DomainSpec
from .options import SolverOptions

# the parameters a sweep may vary
VARY = ("beta", "mu1", "mu2", "tau1", "tau2")


@dataclass(frozen=True)
class SweepSpec:
    vary: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.vary not in VARY:
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


def _finite(v) -> bool:
    """v is a finite JSON number (not NaN, true or "2.5")."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# per field type: the test of its JSON value, the conversion, and its name
_JSON = {
    str: (lambda v: isinstance(v, str), str, "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), int, "an integer"),
    float: (_finite, float, "a finite number"),
    tuple[float, ...]: (
        lambda v: isinstance(v, list) and all(map(_finite, v)),
        lambda v: tuple(map(float, v)),
        "a list of finite numbers",
    ),
    dict: (lambda v: isinstance(v, dict), dict, "a JSON object"),
}


def _read(raw, section: str, keys: dict) -> dict:
    """The values of the JSON object raw for keys (key -> (type, default),
    default MISSING for a required key); an unknown or missing key, or a
    value of the wrong JSON type, is a ConfigError naming it."""
    prefix = f"{section}." if section else ""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section or 'config root'} must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config key: {prefix}{unknown[0]}")
    out = {}
    for key, (typ, default) in keys.items():
        if key not in raw:
            if default is MISSING:
                raise ConfigError(f"missing config key: {prefix}{key}")
            out[key] = default
            continue
        test, convert, name = _JSON[typ]
        if not test(raw[key]):
            raise ConfigError(f"{prefix}{key} must be {name}")
        out[key] = convert(raw[key])
    return out


@functools.cache
def _keys(cls) -> dict:
    """key -> (type, default) of each field of the dataclass cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)}


def _section(raw, section: str, cls):
    """The dataclass cls read from the config section raw, one key per
    field; a value out of its range is a ConfigError naming the section."""
    try:
        return cls(**_read(raw, section, _keys(cls)))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(raw) -> RunConfig:
    top = _read(raw, "", {
        "domain": (dict, MISSING), "params": (dict, MISSING), "solver": (dict, {}),
        "output": (dict, {}), "tau_mode": (str, "explicit"),
    })
    if top["tau_mode"] not in ("explicit", "lambda1"):
        raise ConfigError(f"unknown tau_mode {top['tau_mode']!r}")
    return RunConfig(
        domain=_section(top["domain"], "domain", DomainSpec),
        params=_section(top["params"], "params", SystemParams),
        tau_mode=top["tau_mode"],
        solver=_section(top["solver"], "solver", SolverOptions),
        out_dir=_read(top["output"], "output", {"dir": (str, ".")})["dir"],
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
