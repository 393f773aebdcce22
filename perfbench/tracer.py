"""Span tracer installed around nlss from the outside.

Every public function of every nlss module is replaced by a wrapper in
*every* module that holds it: modules bind names at import
(``from .scalar import solve_scalar_ground`` in levels, system and
thresholds), so patching the defining module alone would miss those call
sites.  A span stack gives each call its parent, which yields self time
(inclusive time minus the time of child spans) and the caller-split
counters such as descents started by the scalar layer that end
unconverged.

The program itself is not changed; only module attributes are rebound in
the traced process.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import Counter, defaultdict

# private functions that are timed all the same: the per-point sweep worker
# and the artifact writers
EXTRA = {
    "nlss.cli": {"_sweep_point": "cli.sweep_point", "_write": "cli.artifacts",
                 "_sweep_svg": "cli.artifacts", "_jsonify": "cli.artifacts"},
}


def _short(modname: str) -> str:
    """nlss._opt -> opt: metric names start with a letter."""
    return modname.split(".", 1)[1].lstrip("_")


def nlss_modules():
    """Import and return every module of the nlss package."""
    import nlss

    for info in pkgutil.iter_modules(nlss.__path__):
        importlib.import_module(f"nlss.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if (name == "nlss" or name.startswith("nlss.")) and m is not None]


def _callable_kind(obj) -> bool:
    return isinstance(obj, types.FunctionType) or isinstance(
        obj, functools._lru_cache_wrapper
    )


def traceable(modules):
    """Map id(original) -> (original, span name) for every function to trace.

    A function is traced under the name of the module that defines it; it
    is found there, not in the modules that import it.
    """
    found = {}
    for mod in modules:
        if mod.__name__ == "nlss":
            continue
        extra = EXTRA.get(mod.__name__, {})
        for attr, obj in vars(mod).items():
            if not _callable_kind(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr in extra:
                found[id(obj)] = (obj, extra[attr])
            elif not attr.startswith("_"):
                found[id(obj)] = (obj, f"{_short(mod.__name__)}.{attr}")
    return found


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # inclusive, outermost activations only
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span stack plus per-name statistics and caller-split counters."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: Counter = Counter()
        self.stack: list[list] = []  # [name, child_time]
        self.originals: dict = {}

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name):
        stats = self.stats
        stack = self.stack
        on_return = _ON_RETURN.get(name)
        on_raise = _ON_RAISE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = stats[name]
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                dt = self._close(st, frame, t0)
                if on_raise is not None:
                    on_raise(self, parent, dt)
                raise
            dt = self._close(st, frame, t0)
            if on_return is not None:
                on_return(self, parent, result)
            return result

        return wrapper

    def _close(self, st, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        st.calls += 1
        st.depth -= 1
        st.self_s += dt - frame[1]
        if st.depth == 0:
            st.s += dt
        if self.stack:
            self.stack[-1][1] += dt
        return dt

    # -- installation ----------------------------------------------------
    def install(self):
        """Rebind every traceable function in every nlss module that holds it."""
        modules = nlss_modules()
        self.originals = traceable(modules)
        wrappers = {k: self._wrap(fn, name) for k, (fn, name) in self.originals.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        return self

    def unwrapped(self):
        """'module.attribute' names that still hold an original function.

        The originals stay referenced in self.originals, so their ids cannot
        be reused by other objects."""
        left = []
        for mod in nlss_modules():
            left += [f"{mod.__name__}.{attr}" for attr, obj in vars(mod).items()
                     if id(obj) in self.originals]
        return left

    def snapshot(self) -> dict:
        return {
            "stats": {k: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
                      for k, st in self.stats.items()},
            "counters": dict(self.counters),
        }


def metric_value(snapshot: dict, metric: str) -> float:
    """One per-layer metric, such as 'scalar.solve_scalar_ground.s', from a snapshot."""
    if metric in snapshot["counters"]:
        return snapshot["counters"][metric]
    base, _, field = metric.rpartition(".")
    return snapshot["stats"].get(base, {}).get(field, 0)


# caller-split and outcome counters, keyed by span name
def _sphere_descent_done(tr, parent, result):
    if not result[3]:
        tr.counters["opt.sphere_descent.unconverged"] += 1
        if parent == "scalar.solve_scalar_ground":
            tr.counters["scalar.sphere_descent.unconverged"] += 1


def _damped_newton_done(tr, parent, result):
    if not result[2]:
        tr.counters["opt.damped_newton.unconverged"] += 1


def _newton_refine_failed(tr, parent, dt):
    tr.counters["system.newton_refine.failed"] += 1
    tr.counters["system.newton_refine.failed_s"] += dt


def _critical_set_done(tr, parent, result):
    tr.counters["system.critical_points.distinct"] += len(result.all_found)


_ON_RETURN = {
    "opt.sphere_descent": _sphere_descent_done,
    "opt.damped_newton": _damped_newton_done,
    "system.find_critical_set": _critical_set_done,
}
_ON_RAISE = {"system.newton_refine": _newton_refine_failed}
