"""The per-layer metrics in BENCHMARK.json name nlss functions; the
benchmark's tracer reads 0 for a name that no longer exists, so a rename
would zero a metric without any error.  This test reads the file only."""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# span statistics; any other field (unconverged, failed, distinct) is a counter
SPAN_FIELDS = ("calls", "s", "self_s")
# metric prefix -> attribute where the traced name differs from it
RENAMED = {"opt": "_opt", "cli.sweep_point": "cli._sweep_point"}


def _span_bases():
    if not BENCHMARK.exists():
        pytest.skip("no BENCHMARK.json next to the tests")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bases = set()
    for metric in spec["per_layer"]:
        base, _, field = metric["name"].rpartition(".")
        if field in SPAN_FIELDS and base != "cli.artifacts" and not base.startswith("trace."):
            bases.add(base)
    return sorted(bases)


@pytest.mark.parametrize("base", _span_bases())
def test_per_layer_metric_names_a_function(base):
    base = RENAMED.get(base, base)
    mod, _, attr = base.rpartition(".")
    mod = RENAMED.get(mod, mod)
    module = importlib.import_module(f"nlss.{mod}")
    fn = getattr(module, attr, None)
    assert callable(fn), f"nlss.{mod}.{attr} does not exist"
    # the tracer counts a function under the module that defines it
    assert fn.__module__ == module.__name__
