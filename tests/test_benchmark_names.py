"""The benchmark's traced names must name live library functions.

``perfbench/spans.py`` wraps every public function of each ``ixcap`` layer
module and files its stats under ``<layer>.<function>``; ``perfbench/run.py``
indexes some of those stats by name.  A per-layer metric
``<layer>.<function>.<stat>`` in ``BENCHMARK.json`` whose function has left
the library reads nothing, or crashes the traced run.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).parents[1] / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    spec = json.loads(BENCHMARK.read_text())
    traced = {tuple(m["name"].split(".")[:2])
              for m in spec["per_layer"] if m["name"].count(".") == 2}
    assert traced
    for layer, name in sorted(traced):
        module = importlib.import_module(f"ixcap.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), f"{layer}.{name}"
        assert fn.__module__ == module.__name__, f"{layer}.{name}"
