"""The benchmark's per-layer metrics name functions that exist.

The traced benchmark finds a layer's spans by the function's name; a
renamed or deleted function leaves its counters at 0 (or makes a ratio
divide by zero) instead of failing, so this checks every
``<module>.<function>.<suffix>`` metric name of BENCHMARK.json against the
package.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _public_functions(module_name: str) -> set[str]:
    module = importlib.import_module(f"kummer_moduli.{module_name}")
    return {
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_per_layer_metrics_name_public_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    layers = [m["name"].split(".") for m in metrics]
    named = {tuple(parts[:2]) for parts in layers if len(parts) == 3}
    named.add(("census", "worker_count"))
    assert ("bpf", "certify_decomposition") in named
    missing = sorted(
        f"{module}.{function}"
        for module, function in named
        if function not in _public_functions(module)
    )
    assert missing == []
