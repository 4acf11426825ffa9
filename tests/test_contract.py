"""Names that documents outside the package rely on still exist.

The traced benchmark finds a layer's spans by the function's name; a
renamed or deleted function leaves its counters at 0 (or makes a ratio
divide by zero) instead of failing, so this checks every
``<module>.<function>.<suffix>`` metric name of BENCHMARK.json against the
package.  The README's command table is checked against the parser the
same way, flag by flag.
"""

import argparse
import importlib
import inspect
import json
import re
from pathlib import Path

from kummer_moduli import cli

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
README = ROOT / "README.md"


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


def _parser_flags() -> dict[str, set[str]]:
    (subparsers,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, parser in subparsers.choices.items()
    }


def _readme_flags() -> dict[str, set[str]]:
    # rows of the command table: | `command` | arguments | flags |
    rows = re.findall(r"^\| `(\w+)` \|[^|\n]*\|([^|\n]*)\|$", README.read_text(), re.M)
    return {name: set(re.findall(r"--[a-z][a-z-]*", flags)) for name, flags in rows}


def test_readme_flag_table_matches_the_parser():
    assert _readme_flags() == _parser_flags()
