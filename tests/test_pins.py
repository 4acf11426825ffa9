"""The benchmark's pinned outputs, checked by the routes the benchmark takes.

``perfbench/pins.py`` holds the outputs that every benchmark run is
checked against, so a change that moves one of them makes the run
incorrect.  This loads that file read-only, from its path, and checks:

* each ``SETUP`` cold start, as the exact stdout of a fresh interpreter;
  the verify one prints the repr of a ``SuiteResult``, so it pins that
  class's fields too;
* each ``VERIFY`` entry by the route ``perfbench/ops.py`` gives it:
  ``cli.main`` for the sizes of ``VERIFY_FULL``, and the function
  ``census.suite_<name>`` with its keyword for those of ``VERIFY_PROBE``;
* ``CENSUS_MD5[200]``, through ``kummer census ... --out``.

It also runs the traced path of ``perfbench/run.py --trace 1`` (its
``ops.py traced`` child and the ``-X importtime`` samples), which fails
when the per-layer metric names drift from ``BENCHMARK.json``.

``COUNT_DIGEST`` gets no test of its own.  It digests component counts
that include wrong answers on the defect class of ROADMAP item 1
(n = 1 mod 4, t = 2, 4 | d), so it has to change together with that
item's fix; only the traced run checks it, as every benchmark run does.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kummer_moduli import census, cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _load_pins():
    spec = importlib.util.spec_from_file_location("pins", ROOT / "perfbench" / "pins.py")
    module = importlib.util.module_from_spec(spec)
    # read-only: no bytecode cache is written beside the benchmark's files
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


pins = _load_pins()


@pytest.mark.parametrize("family", sorted(pins.SETUP))
def test_setup_cold_start_is_pinned(family):
    code, expected = pins.SETUP[family]
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, expected), proc.stderr


@pytest.mark.parametrize("suite, bound", sorted(pins.VERIFY))
def test_verify_pin_by_the_benchmark_route(suite, bound):
    # the two routes of perfbench/ops.py, Verify.step, with its keyword rule
    if (suite, bound) in pins.VERIFY_FULL:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            args = () if suite == "divisibility" else ("--d-max", str(bound))
            code = cli.main(["verify", suite, *args])
        text = buffer.getvalue()
    else:
        assert (suite, bound) in pins.VERIFY_PROBE
        kwargs = {"coord_bound" if suite == "divisibility" else "d_max": bound}
        result = getattr(census, f"suite_{suite}")(**kwargs)
        text = "".join(f"{line}\n" for line in result.lines)
        text += f"{result.name}: {'PASS' if result.passed else 'FAIL'}\n"
        code = 0 if result.passed else 1
    assert (code, text) == pins.VERIFY[suite, bound]


def test_census_md5_at_200_through_the_cli(tmp_path):
    out = tmp_path / "census.csv"
    argv = ["census", "2", "3", "4", "--d-max", "200", "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == pins.CENSUS_MD5[200]


def test_traced_run_yields_the_declared_per_layer_metrics(tmp_path):
    """The traced path of the benchmark, as ``perfbench/run.py --trace 1`` takes it.

    ``run.py`` adds the two ``import.*`` medians from ``-X importtime`` to
    the metrics of ``ops.py traced`` and raises unless the names are
    exactly ``BENCHMARK.json``'s ``per_layer`` list; the median has no
    sample unless the package import shows a ``numpy`` line.  ROADMAP
    items 3 and 8 change this test together with ``run.py``.  The run
    checks its count probe against ``COUNT_DIGEST``, which item 1's fix
    re-pins in the same change.
    """
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    ops = ROOT / "perfbench" / "ops.py"
    argv = ["traced", "--workload", "verify", "--seed", "7", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, str(ops), *argv, "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {*result["metrics"], "import.numpy_s", "import.kummer_moduli_s"}
    assert names == {metric["name"] for metric in declared["per_layer"]}

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import kummer_moduli"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert "numpy" in imported
