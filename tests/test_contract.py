"""Names that documents outside the package rely on still exist.

The traced benchmark finds a layer's spans by the function's name; a
renamed or deleted function leaves its counters at 0 (or makes a ratio
divide by zero) instead of failing, so this checks every
``<module>.<function>.<suffix>`` metric name of BENCHMARK.json against the
package.  The README's command table is checked against the parser the
same way, flag by flag, its export list against ``__all__``, its suite
list against ``census.SUITES``, and every README example with an output
comment is run and compared with its comment.
"""

import argparse
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import kummer_moduli
from kummer_moduli import census, cli

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


def _readme_examples(lang: str) -> list[tuple[str, str]]:
    # "<code>  # <comment>" lines of the README's ```lang blocks
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [
        (m[1], m[2] or "")
        for block in blocks
        for m in re.finditer(r"^(\S.*?)(?:\s{2,}# (.*))?$", block, re.M)
    ]


def test_readme_library_examples_print_their_comments():
    namespace: dict = {}
    checked = []
    for code, comment in _readme_examples("python"):
        if not comment:
            exec(code, namespace)
            continue
        shown = repr(eval(code, namespace))
        # the repr, optionally followed by a note in parentheses
        assert comment == shown or comment.startswith(shown + "  ("), code
        checked.append(code)
    assert "component_count(2, 6, 3)" in checked


def test_readme_cli_examples_print_their_comments(capsys):
    checked = []
    for code, comment in _readme_examples("sh"):
        if not (code.startswith("kummer ") and comment):
            continue
        expected, exit_code = re.fullmatch(r"(.*?)(?:\s+\(exit (\d+)\))?", comment).groups()
        assert cli.main(shlex.split(code)[1:]) == int(exit_code or 0), code
        assert capsys.readouterr().out == expected + "\n", code
        checked.append(code)
    assert checked == ["kummer count 2 6 3", "kummer decide 2 1 2", "kummer witness 3 28 8"]


def _exported_in_readme(text: str) -> set[str]:
    # backticked names of the README paragraph that starts "The package exports"
    (paragraph,) = re.findall(r"^The package exports .*?(?=\n\n)", text, re.M | re.S)
    return set(re.findall(r"`([^`]+)`", paragraph))


def test_readme_export_list_matches_all():
    text = README.read_text()
    assert _exported_in_readme(text) == set(kummer_moduli.__all__)
    stale = text.replace("`is_nonempty`,", "`is_nonempty`, `Witness`,")
    assert _exported_in_readme(stale) - set(kummer_moduli.__all__) == {"Witness"}


def _suites_in_readme(text: str) -> list[str]:
    # backticked names of the README sentence "Verification suites, one per invocation: ..."
    pattern = r"^Verification suites, one per invocation: (.*?)\."
    (sentence,) = re.findall(pattern, text, re.M | re.S)
    return re.findall(r"`([^`]+)`", sentence)


def test_readme_suite_list_matches_the_registry():
    text = README.read_text()
    assert _suites_in_readme(text) == list(census.SUITES)
    stale = text.replace("`exceptional`.", "`exceptional`, `period`.")
    assert set(_suites_in_readme(stale)) - set(census.SUITES) == {"period"}
