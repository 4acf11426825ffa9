"""Command-line checks: end to end through a real subprocess, and in-process through cli.main."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kummer_moduli
from kummer_moduli import bpf, census, cli, oracle
from kummer_moduli.bpf import decide
from kummer_moduli.moduli import component_count, triples
from kummer_moduli.oracle import SearchBounds

CMD = [sys.executable, "-m", "kummer_moduli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_env():
    # the child finds the package from a source checkout, installed or not
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}


def run(*args, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        CMD + list(args), stderr=subprocess.PIPE, text=True, env=run_env(), **kwargs
    )


def test_count_output_and_exit():
    proc = run("count", "2", "6", "3")
    assert proc.returncode == 0
    assert "components=1" in proc.stdout and "1a" in proc.stdout

    proc = run("count", "2", "1", "3")
    assert proc.returncode == 0
    assert "components=0" in proc.stdout and "precondition-empty" in proc.stdout

    proc = run("count", "2", "5", "2")
    assert proc.returncode == 0
    assert "components=1" in proc.stdout and "3d" in proc.stdout


def test_count_invalid_params_exit_2():
    assert run("count", "1", "4", "1").returncode == 2
    assert run("count", "2", "0", "1").returncode == 2


def test_decide_exit_codes():
    proc = run("decide", "2", "1", "2")
    assert proc.returncode == 3
    assert "Unknown" in proc.stdout

    proc = run("decide", "6", "4", "1")
    assert proc.returncode == 0
    assert "DivisibilityOne" in proc.stdout

    proc = run("decide", "2", "5", "2")
    assert proc.returncode == 0
    assert "DirectVeryAmple" in proc.stdout and "f=2" in proc.stdout

    assert run("decide", "2", "3", "3").returncode == 4


def test_decide_json():
    proc = run("decide", "2", "5", "2", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "GenericBPF"
    assert payload["certificate"] == "DirectVeryAmple"
    assert payload["f"] == 2
    assert payload["in_A"] is False


def test_decide_outputs_pinned(capsys):
    # text and JSON of every non-empty t >= 2 triple: the DirectVeryAmple and
    # Decomposition lines, the JSON "f" key and the exit codes
    digest, calls = hashlib.md5(), 0
    for n, d, t in triples((2, 3, 4), 500):
        if t < 2 or decide(n, d, t).status == "Empty":
            continue
        for extra in ([], ["--format", "json"]):
            rc = cli.main(["decide", str(n), str(d), str(t), *extra])
            digest.update(f"{rc}:{capsys.readouterr().out}".encode())
            calls += 1
    assert (calls, digest.hexdigest()) == (1078, "bd225ea5e5f8f7b57d4a9f301539b434")


def test_witness_outputs_pinned(capsys):
    # text and JSON of every non-empty t >= 2 triple, with the exit codes
    digest, calls = hashlib.md5(), 0
    for n, d, t in triples((2, 3, 4), 500):
        if t < 2 or decide(n, d, t).status == "Empty":
            continue
        for extra in ([], ["--format", "json"]):
            rc = cli.main(["witness", str(n), str(d), str(t), *extra])
            digest.update(f"{rc}:{capsys.readouterr().out}".encode())
            calls += 1
    assert (calls, digest.hexdigest()) == (1078, "cf356d17e812f7050b501f07c8a81fbb")


def test_csv_format_rejected_for_single_triples():
    # plain text is the default; json is the only --format of decide and witness
    assert run("decide", "2", "5", "2", "--format", "csv").returncode == 2
    assert run("witness", "3", "28", "8", "--format", "csv").returncode == 2


def test_witness_command():
    proc = run("witness", "3", "28", "8", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {"c_L": 8, "c_delta": -3, "d_hat": 1}

    assert run("witness", "2", "3", "3").returncode == 4


def test_witness_with_divisibility_one_exit_2():
    proc = run("witness", "2", "5", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "witness classes need t >= 2" in proc.stderr
    assert "DivisibilityOne" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_census_csv_stdout():
    proc = run("census", "2", "--d-max", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,d,t,nonempty,components,c_L,c_delta,d_hat,verdict,certificate,in_A,discrepancy"
    assert len(lines) == 1 + 4  # header + t in {1,2,3,6}
    assert lines[2].startswith("2,1,2,true,1,2,-1,1,Unknown")


def test_census_json_to_file(tmp_path):
    out = tmp_path / "census.json"
    proc = run("census", "2", "3", "--d-max", "2", "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert {row["n"] for row in payload} == {2, 3}
    assert all(row["d"] <= 2 for row in payload)


def test_census_unwritable_path_exit_2():
    proc = run("census", "2", "--d-max", "1", "--out", "/nonexistent/census.csv")
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def _count_rows(monkeypatch):
    built = []
    build_row = census.build_row

    def counting(*triple):
        built.append(triple)
        return build_row(*triple)

    monkeypatch.setattr(census, "build_row", counting)
    return built


def test_census_unwritable_path_rejected_before_any_row(monkeypatch, capsys):
    built = _count_rows(monkeypatch)
    argv = ["census", "2", "3", "4", "--d-max", "20000", "--out", "/nonexistent/x.csv"]
    assert cli.main(argv) == 2
    assert built == []
    out, err = capsys.readouterr()
    assert out == "" and "cannot write /nonexistent/x.csv" in err


def test_census_rejected_range_touches_no_file(monkeypatch, tmp_path, capsys):
    built = _count_rows(monkeypatch)
    missing = tmp_path / "missing.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("previous\n")
    for n, d_max in (("5", "3"), ("2", "0")):
        for out in (missing, kept):
            assert cli.main(["census", n, "--d-max", d_max, "--out", str(out)]) == 2
    assert built == []
    assert not missing.exists()
    assert kept.read_text() == "previous\n"
    assert capsys.readouterr().out == ""


def test_census_to_file_in_process(monkeypatch, tmp_path):
    built = _count_rows(monkeypatch)
    out = tmp_path / "census.csv"
    out.write_text("stale contents that must be truncated\n" * 100)
    assert cli.main(["census", "2", "--d-max", "2", "--out", str(out)]) == 0
    assert len(built) == 8
    assert out.read_text() == census.rows_to_csv(census.census_rows([2], 2))


def test_failed_census_leaves_out_alone(monkeypatch, tmp_path, capsys):
    build_row = census.build_row
    built = []

    def failing(*triple):
        built.append(triple)
        if len(built) == 100:
            raise ValueError("row 100 failed")
        return build_row(*triple)

    monkeypatch.setattr(census, "build_row", failing)
    out = tmp_path / "f"
    out.write_bytes(b"old bytes\n")
    for fmt in ("csv", "json"):
        built.clear()
        argv = ["census", "2", "3", "4", "--d-max", "50", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 2
        assert len(built) == 100
        assert out.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert "row 100 failed" in capsys.readouterr().err


def test_census_out_mode_is_that_of_open(tmp_path):
    umask = os.umask(0o027)
    try:
        new = tmp_path / "new.csv"
        assert cli.main(["census", "2", "--d-max", "2", "--out", str(new)]) == 0
        assert new.stat().st_mode & 0o777 == 0o666 & ~0o027
    finally:
        os.umask(umask)
    # an existing file keeps its mode, as open(path, "w") keeps it
    old = tmp_path / "old.csv"
    old.write_text("old\n")
    old.chmod(0o604)
    assert cli.main(["census", "2", "--d-max", "2", "--out", str(old)]) == 0
    assert old.stat().st_mode & 0o777 == 0o604
    assert old.read_text() == census.rows_to_csv(census.census_rows([2], 2))
    # and, like open(path, "w"), a symlink is written through, not replaced
    link = tmp_path / "link.csv"
    link.symlink_to(old)
    old.write_text("old\n")
    assert cli.main(["census", "2", "--d-max", "2", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert old.read_text() == census.rows_to_csv(census.census_rows([2], 2))


def test_census_out_dev_null():
    assert cli.main(["census", "2", "3", "4", "--d-max", "20", "--out", os.devnull]) == 0


def test_census_csv_pinned_at_20000(tmp_path):
    out = tmp_path / "census.csv"
    assert cli.main(["census", "2", "3", "4", "--d-max", "20000", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "49a71b48c3d2a257ac69cea2aa080cbd"


def test_census_json_pinned_at_500(capsys):
    assert cli.main(["census", "2", "3", "4", "--d-max", "500", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "6f88754b0b18cbe5704b420d4be4e03a"


def test_census_json_pinned_at_5000(tmp_path):
    out = tmp_path / "census.json"
    argv = ["census", "2", "3", "4", "--d-max", "5000", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == "35b3a159126732c44759c604bfd773f1"


def test_cli_census_call_counts_at_5000(monkeypatch, tmp_path):
    """The CLI builds the 1,392 rows with d < start(n) + P and shifts the text of the rest.

    Neither format prints a certificate, so a shifted row rebuilds none:
    every certify_decomposition call is made inside decide.
    """
    calls = {"build_row": 0, "certify_decomposition": 0, "in_decide": 0}
    deciding = []

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "certify_decomposition" and deciding:
                calls["in_decide"] += 1
            return fn(*args)

        return wrapper

    def decide_marked(*args):
        deciding.append(args)
        try:
            return decide(*args)
        finally:
            deciding.pop()

    monkeypatch.setattr(census, "build_row", counting("build_row", census.build_row))
    monkeypatch.setattr(census, "decide", decide_marked)
    monkeypatch.setattr(
        bpf, "certify_decomposition", counting("certify_decomposition", bpf.certify_decomposition)
    )

    argv = ["census", "2", "3", "4", "--d-max", "5000", "--out", str(tmp_path / "f")]
    assert cli.main(argv) == 0
    assert calls == {"build_row": 1392, "certify_decomposition": 124, "in_decide": 124}


_PEAK_RSS = (
    "import sys\n"
    "from kummer_moduli import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
)


def test_census_memory_flat_in_d_max(tmp_path):
    # the child's own peak RSS in kB.  Not ru_maxrss: Linux carries the
    # peak of the spawning process over into the child's, so after an
    # in-process census both runs would read this process's peak.
    def peak_kb(d_max, fmt):
        argv = ["census", "2", "3", "4", "--d-max", str(d_max), "--format", fmt,
                "--out", str(tmp_path / "f")]
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=run_env(),
                              stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        return int(proc.stdout)

    for fmt in ("csv", "json"):
        assert peak_kb(20000, fmt) - peak_kb(200, fmt) < 10 * 1024, fmt


def test_census_unsupported_n_exit_2():
    proc = run("census", "5", "--d-max", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n in {2,3,4}" in proc.stderr


def test_census_output_pinned():
    proc = run("census", "2", "3", "4", "--d-max", "200")
    assert proc.returncode == 0
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == "5e8db4b62d954d879cee95943c64e59f"


def test_census_byte_identical_runs():
    first = run("census", "2", "--d-max", "30")
    second = run("census", "2", "--d-max", "30")
    assert first.stdout == second.stdout


def test_verify_passing_suites():
    for suite in ("connectedness", "witnesses"):
        proc = run("verify", suite)
        assert proc.returncode == 0, proc.stdout
        assert "PASS" in proc.stdout

    proc = run("verify", "nonemptiness", "--d-max", "40")
    assert proc.returncode == 0


def test_verify_nonemptiness_fails_on_a_starved_box(monkeypatch, capsys):
    # a box too small for genuinely non-empty triples must turn the suite red
    monkeypatch.setattr(oracle, "default_bounds", lambda n, d, t: SearchBounds(1, 1))
    assert cli.main(["verify", "nonemptiness", "--d-max", "20"]) == 1
    out = capsys.readouterr().out
    assert "NO CLASS FOUND" in out and out.endswith("nonemptiness: FAIL\n")


def test_verify_unknown_suite_exit_2():
    assert run("verify", "nonsense").returncode == 2


def test_verify_rejects_flags_the_suite_ignores(capsys):
    proc = run("verify", "divisibility", "--d-max", "10")
    assert proc.returncode == 2
    assert "--d-max" in proc.stderr and proc.stdout == ""
    # --d-max is refused exactly by the suites whose function takes no d_max
    assert {name for name in kummer_moduli.__all__ if name.startswith("suite_")} == {
        f"suite_{name}" for name in census.SUITES
    }
    for name, suite in census.SUITES.items():
        assert suite is getattr(census, f"suite_{name}")
        code = cli.main(["verify", name, "--d-max", "10"])
        out, err = capsys.readouterr()
        if "d_max" in inspect.signature(suite).parameters:
            assert code in (0, 1) and "--d-max" not in err and out, name
        else:
            assert code == 2 and "--d-max" in err and out == "", name
    # --bounds is an option of no suite: the nonemptiness box is always the oracle's
    for suite in ("connectedness", "witnesses", "nonemptiness"):
        proc = run("verify", suite, "--d-max", "10", "--bounds", "1,1,1")
        assert proc.returncode == 2
        assert "--bounds" in proc.stderr and proc.stdout == ""


def test_verify_empty_range_exit_2():
    for suite, d_max in (("connectedness", "0"), ("witnesses", "-1"),
                         ("nonemptiness", "0"), ("exceptional", "-3")):
        proc = run("verify", suite, "--d-max", d_max)
        assert proc.returncode == 2, suite
        assert "PASS" not in proc.stdout


def test_verify_exceptional_matches_library():
    """CLI exit status must agree with the library suite verdict."""
    from kummer_moduli.census import suite_exceptional

    result = suite_exceptional(d_max=200)
    proc = run("verify", "exceptional", "--d-max", "200")
    assert (proc.returncode == 0) == result.passed
    for line in result.lines:
        assert line in proc.stdout


_VIOLATIONS = "n={n} d<={d}: 0 violation(s)\n"

VERIFY_TEXTS = {
    ("divisibility",): (
        0,
        "n=2 coord_bound=3: 0 mismatch(es)\n"
        "n=3 coord_bound=3: 0 mismatch(es)\n"
        "n=4 coord_bound=3: 0 mismatch(es)\n"
        "divisibility: PASS\n",
    ),
    ("connectedness", "--d-max", "200"): (
        0,
        "".join(_VIOLATIONS.format(n=n, d=200) for n in (2, 3, 4))
        + "connectedness: PASS\n",
    ),
    ("nonemptiness", "--d-max", "40"): (
        0,
        "".join(_VIOLATIONS.format(n=n, d=40) for n in (2, 3, 4))
        + "nonemptiness: PASS\n",
    ),
    ("witnesses", "--d-max", "200"): (
        0,
        "checked 215 non-empty triples with t >= 2, d <= 200\nwitnesses: PASS\n",
    ),
    ("exceptional", "--d-max", "200"): (
        1,
        "census n in {2,3,4}, d <= 200\n"
        "unknown triples: [(2, 1, 2), (3, 4, 2), (3, 28, 8), (3, 92, 8), (4, 3, 2),"
        " (4, 5, 5), (4, 30, 5), (4, 55, 10)]\n"
        "expected exclusions in range: [(2, 1, 2), (3, 4, 2), (3, 28, 8), (3, 92, 8),"
        " (4, 3, 2), (4, 20, 5), (4, 55, 10)]\n"
        "  DISCREPANCY (4, 20, 5): excluded but certified (reported, permitted)\n"
        "  VIOLATION (4, 5, 5): Unknown but not in the excluded set\n"
        "  VIOLATION (4, 30, 5): Unknown but not in the excluded set\n"
        "exceptional: FAIL\n",
    ),
}


def test_verify_texts_pinned(capsys):
    for argv, expected in VERIFY_TEXTS.items():
        code = cli.main(["verify", *argv])
        assert (code, capsys.readouterr().out) == expected, argv


@pytest.mark.parametrize("suite", ["connectedness", "nonemptiness"])
def test_verify_suite_finishes_for_a_huge_d_max(capsys, suite):
    # each suite reads one count (and searches once) per class mod (2n+2)^2,
    # so its time does not grow with d_max
    start = time.perf_counter()
    code = cli.main(["verify", suite, "--d-max", "1000000000"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (
        0,
        "".join(_VIOLATIONS.format(n=n, d=1000000000) for n in (2, 3, 4))
        + f"{suite}: PASS\n",
    )
    assert elapsed < 2, elapsed


def test_verify_witnesses_finishes_for_a_huge_d_max(capsys):
    # the suite checks one witness per class mod P = (2n+2)^2, and counts the d of each class
    d_max = 10**9
    checked = 0
    for n in (2, 3, 4):
        period = (2 * n + 2) ** 2
        checked += sum(
            (d_max - r) // period + 1 for _, r, t in triples((n,), period)
            if t >= 2 and component_count(n, r, t).count > 0
        )
    start = time.perf_counter()
    code = cli.main(["verify", "witnesses", "--d-max", str(d_max)])
    elapsed = time.perf_counter() - start
    assert checked == 1082638888
    assert (code, capsys.readouterr().out) == (
        0,
        f"checked {checked} non-empty triples with t >= 2, d <= {d_max}\nwitnesses: PASS\n",
    )
    assert elapsed < 1, elapsed


def test_verify_exceptional_finishes_for_a_huge_d_max(capsys):
    # the suite reads rows of d <= census._prefix(n) only; past it no d is Unknown or excluded
    assert cli.main(["verify", "exceptional", "--d-max", "500"]) == 1
    at_500 = capsys.readouterr().out.splitlines()
    start = time.perf_counter()
    code = cli.main(["verify", "exceptional", "--d-max", "1000000000"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0] == "census n in {2,3,4}, d <= 1000000000"
    assert lines[1:] == at_500[1:]
    assert elapsed < 1, elapsed


def test_closed_stdout_is_not_a_failed_check():
    for args in (("verify", "connectedness", "--d-max", "50"), ("census", "2", "--d-max", "3")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run(*args, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr, args


def test_stdout_closed_in_mid_census():
    for fmt, first_line in (("csv", b"n,d,t,"), ("json", b"[\n")):
        proc = subprocess.Popen(
            CMD + ["census", "2", "3", "4", "--d-max", "5000", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=run_env(),
        )
        assert proc.stdout.readline().startswith(first_line), fmt
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2, fmt
        assert b"Traceback" not in err, fmt
