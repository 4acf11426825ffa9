"""End-to-end command-line checks through a real subprocess."""

import hashlib
import json
import os
import subprocess
import sys

CMD = [sys.executable, "-m", "kummer_moduli"]


def run(*args, **kwargs):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, **kwargs
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


def test_census_unsupported_n_exit_2():
    proc = run("census", "5", "--d-max", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n in {2,3,4}" in proc.stderr


def test_census_output_pinned():
    serial = {k: v for k, v in os.environ.items() if k != "KUMMER_THREADS"}
    for env in (serial, {**serial, "KUMMER_THREADS": "2"}):
        proc = run("census", "2", "3", "4", "--d-max", "200", env=env)
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

    proc = run("verify", "nonemptiness", "--d-max", "20", "--bounds", "1,1,1")
    assert proc.returncode == 1


def test_verify_unknown_suite_exit_2():
    assert run("verify", "nonsense").returncode == 2


def test_verify_rejects_flags_the_suite_ignores():
    proc = run("verify", "divisibility", "--d-max", "10")
    assert proc.returncode == 2
    assert "--d-max" in proc.stderr and proc.stdout == ""
    for suite in ("connectedness", "witnesses"):
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
