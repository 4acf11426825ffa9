"""Census rows, serialization schemas, determinism, verification suites."""

import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from kummer_moduli import bpf, census, moduli
from kummer_moduli.census import (
    CSV_HEADER,
    CensusRow,
    build_row,
    census_rows,
    rows_to_csv,
    rows_to_json,
    suite_exceptional,
    worker_count,
)


def test_build_row_unknown_example():
    row = build_row(2, 1, 2)
    assert row.verdict == "Unknown"
    assert row.in_A is True
    assert row.nonempty is True
    assert row.components == 1
    assert (row.c_L, row.c_delta, row.d_hat) == (2, -1, 1)
    assert row.certificate is None
    assert row.discrepancy is False


def test_build_row_certified_example():
    row = build_row(2, 5, 2)
    assert row.verdict == "GenericBPF"
    assert row.certificate == "DirectVeryAmple"
    assert row.in_A is False


def test_row_invariants_on_grid():
    for row in census_rows([2, 3], 40):
        assert (row.verdict == "Empty") == (row.components == 0)
        if row.discrepancy:
            assert row.in_A
        assert row.components in (0, 1)
        assert row.nonempty == (row.components > 0)


def test_rows_cover_divisors_only():
    rows = census_rows([2], 4)
    assert [(r.d, r.t) for r in rows] == [
        (d, t) for d in range(1, 5) for t in (1, 2, 3, 6)
    ]


def test_rows_sorted_lexicographically():
    rows = census_rows([3, 2], 7)
    keys = [(r.n, r.d, r.t) for r in rows]
    assert keys == sorted(keys)


def test_csv_header_and_cells():
    rows = census_rows([2], 1)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,1,1,true,1,,,,GenericBPF,DivisibilityOne,false,false"
    assert lines[2] == "2,1,2,true,1,2,-1,1,Unknown,,true,false"
    assert text.endswith("\n")


def _reference_csv(rows):
    """The cell-by-cell writer that rows_to_csv replaced, kept as its oracle."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    fields = CSV_HEADER.split(",")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([cell(getattr(row, name)) for name in fields])
    return buffer.getvalue()


_ints = st.integers(min_value=-(10**6), max_value=10**6)
_maybe_ints = st.none() | _ints
# strings that need quoting: separators, quotes and line breaks
_texts = st.text(alphabet=st.sampled_from('ab ,"\n\r'), max_size=8)

census_row_values = st.builds(
    CensusRow,
    n=_ints,
    d=_ints,
    t=_ints,
    nonempty=st.booleans(),
    components=_ints,
    c_L=_maybe_ints,
    c_delta=_maybe_ints,
    d_hat=_maybe_ints,
    verdict=_texts,
    certificate=st.none() | _texts,
    in_A=st.booleans(),
    discrepancy=st.booleans(),
)


@given(st.lists(census_row_values, max_size=5))
def test_csv_matches_the_reference_writer(rows):
    assert rows_to_csv(rows) == _reference_csv(rows)


def test_csv_reference_on_quoted_cells():
    row = CensusRow(2, -7, 3, False, -1, None, -2, None, 'a,"b"\nc', '"', True, False)
    text = rows_to_csv([row])
    assert text == _reference_csv([row])
    assert text.splitlines()[1] == '2,-7,3,false,-1,,-2,,"a,""b""'
    assert next(csv.reader(io.StringIO(text.split("\n", 1)[1]))) == [
        "2", "-7", "3", "false", "-1", "", "-2", "", 'a,"b"\nc', '"', "true", "false"
    ]


def test_census_csv_pinned_at_5000():
    text = rows_to_csv(census_rows([2, 3, 4], 5000))
    assert hashlib.md5(text.encode()).hexdigest() == "3f55375e05e52ed6c89c1246d0b08fa1"


def test_json_schema():
    rows = census_rows([2], 1)
    payload = json.loads(rows_to_json(rows))
    assert isinstance(payload, list)
    assert list(payload[0]) == CSV_HEADER.split(",")
    assert payload[0]["certificate"] == "DivisibilityOne"
    assert payload[1]["c_L"] == 2 and payload[1]["c_delta"] == -1
    assert payload[2]["c_L"] is None


def test_census_rejects_bad_range():
    with pytest.raises(ValueError):
        census_rows([2], 0)


def test_census_rejects_unsupported_n_before_any_row(monkeypatch):
    built = []
    monkeypatch.setattr(census, "build_row", lambda *triple: built.append(triple))
    with pytest.raises(ValueError):
        census_rows([2, 5], 3)
    assert built == []


def test_census_per_row_call_budget(monkeypatch):
    """One component_count per row, plus the two of the witness builds.

    build_row must still call decide and build_witness itself: the
    traced benchmark reads those spans under each build_row span, and the
    worker_count span under census_rows.
    """
    calls = {"component_count": 0, "decide": 0, "build_witness": 0, "worker_count": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_count = counting("component_count", moduli.component_count)
    for module in (moduli, bpf, census):
        monkeypatch.setattr(module, "component_count", counted_count)
    for name in ("decide", "build_witness", "worker_count"):
        monkeypatch.setattr(census, name, counting(name, getattr(census, name)))

    rows = census_rows([2, 3, 4], 60)
    witness_rows = sum(1 for r in rows if r.nonempty and r.t >= 2)
    assert witness_rows > 0
    assert calls["component_count"] <= len(rows) + 2 * witness_rows
    assert calls["decide"] == len(rows)
    assert calls["build_witness"] == witness_rows
    assert calls["worker_count"] == 1


def test_census_csv_pinned():
    csv_text = rows_to_csv(census_rows([2, 3], 25))
    assert hashlib.md5(csv_text.encode()).hexdigest() == "c2cb258a9c41014a634690bf3cae94dd"


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("KUMMER_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("KUMMER_THREADS", "3")
    assert worker_count() == 1


def test_certificates_on_rows_reverify():
    rows = [row for row in census_rows([2, 3, 4], 60) if row.certificate_detail is not None]
    assert rows
    for row in rows:
        assert bpf.certificate_is_valid(row.n, row.d, row.t, row.certificate_detail)


def test_exceptional_suite_reports_known_defects():
    """The d <= 500 scan is expected to disagree with the excluded set.

    Two n=4, t=5 triples come out Unknown despite not being excluded,
    and (4,20,5) is excluded yet certified; the suite must say exactly
    that and fail honestly.
    """
    result = suite_exceptional(d_max=500)
    assert not result.passed
    text = "\n".join(result.lines)
    assert "(4, 5, 5)" in text and "(4, 30, 5)" in text
    assert "DISCREPANCY (4, 20, 5)" in text
