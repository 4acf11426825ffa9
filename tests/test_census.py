"""Census rows, serialization schemas, determinism, verification suites."""

import csv
import hashlib
import io
import json
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from kummer_moduli import bpf, census, lattice, moduli
from kummer_moduli.census import (
    CSV_HEADER,
    CensusRow,
    build_row,
    census_rows,
    rows_to_csv,
    rows_to_json,
    suite_connectedness,
    suite_divisibility,
    suite_exceptional,
    suite_witnesses,
    worker_count,
)
from kummer_moduli.witness import build_witness, verify_witness


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
    """Each build_row call makes one decide and one component_count (inside decide).

    A witness row also makes one direct build_witness, which counts no
    components: the rule alone says whether a witness exists.
    build_row must call decide and build_witness itself: the traced
    benchmark reads those spans under each build_row span, and the
    worker_count span under census_rows.  census_rows builds every row;
    the CLI's writers call it once per n for the prefix d <= _prefix(n):
    at d <= 60 the n = 2 rows past d = 37 are shifted text.
    """
    calls = {"component_count": 0, "decide": 0, "build_witness": 0, "worker_count": 0}
    per_row = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_build_row(*args):
        before = dict(calls)
        row = build_row(*args)
        spent = tuple(calls[k] - before[k] for k in ("component_count", "decide", "build_witness"))
        per_row.append((spent, row.nonempty and row.t >= 2))
        return row

    counted_count = counting("component_count", moduli.component_count)
    for module in (moduli, bpf, census):
        monkeypatch.setattr(module, "component_count", counted_count)
    for name in ("decide", "build_witness", "worker_count"):
        monkeypatch.setattr(census, name, counting(name, getattr(census, name)))
    monkeypatch.setattr(census, "build_row", counted_build_row)

    rows = census_rows([2, 3, 4], 60)
    assert len(rows) == len(per_row) == 4 * 60 * 3
    assert any(witness_row for _, witness_row in per_row)
    for spent, witness_row in per_row:
        assert spent == (1, 1, 1 if witness_row else 0)
    assert calls["component_count"] == calls["decide"] == len(per_row)
    assert calls["worker_count"] == 1

    per_row.clear()
    _table_text([2, 3, 4], 60, "csv")
    assert len(per_row) == 4 * (37 + 60 + 60)
    assert calls["worker_count"] == 4


def test_stream_equals_build_row_at_1000():
    assert census_rows((2, 3, 4), 1000) == [
        build_row(*triple) for triple in moduli.triples((2, 3, 4), 1000)
    ]


def _table_text(ns, d_max, fmt):
    """The text the CLI writes for ``kummer census NS --d-max D --format FMT``."""
    buffer = io.StringIO()
    census._write_table(ns, d_max, fmt, buffer)
    return buffer.getvalue()


def _start_and_period(n):
    """(start(n), P): from start(n) on no d of n is excluded or Unknown, so rows repeat mod P."""
    excluded = [d for m, d, _ in bpf.exceptional_set() if m == n]
    start = max(
        1 + max(excluded, default=0),
        *(bpf.certification_threshold(n, t) for _, _, t in moduli.triples((n,), 1)),
    )
    return start, (2 * n + 2) ** 2


def _counting_build_row(monkeypatch, build=build_row):
    """Patch census.build_row with ``build``; returns the list of triples it is called on."""
    built = []

    def counted(*triple):
        built.append(triple)
        return build(*triple)

    monkeypatch.setattr(census, "build_row", counted)
    return built


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_builds_exactly_the_prefix(monkeypatch, n):
    # the built prefix is d < start(n) + P, that is d <= census._prefix(n)
    start, period = _start_and_period(n)
    built = _counting_build_row(monkeypatch)
    _table_text([n], start + 2 * period, "csv")
    assert built == list(moduli.triples((n,), start + period - 1))


@pytest.mark.parametrize("d_max", [5000, 20000])
def test_census_call_counts_at_5000(monkeypatch, d_max):
    """The writers build the prefix only; one certify_decomposition per built witness row.

    The prefix is d <= census._prefix(n) = start(n) + P - 1: past it, every
    d has its text shifted from the last period of the prefix, with no
    certificate rebuilt, so the counts stay flat in d_max.
    """
    built = _counting_build_row(monkeypatch)
    calls = []
    certify = bpf.certify_decomposition
    monkeypatch.setattr(bpf, "certify_decomposition", lambda w: calls.append(w) or certify(w))

    assert _table_text([2, 3, 4], d_max, "csv").count("\n") == 12 * d_max + 1
    # d <= 37, 156 and 155 for n = 2, 3, 4, four t each
    assert len(built) == 4 * (37 + 156 + 155) == 1392
    witness_rows = sum(t >= 2 and moduli.component_count(n, d, t).count > 0 for n, d, t in built)
    assert len(calls) == witness_rows == 124


def _assert_table_text_equals_rows(ns, d_max):
    rows = census_rows(ns, d_max)
    assert _table_text(ns, d_max, "csv") == rows_to_csv(rows)
    assert _table_text(ns, d_max, "json") == rows_to_json(rows)


@given(
    st.sets(st.sampled_from([2, 3, 4]), min_size=1).map(sorted),
    st.integers(1, 400),
)
@example([2, 3, 4], 400)  # shifts the d_hat of witness rows of every n
@example([2, 3, 4], 1000)
def test_shifted_text_equals_rows(ns, d_max):
    _assert_table_text_equals_rows(ns, d_max)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shifted_text_equals_rows_at_the_first_shift(n):
    # d_max = start(n) + P - 1 shifts no row of n, start(n) + P the first d
    start, period = _start_and_period(n)
    for d_max in (start + period - 1, start + period, start + period + 1):
        _assert_table_text_equals_rows([n], d_max)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_prefix_ends_with_a_period_that_repeats(n):
    # the last period of the prefix is the one every later d is shifted from
    start, period = _start_and_period(n)
    prefix = census._prefix(n)
    assert prefix == start + period - 1 == {2: 37, 3: 156, 4: 155}[n]
    last_period = [row for row in census_rows([n], prefix) if row.d > prefix - period]
    assert len(last_period) == period * len(census_rows([n], 1))
    assert all(row.verdict != "Unknown" and not row.in_A for row in last_period)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_shift_from_a_period_too_early_changes_the_text(monkeypatch, n):
    # a prefix one d short shifts the rows of start(n) - 1, which differ a period later
    prefix = census._prefix
    d_max = prefix(n) + (2 * n + 2) ** 2
    monkeypatch.setattr(census, "_prefix", lambda m: prefix(m) - 1)
    assert _table_text([n], d_max, "csv") != rows_to_csv(census_rows([n], d_max))


def test_an_excluded_d_past_the_thresholds_moves_the_prefix(monkeypatch):
    # (2, 101, 2) is certified, so once excluded its row is a discrepancy and d = 137 is not
    monkeypatch.setattr(bpf, "_EXCEPTIONAL_TRIPLES", bpf.exceptional_set() | {(2, 101, 2)})
    assert census._prefix(2) == 101 + 36
    assert build_row(2, 101, 2).discrepancy and not build_row(2, 137, 2).in_A
    _assert_table_text_equals_rows([2], 300)


def test_the_thresholds_alone_give_the_prefix_with_no_excluded_d(monkeypatch):
    # the thresholds 2, 93 and 56 are 1 + the last Unknown d of n = 2, 3, 4
    monkeypatch.setattr(census, "exceptional_set", frozenset)
    assert [census._prefix(n) for n in (2, 3, 4)] == [37, 156, 155]
    _assert_table_text_equals_rows([2, 3, 4], 400)


def test_batched_writers_match_their_oracles():
    # 2,400 rows: more than one batch
    rows = census_rows([2, 3, 4], 200)
    assert len(rows) > census._BATCH
    assert rows_to_csv(rows) == _reference_csv(rows)
    expected = [{name: getattr(row, name) for name in CSV_HEADER.split(",")} for row in rows]
    assert rows_to_json(rows) == json.dumps(expected, indent=2) + "\n"


@given(st.lists(census_row_values, max_size=5))
def test_json_matches_one_dump_of_the_table(rows):
    expected = [{name: getattr(row, name) for name in CSV_HEADER.split(",")} for row in rows]
    assert rows_to_json(rows) == json.dumps(expected, indent=2) + "\n"


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


def test_divisibility_suite_reports_a_mismatch(monkeypatch):
    fake = {3: [((1, 0, 0, 0, 0, 0, 1), 2, 1)]}
    monkeypatch.setattr(census, "divisibility_crosscheck", lambda n, b: fake.get(n, []))
    result = suite_divisibility()
    assert result.passed is False
    assert result.lines == (
        "n=2 coord_bound=3: 0 mismatch(es)",
        "n=3 coord_bound=3: 1 mismatch(es)",
        "  MISMATCH (1, 0, 0, 0, 0, 0, 1): ideal=2 formula=1",
        "n=4 coord_bound=3: 0 mismatch(es)",
    )


def test_connectedness_suite_reports_a_violation(monkeypatch):
    count = census.component_count
    monkeypatch.setattr(
        census,
        "component_count",
        lambda *triple: moduli.CountResult(2, "2") if triple == (4, 20, 10) else count(*triple),
    )
    result = suite_connectedness(d_max=30)
    assert result.passed is False
    assert result.lines == (
        "n=2 d<=30: 0 violation(s)",
        "n=3 d<=30: 0 violation(s)",
        "n=4 d<=30: 1 violation(s)",
        "  VIOLATION (n=4, d=20, t=10) components=2",
    )


def _connectedness_per_triple(d_max):
    """The connectedness suite as one count per triple, d by d: the reference for the class walk."""
    lines = []
    ok = True
    for n in (2, 3, 4):
        violations = []
        for _, d, t in moduli.triples((n,), d_max):
            count = census.component_count(n, d, t).count
            if count not in (0, 1):
                violations.append(f"  VIOLATION (n={n}, d={d}, t={t}) components={count}")
        lines.append(f"n={n} d<={d_max}: {len(violations)} violation(s)")
        lines += violations[:20]
        ok = ok and not violations
    return census.SuiteResult("connectedness", ok, tuple(lines))


# the classes (n, t, d mod P) where a periodic mutant count gives components=2: two of
# n = 3, which the walk visits (t=2, r=40) before (t=8, r=3), so their lines interleave
# by d, and one of n = 2, whose own lines fill the 20-line cut
_MUTANT_CLASSES = {(3, 2, 40), (3, 8, 3), (2, 3, 7)}


def _periodic_mutant(count):
    return lambda n, d, t: (
        moduli.CountResult(2, "2")
        if (n, t, d % (2 * n + 2) ** 2) in _MUTANT_CLASSES
        else count(n, d, t)
    )


@pytest.mark.parametrize("mutant", [False, True])
@pytest.mark.parametrize("d_max", [1, 35, 36, 37, 64, 99, 100, 101, 250, 5000])
def test_connectedness_class_walk_agrees_with_a_count_per_triple(monkeypatch, mutant, d_max):
    # d_max lies below, at and past P = 36, 64, 100 of n = 2, 3, 4
    if mutant:
        monkeypatch.setattr(census, "component_count", _periodic_mutant(census.component_count))
    assert suite_connectedness(d_max) == _connectedness_per_triple(d_max)


def test_periodic_mutant_interleaves_classes_past_the_cut(monkeypatch):
    monkeypatch.setattr(census, "component_count", _periodic_mutant(census.component_count))
    lines = _connectedness_per_triple(5000).lines
    # each n lists only its first 20 violations: of 139 for n = 2, of 79 + 78 for n = 3
    assert lines[0] == "n=2 d<=5000: 139 violation(s)"
    assert lines[20] == "  VIOLATION (n=2, d=691, t=3) components=2"
    assert lines[21] == "n=3 d<=5000: 157 violation(s)"
    assert lines[22:25] == (
        "  VIOLATION (n=3, d=3, t=8) components=2",
        "  VIOLATION (n=3, d=40, t=2) components=2",
        "  VIOLATION (n=3, d=67, t=8) components=2",
    )
    assert lines[42:] == ("n=4 d<=5000: 0 violation(s)",)


@pytest.mark.parametrize("d_max", [1, 36, 37, 100, 5000])
def test_connectedness_suite_reads_each_count_once_per_class(monkeypatch, d_max):
    counted = []
    count = census.component_count

    def record_count(*triple):
        counted.append(triple)
        return count(*triple)

    monkeypatch.setattr(census, "component_count", record_count)
    assert suite_connectedness(d_max).passed is True
    # one count per class mod P for each t | 2n+2: four such t for each n
    assert len(set(counted)) == len(counted)
    assert len(counted) == sum(4 * min((2 * n + 2) ** 2, d_max) for n in (2, 3, 4))


def test_connectedness_suite_checks_the_range_before_any_count(monkeypatch):
    monkeypatch.setattr(census, "component_count", lambda *triple: pytest.fail("counted"))
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        suite_connectedness(0)


def test_witnesses_suite_reports_a_failure(monkeypatch):
    verify = census.verify_witness
    monkeypatch.setattr(
        census, "verify_witness", lambda w, *triple: triple != (3, 28, 8) and verify(w, *triple)
    )
    result = suite_witnesses(d_max=30)
    assert result.passed is False
    assert result.lines[1:] == ("  WITNESS FAILURE at (n,d,t)=(3, 28, 8)",)


def _non_empty_classes():
    """Every (n, t, r, P) with t >= 2, r in 1..P and a non-empty count: the classes the suite checks."""
    return [
        (n, t, r, period) for n, t, r, period in census._classes(100)
        if t >= 2 and moduli.component_count(n, r, t).count > 0
    ]


@pytest.mark.parametrize("d_max", [1, 30, 36, 99, 100, 101, 250])
def test_witnesses_suite_checks_exactly_the_non_empty_triples(monkeypatch, d_max):
    # d_max lies below, at and past P = 36, 64, 100 of n = 2, 3, 4
    built, verified, counted = [], [], []
    build, verify, count = census.build_witness, census.verify_witness, census.component_count

    def record_build(*triple):
        built.append(triple)
        return build(*triple)

    def record_verify(w, *triple):
        verified.append(triple)
        return verify(w, *triple)

    def record_count(*triple):
        counted.append(triple)
        return count(*triple)

    monkeypatch.setattr(census, "build_witness", record_build)
    monkeypatch.setattr(census, "verify_witness", record_verify)
    monkeypatch.setattr(census, "component_count", record_count)
    expected = {
        (n, d, t) for n, d, t in moduli.triples((2, 3, 4), d_max)
        if t >= 2 and moduli.component_count(n, d, t).count > 0
    }
    # one witness per non-empty class, built and verified at its first d
    firsts = [(n, r, t) for n, t, r, _ in _non_empty_classes() if r <= d_max]
    result = suite_witnesses(d_max)
    assert result.passed is True
    assert built == verified == firsts
    assert set(firsts) == {(n, d, t) for n, d, t in expected if d <= (2 * n + 2) ** 2}
    assert result.lines == (
        f"checked {len(expected)} non-empty triples with t >= 2, d <= {d_max}",
    )
    # one count per class mod P for each t >= 2: three such t for each n
    assert len(counted) == sum(3 * min((2 * n + 2) ** 2, d_max) for n in (2, 3, 4))


def test_witnesses_suite_checks_the_range_before_any_work(monkeypatch):
    monkeypatch.setattr(census, "component_count", lambda *triple: pytest.fail("counted"))
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        suite_witnesses(0)


def test_witnesses_suite_sorts_failures_across_classes(monkeypatch):
    # n = 3 is non-empty at (t=4, r=44) and (t=8, r=28), (t=8, r=60) mod 64; the walk
    # visits them in that order, and each fails at every d of its class
    failing = {(3, 44, 4), (3, 28, 8), (3, 60, 8)}
    visited = []
    verify = census.verify_witness

    def failing_verify(w, *triple):
        visited.append(triple)
        return triple not in failing and verify(w, *triple)

    monkeypatch.setattr(census, "verify_witness", failing_verify)
    result = suite_witnesses(d_max=150)
    assert [triple for triple in visited if triple in failing] == [
        (3, 44, 4), (3, 28, 8), (3, 60, 8),
    ]
    assert result.passed is False
    assert result.lines[1:] == tuple(
        f"  WITNESS FAILURE at (n,d,t)={triple}"
        for triple in [(3, 28, 8), (3, 44, 4), (3, 60, 8), (3, 92, 8), (3, 108, 4), (3, 124, 8)]
    )


def test_witnesses_suite_validates_each_witness_vector_once(monkeypatch):
    calls = []
    check = lattice._check_vector

    def counting_check(vec):
        calls.append(vec)
        return check(vec)

    monkeypatch.setattr(lattice, "_check_vector", counting_check)
    assert suite_witnesses(d_max=500).passed is True
    # one vector per non-empty class, each validated once
    assert len(calls) == len(_non_empty_classes())


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_witness_moves_along_its_class_by_a_shift(k):
    """Along d = r + k*P the witness is (t, -c, d_hat + k*P/t^2), and it verifies.

    This is the identity that lets the witnesses suite check one d per class.
    """
    for n, t, r, period in _non_empty_classes():
        d, w = r + k * period, build_witness(n, r, t)
        shifted = build_witness(n, d, t)
        assert shifted == replace(w, d_hat=w.d_hat + k * period // (t * t)), (n, d, t)
        assert verify_witness(shifted, n, d, t), (n, d, t)


def _witnesses_per_triple(d_max):
    """The witnesses suite as one build and verify per triple: the reference for the class walk."""
    failures, checked = [], 0
    for n, d, t in moduli.triples((2, 3, 4), d_max):
        if t >= 2 and census.component_count(n, d, t).count > 0:
            checked += 1
            if not census.verify_witness(census.build_witness(n, d, t), n, d, t):
                failures.append((n, d, t))
    lines = [f"checked {checked} non-empty triples with t >= 2, d <= {d_max}"]
    lines += (f"  WITNESS FAILURE at (n,d,t)={triple}" for triple in failures)
    return census.SuiteResult("witnesses", not failures, tuple(lines))


def _off_square_on_one_class(build):
    """``build`` with d_hat one too large on the class (n, t, d mod P) = (3, 8, 28), so its square is off."""
    def off_square(n, d, t):
        w = build(n, d, t)
        if (n, t, d % (2 * n + 2) ** 2) == (3, 8, 28):
            return replace(w, d_hat=w.d_hat + 1)
        return w
    return off_square


@pytest.mark.parametrize("mutant", [False, True])
def test_witnesses_class_walk_agrees_with_a_witness_per_triple(monkeypatch, mutant):
    if mutant:
        monkeypatch.setattr(census, "build_witness", _off_square_on_one_class(census.build_witness))
    # d_max lies below, at and past P = 36, 64, 100 of n = 2, 3, 4
    for d_max in [*range(1, 301), 5000]:
        assert suite_witnesses(d_max) == _witnesses_per_triple(d_max), d_max


@pytest.mark.parametrize("d_max", [27, 28, 91, 92, 1000])
def test_witnesses_suite_fails_every_d_of_a_class_off_its_square(monkeypatch, d_max):
    monkeypatch.setattr(census, "build_witness", _off_square_on_one_class(census.build_witness))
    result = suite_witnesses(d_max)
    failing = range(28, d_max + 1, 64)
    assert result.passed is (not failing)
    assert result.lines[0] == _witnesses_per_triple(d_max).lines[0]
    assert result.lines[1:] == tuple(f"  WITNESS FAILURE at (n,d,t)=(3, {d}, 8)" for d in failing)


def test_exceptional_suite_reports_an_excluded_triple_that_is_certified_silently(monkeypatch):
    # (2, 5, 2) is certified, and decide does not flag it: neither Unknown nor discrepant
    excluded = census.exceptional_set() | {(2, 5, 2)}
    monkeypatch.setattr(census, "exceptional_set", lambda: excluded)
    result = suite_exceptional(d_max=10)
    assert result.passed is False
    assert "  VIOLATION (2, 5, 2): excluded but neither Unknown nor discrepant" in result.lines


def _exceptional_per_triple(rows, d_max):
    """The exceptional suite over every row with d <= d_max: the reference for the prefix walk."""
    rows = [r for r in rows if r.d <= d_max]
    expected = {triple for triple in census.exceptional_set() if triple[1] <= d_max}
    unknown = {(r.n, r.d, r.t) for r in rows if r.verdict == "Unknown"}
    discrepant = {(r.n, r.d, r.t) for r in rows if r.discrepancy}
    lines = [
        f"census n in {{2,3,4}}, d <= {d_max}",
        f"unknown triples: {sorted(unknown)}",
        f"expected exclusions in range: {sorted(expected)}",
    ]
    lines += (f"  DISCREPANCY {triple}: excluded but certified (reported, permitted)"
              for triple in sorted(discrepant))
    extra = sorted(unknown - expected)
    missing = sorted(expected - unknown - discrepant)
    lines += (f"  VIOLATION {triple}: Unknown but not in the excluded set" for triple in extra)
    lines += (f"  VIOLATION {triple}: excluded but neither Unknown nor discrepant"
              for triple in missing)
    return census.SuiteResult("exceptional", not extra and not missing, tuple(lines))


@pytest.mark.parametrize("mutant", [False, True])
def test_exceptional_suite_agrees_with_every_row(monkeypatch, mutant):
    if mutant:
        excluded = census.exceptional_set() | {(2, 5, 2)}
        monkeypatch.setattr(census, "exceptional_set", lambda: excluded)
    rows = [build_row(*triple) for triple in moduli.triples((2, 3, 4), 1000)]
    for d_max in [*range(1, 301), 1000]:
        assert suite_exceptional(d_max) == _exceptional_per_triple(rows, d_max), d_max


def test_exceptional_suite_reads_no_row_past_the_cap(monkeypatch):
    built = _counting_build_row(monkeypatch)
    suite_exceptional(10**9)
    assert built == [
        triple for n in (2, 3, 4) for triple in moduli.triples((n,), census._prefix(n))
    ]
    # d <= 37, 156 and 155 for n = 2, 3, 4, four t each
    assert len(built) == 4 * (37 + 156 + 155) == 1392


@pytest.mark.parametrize("d_max", [1, 36, 37, 38, 155, 156, 157, 5000])
def test_exceptional_suite_builds_the_triples_of_the_census(monkeypatch, d_max):
    built = _counting_build_row(monkeypatch)
    suite_exceptional(d_max)
    from_suite = built[:]
    built.clear()
    _table_text([2, 3, 4], d_max, "csv")
    assert from_suite == built


@pytest.mark.parametrize("d_max", [156, 500, 10**9])
def test_exceptional_suite_fails_when_the_first_certified_d_of_a_class_is_refused(
    monkeypatch, d_max
):
    # (3, 156, 8) is the first certified d of the class of (3, 92, 8) mod 64: its witness
    # is 8L - 3delta with d_hat = 3, and 156 = census._prefix(3), the last built d of n = 3
    refused = lattice.SplitClass(3, 8, -3, 3)
    assert build_witness(3, 156, 8) == refused
    before = suite_exceptional(155)
    certify = bpf.certify_decomposition
    monkeypatch.setattr(bpf, "certify_decomposition", lambda w: None if w == refused else certify(w))
    result = suite_exceptional(d_max)
    assert result.passed is False
    assert "  VIOLATION (3, 156, 8): Unknown but not in the excluded set" in result.lines
    assert suite_exceptional(155) == before


def test_exceptional_suite_checks_the_range_before_any_row(monkeypatch):
    monkeypatch.setattr(census, "build_row", lambda *triple: pytest.fail("built"))
    with pytest.raises(ValueError, match="d_max must be >= 1"):
        suite_exceptional(0)
