"""Derived invariants, component-count case analysis, connectedness."""

import hashlib
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kummer_moduli import moduli
from kummer_moduli.moduli import (
    EMPTY_TAGS,
    CountResult,
    component_count,
    connectedness_report,
    invariants,
    is_nonempty,
    triples,
)


def test_invariants_example():
    inv = invariants(2, 5, 2)
    assert (inv.d1, inv.n1, inv.g, inv.w, inv.g1, inv.t1) == (5, 3, 1, 1, 1, 2)


def test_invariants_rejects_non_divisor():
    # t must divide gcd(2d, 2n+2) for the invariants to make sense
    with pytest.raises(ValueError):
        invariants(2, 1, 3)


def test_count_examples():
    assert component_count(2, 3, 3) == CountResult(0, "4-empty")
    assert component_count(2, 1, 3) == CountResult(0, "precondition-empty")
    assert component_count(2, 5, 2) == CountResult(1, "3d")
    assert component_count(2, 6, 3) == CountResult(1, "1a")
    assert component_count(3, 12, 4) == CountResult(1, "2")


def test_count_named_tuple_fields():
    result = component_count(2, 5, 2)
    assert result.count == 1
    assert result.case_tag == "3d"


def test_empty_tags_are_zero_count():
    for n in (2, 3, 4):
        for d in range(1, 60):
            for t in range(1, 2 * n + 3):
                result = component_count(n, d, t)
                assert (result.count == 0) == (result.case_tag in EMPTY_TAGS)


def test_divisibility_one_always_nonempty():
    for n in (2, 3, 4, 5, 9):
        for d in (1, 2, 7, 100):
            assert is_nonempty(n, d, 1)


def test_nonempty_examples():
    assert not is_nonempty(2, 1, 3)
    assert is_nonempty(2, 6, 3)


def test_cor_proof_values_t3():
    # n=2, t=3: whenever non-empty the derived invariants are forced
    for d in range(1, 300):
        if component_count(2, d, 3).count == 0:
            continue
        inv = invariants(2, d, 3)
        assert (inv.g, inv.w, inv.g1, inv.t1) == (2, 1, 2, 3)
        assert component_count(2, d, 3).count == 1


def test_cor_proof_values_t6():
    for d in range(1, 300):
        if component_count(2, d, 6).count == 0:
            continue
        inv = invariants(2, d, 6)
        assert (inv.g, inv.w, inv.g1, inv.t1) == (1, 1, 1, 6)
        assert component_count(2, d, 6).count == 1


def test_connectedness_reports_empty():
    assert connectedness_report(2, 200) == []
    assert connectedness_report(3, 200) == []
    assert connectedness_report(4, 200) == []


def test_connectedness_report_domain():
    with pytest.raises(ValueError):
        connectedness_report(5, 10)
    with pytest.raises(ValueError):
        connectedness_report(2, 0)


def test_triples_walk_divisors_in_order():
    assert list(triples([3, 2, 2], 2)) == [
        (n, d, t) for n, divisors in ((2, (1, 2, 3, 6)), (3, (1, 2, 4, 8)))
        for d in (1, 2) for t in divisors
    ]


@pytest.mark.parametrize("n_values, d_max", [([2], 0), ([3], -1), ([2, 5], 3), ([1], 3)])
def test_triples_rejects_domain_before_yielding(n_values, d_max):
    walk = triples(n_values, d_max)
    with pytest.raises(ValueError):
        next(walk)


def test_count_table_pinned():
    """Every (count, tag) for n <= 24, d <= 500, t <= 2n+2, pinned by md5."""
    lines = []
    for n in range(2, 25):
        for d in range(1, 501):
            for t in range(1, 2 * n + 3):
                result = component_count(n, d, t)
                lines.append(f"{n},{d},{t},{result.count},{result.case_tag}")
    digest = hashlib.md5(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "82827ac1fa6d62e75abca31b3a7198ef"


def test_invalid_params():
    with pytest.raises(ValueError):
        component_count(1, 4, 1)
    with pytest.raises(ValueError):
        component_count(2, 0, 1)
    with pytest.raises(ValueError):
        component_count(2, 4, 0)


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(1, 500),
    st.integers(1, 12),
)
def test_count_is_zero_or_one(n, d, t):
    assert component_count(n, d, t).count in (0, 1)


@given(st.sampled_from([2, 3, 4]), st.integers(1, 500), st.integers(1, 12))
def test_nonempty_iff_positive_count(n, d, t):
    assert is_nonempty(n, d, t) == (component_count(n, d, t).count > 0)


@given(st.sampled_from([2, 3, 4]), st.integers(1, 300))
def test_non_divisor_t_is_precondition_empty(n, d):
    for t in range(2, 2 * n + 3):
        if (2 * n + 2) % t == 0:
            continue
        assert component_count(n, d, t) == CountResult(0, "precondition-empty")


@given(st.integers(2, 10**4), st.integers(1, 10**6), st.data())
def test_case_c_never_matches(n, d, data):
    # w^2 * g1 * t1 = gcd(2d, 2n+2) is even, so w, g1, t1 are never all odd
    big = gcd(2 * d, 2 * n + 2)
    t = data.draw(st.sampled_from([k for k in range(1, big + 1) if big % k == 0]))
    inv = invariants(n, d, t)
    assert inv.w * inv.w * inv.g1 * inv.t1 == big
    assert not (inv.w % 2 == inv.g1 % 2 == inv.t1 % 2 == 1)
    assert component_count(n, d, t).case_tag not in ("1c", "3c")


@pytest.fixture
def cold_table():
    moduli._COUNT_TABLE.clear()
    return moduli._COUNT_TABLE


def _chain_on_unreduced_d1(n, d, t):
    derived = moduli._derive(n, d, t)
    if derived is None:
        return CountResult(0, "precondition-empty")
    d1, n1, _, w, g1, t1 = derived
    return moduli._count_chain(n1, w, g1, t1, d1, t > 2)


def test_count_table_matches_the_chain_on_unreduced_d1(cold_table):
    for n, d, t in triples((2, 3, 4), 400):
        assert component_count(n, d, t) == _chain_on_unreduced_d1(n, d, t)
    assert 0 < len(cold_table) <= 105


@given(st.sampled_from([2, 3, 4]), st.integers(1, 10**9), st.data())
def test_count_table_exact_for_large_d(n, d, data):
    t = data.draw(st.sampled_from([k for k in range(1, 2 * n + 3) if (2 * n + 2) % k == 0]))
    assert component_count(n, d, t) == _chain_on_unreduced_d1(n, d, t)


def test_count_table_runs_the_chain_once_per_key(cold_table, monkeypatch):
    calls = []
    chain = moduli._count_chain

    def counting_chain(*key):
        calls.append(key)
        return chain(*key)

    monkeypatch.setattr(moduli, "_count_chain", counting_chain)
    for n, d, t in triples((2, 3, 4), 2000):
        component_count(n, d, t)
    assert len(calls) == len(set(calls)) == len(cold_table) <= 105


def test_count_table_ignores_larger_n(cold_table):
    for n, d, t in triples((2, 3, 4), 100):
        component_count(n, d, t)
    size = len(cold_table)
    for n in range(5, 61):
        for d in range(1, 41):
            for t in range(1, 2 * n + 3):
                component_count(n, d, t)
    assert len(cold_table) == size
