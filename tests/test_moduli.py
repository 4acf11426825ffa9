"""Derived invariants, component-count case analysis, connectedness."""

import hashlib
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from kummer_moduli import moduli
from kummer_moduli.census import suite_connectedness
from kummer_moduli.moduli import (
    EMPTY_TAGS,
    CountResult,
    component_count,
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
    result = suite_connectedness(200)
    assert result.passed
    assert result.lines == tuple(f"n={n} d<=200: 0 violation(s)" for n in (2, 3, 4))


def test_connectedness_report_domain():
    with pytest.raises(ValueError):
        suite_connectedness(0)


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


def _period(n):
    return (2 * n + 2) ** 2


def _divisors(n):
    return [t for t in range(1, 2 * n + 3) if (2 * n + 2) % t == 0]


def test_count_table_matches_the_chain_on_unreduced_d1(cold_table):
    for n, d, t in triples((2, 3, 4), 400):
        assert component_count(n, d, t) == _chain_on_unreduced_d1(n, d, t)
    assert 0 < len(cold_table) <= 800


@given(st.sampled_from([2, 3, 4]), st.integers(1, 10**9), st.data())
def test_count_table_exact_for_large_d(n, d, data):
    t = data.draw(st.sampled_from(_divisors(n)))
    assert component_count(n, d, t) == _chain_on_unreduced_d1(n, d, t)


def test_count_table_runs_the_chain_once_per_key(cold_table, monkeypatch):
    # every miss derives once and runs the chain at most once; a key
    # (n, t, d mod P) misses at most once, whatever d_max is
    misses, chains = [], []
    derive, chain = moduli._derive, moduli._count_chain

    def counting_derive(n, d, t):
        misses.append((n, t, d % _period(n)))
        return derive(n, d, t)

    def counting_chain(*args):
        chains.append(misses[-1])
        return chain(*args)

    monkeypatch.setattr(moduli, "_derive", counting_derive)
    monkeypatch.setattr(moduli, "_count_chain", counting_chain)
    for d_max in (2000, 5000):
        for n, d, t in triples((2, 3, 4), d_max):
            component_count(n, d, t)
        assert len(misses) == len(set(misses)) == len(cold_table) <= 800
        assert set(misses) == set(cold_table)
        assert len(chains) == len(set(chains)) <= len(misses)


def test_every_table_key_is_exact(cold_table):
    for n in (2, 3, 4):
        p = _period(n)
        for t in _divisors(n):
            for r in range(1, p + 1):
                for k in (10**6, 1, 0):
                    d = r + k * p
                    assert component_count(n, d, t) == _chain_on_unreduced_d1(n, d, t), (n, d, t)
    assert len(cold_table) == 800


def test_count_table_stays_bounded(cold_table):
    for n, d, t in triples((2, 3, 4), 2000):
        component_count(n, d, t)
    for n in (2, 3, 4):
        for t in (7, 9, 11, 2 * n + 3, 2 * (2 * n + 2)):
            for d in range(1, 3 * _period(n)):
                assert component_count(n, d, t) == CountResult(0, "precondition-empty")
    # d <= 2000 reaches every residue mod P, and no other t is stored
    assert len(cold_table) == 800
    assert all((2 * n + 2) % t == 0 and 0 <= r < _period(n) for n, t, r in cold_table)


def _warm_table():
    for n, d, t in triples((2, 3, 4), 100):
        component_count(n, d, t)


@given(st.integers(max_value=0), st.integers(1, 10**6), st.integers(max_value=1))
def test_warm_table_still_rejects_invalid_params(bad_d, good_d, bad_n):
    # d = 0 and d = -P share their key with d = P, which the table holds
    _warm_table()
    for n in (2, 3, 4):
        p = _period(n)
        for t in _divisors(n):
            for d in (bad_d, 0, -p, bad_d * p):
                with pytest.raises(ValueError, match="d >= 1"):
                    component_count(n, d, t)
            for bad_t in (0, -t, -t * p):
                with pytest.raises(ValueError, match="t >= 1"):
                    component_count(n, good_d, bad_t)
            for m in (1, bad_n):
                with pytest.raises(ValueError, match="n >= 2"):
                    component_count(m, good_d, t)


def test_count_table_ignores_larger_n(cold_table):
    for n, d, t in triples((2, 3, 4), 100):
        component_count(n, d, t)
    size = len(cold_table)
    for n in range(5, 61):
        for d in range(1, 41):
            for t in range(1, 2 * n + 3):
                component_count(n, d, t)
    assert len(cold_table) == size


def _reference_count(n, d, t):
    # Eichler's criterion: #{u in (Z/t)^x : (2n+2)u^2 + 2d = 0 mod 2t^2}, up to u ~ -u
    m = 2 * n + 2
    count = sum(
        1 for u in range(t) if gcd(u, t) == 1 and (m * u * u + 2 * d) % (2 * t * t) == 0
    )
    return count // 2 if t > 2 else count


def _in_defect_class(n, d, t):
    # ROADMAP item 1: the case chain reports one component where the space is empty
    return n % 4 == 1 and t == 2 and d % 4 == 0


def test_count_pinned_outside_the_defect_class():
    """Every (count, tag) for n <= 60, d <= 400, t | 2n+2, pinned by md5.

    The defect class is left out, so ROADMAP items 1 and 2 must keep this
    digest; it pins the tags past n = 24, where the count-table digest
    stops.
    """
    digest, lines = hashlib.md5(), 0
    for n in range(2, 61):
        divisors = [t for t in range(1, 2 * n + 3) if (2 * n + 2) % t == 0]
        for d in range(1, 401):
            for t in divisors:
                if _in_defect_class(n, d, t):
                    continue
                result = component_count(n, d, t)
                digest.update(f"{n},{d},{t},{result.count},{result.case_tag}\n".encode())
                lines += 1
    assert lines == 162_600
    assert digest.hexdigest() == "cce93ab394749b268dc070f18ea52d5b"


@settings(max_examples=500)
@given(st.integers(2, 200), st.data())
def test_count_matches_the_reference_count(n, data):
    t = data.draw(st.sampled_from([k for k in range(1, 2 * n + 3) if (2 * n + 2) % k == 0]))
    step = t // gcd(t, 2)  # the d with t | 2d are the multiples of step
    d = step * data.draw(st.integers(1, 10**6 // step))
    assume(not _in_defect_class(n, d, t))
    assert component_count(n, d, t).count == _reference_count(n, d, t)


def test_count_matches_the_reference_count_past_the_digest():
    # the count-table digest stops at n = 24, and random draws seldom give
    # w and t1 a common prime; t <= 2 never reaches _halved_power_count
    for n in range(25, 101):
        for t in range(3, 2 * n + 3):
            for d in range(1, 401):
                if (2 * n + 2) % t == 0 and (2 * d) % t == 0:
                    assert component_count(n, d, t).count == _reference_count(n, d, t)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 1: n = 4j+1, t = 2, 4 | d is empty"
)
def test_defect_class_is_empty():
    # a primitive class of divisibility 2 at n = 4j+1 has d = 2 mod 4
    for n in (5, 9, 13, 17):
        for d in range(4, 41, 4):
            assert component_count(n, d, 2).count == 0


def test_witness_rule_disagrees_with_the_count_on_the_defect_class_only():
    """ROADMAP item 1 from a second side: the witness rule finds the defect.

    A class t*L - c*delta of square 2d exists for some c prime to t iff
    t^2 | d + (n+1)*c^2, so iff d mod t^2 is some -(n+1)*c^2.  Over one
    period of d, for n = 5..20 and t >= 2, this disagrees with a
    positive count on exactly the defect class (656 of the 5,871
    positive classes), where the count is wrong.  Item 1's fix empties
    the set of disagreements.
    """
    disagreements, positive = set(), 0
    for n in range(5, 21):
        m = 2 * n + 2
        for t in range(2, m + 1):
            if m % t:
                continue
            fits = {-(n + 1) * c * c % (t * t) for c in range(1, t * t + 1) if gcd(c, t) == 1}
            for d in range(1, m * m + 1):
                nonempty = component_count(n, d, t).count > 0
                positive += nonempty
                if nonempty != (d % (t * t) in fits):
                    disagreements.add((n, d, t))
    assert disagreements == {
        (n, d, 2) for n in range(5, 21, 4) for d in range(4, (2 * n + 2) ** 2 + 1, 4)
    }
    assert (len(disagreements), positive) == (656, 5871)


def _euler_phi(x):
    return sum(1 for k in range(1, x + 1) if gcd(k, x) == 1)


def _split(w, t1):
    # (w_plus, w_minus): the part of w on the primes of t1, and the rest
    w_plus = 1
    while gcd(w // w_plus, t1) > 1:
        w_plus *= gcd(w // w_plus, t1)
    return w_plus, w // w_plus


def _prime_count(x):
    return sum(1 for p in range(2, x + 1) if x % p == 0 and all(p % q for q in range(2, p)))


@given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300))
def test_halved_power_count_matches_the_definition(w, t1, l):
    w_plus, w_minus = _split(w, t1)
    doubled = w_plus * _euler_phi(w_minus) * 2 ** _prime_count(l)
    if doubled % 2:
        with pytest.raises(ArithmeticError):
            moduli._halved_power_count(w, t1, l)
    else:
        assert moduli._halved_power_count(w, t1, l) == doubled // 2


def test_neg_ratio_examples():
    assert moduli._neg_ratio(1, 3, 4) == 1  # -1 * 3^-1 = -3 = 1 mod 4
    assert moduli._neg_ratio(5, 7, 1) == 0
    with pytest.raises(ValueError):
        moduli._neg_ratio(1, 2, 4)


@given(st.integers(0, 10**6), st.integers(1, 400), st.integers(1, 400))
def test_neg_ratio_solves_the_congruence(d1, denom, modulus):
    if gcd(denom, modulus) != 1:
        with pytest.raises(ValueError):
            moduli._neg_ratio(d1, denom, modulus)
    else:
        r = moduli._neg_ratio(d1, denom, modulus)
        assert 0 <= r < modulus
        assert (denom * r + d1) % modulus == 0
