"""Brute-force oracle: enumeration boxes and closed-form crosschecks."""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from kummer_moduli import oracle
from kummer_moduli.lattice import KummerLattice, SplitClass, divisibility_vector
from kummer_moduli.moduli import triples
from kummer_moduli.oracle import (
    SearchBounds,
    default_bounds,
    divisibility_crosscheck,
    enumerate_primitive_classes,
    nonemptiness_crosscheck,
)

BOX = SearchBounds(20, 20)


def test_enumerate_examples():
    assert enumerate_primitive_classes(2, 3, 3, BOX) == []
    assert SplitClass(2, 3, -1, 1) in enumerate_primitive_classes(2, 6, 3, BOX)
    assert SplitClass(2, 2, -1, 2) in enumerate_primitive_classes(2, 5, 2, BOX)


def test_enumerate_results_are_consistent():
    from kummer_moduli.lattice import divisibility_split, square_split

    for c in enumerate_primitive_classes(3, 28, 8, BOX):
        assert square_split(c) == 56
        assert divisibility_split(c) == 8
        assert math.gcd(c.a, c.b) == 1


def test_enumerate_pinned_under_default_bounds():
    text = "".join(
        f"{n},{d},{t},{enumerate_primitive_classes(n, d, t, default_bounds(n, d, t))!r}\n"
        for n, d, t in triples((2, 3, 4), 60)
    )
    assert hashlib.md5(text.encode()).hexdigest() == "86b901ce34f3981574a160c83f19b096"


def test_enumerate_finds_no_class_in_the_defect_class():
    # ROADMAP item 1: component_count(5, 4, 2) reports one component, but
    # a divisibility-2 class at n = 5 has d = 2 mod 4; (5, 6, 2) shows the box is not starved
    box = SearchBounds(60, 60)
    assert enumerate_primitive_classes(5, 4, 2, box) == []
    assert len(enumerate_primitive_classes(5, 6, 2, box)) == 68


def test_enumerate_domain():
    with pytest.raises(ValueError):
        enumerate_primitive_classes(1, 4, 1, BOX)
    with pytest.raises(ValueError):
        enumerate_primitive_classes(2, 0, 1, BOX)


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(0, 5)
    with pytest.raises(ValueError):
        SearchBounds(5, -1)


def test_default_bounds_cover_delta_coefficient():
    for n in (2, 3, 4):
        for d in (1, 17, 100):
            bounds = default_bounds(n, d, 2)
            # witness construction never needs |b| beyond sqrt(d/(n+1)) + margin
            assert bounds.max_b * bounds.max_b * (n + 1) >= d


def test_divisibility_crosscheck_small():
    for n in (2, 3, 4):
        assert divisibility_crosscheck(n, 2) == []


def _wrong_gram(n):
    # not the Kummer form: delta squares to -2n and pairs to 1 with e1
    rows = [list(row) for row in KummerLattice(n).gram]
    rows[0][6] = rows[6][0] = 1
    rows[6][6] = -2 * n
    return tuple(tuple(row) for row in rows)


def _reference_mismatches(gram, n, b):
    found = []
    for v in itertools.product(range(-b, b + 1), repeat=7):
        if not any(v):
            continue
        pairings = [sum(gram[j][i] * v[j] for j in range(7)) for i in range(7)]
        formula = math.gcd(math.gcd(*v[:6]), 2 * (n + 1) * v[6])
        if math.gcd(*pairings) != formula:
            found.append((v, math.gcd(*pairings), formula))
    return found


def test_divisibility_crosscheck_catches_a_wrong_gram_matrix(monkeypatch):
    monkeypatch.setattr(oracle, "gram_matrix", _wrong_gram)
    for n in (2, 3, 4):
        for b in (1, 2):
            mismatches = divisibility_crosscheck(n, b)
            assert mismatches
            assert mismatches == _reference_mismatches(_wrong_gram(n), n, b)


def test_nonemptiness_crosscheck_small():
    assert nonemptiness_crosscheck(2, 50) == []


def test_nonemptiness_crosscheck_fails_on_a_starved_box(monkeypatch):
    # a deliberately starved box misses genuinely non-empty triples
    monkeypatch.setattr(oracle, "default_bounds", lambda n, d, t: SearchBounds(1, 1))
    assert (2, 5, 2) in nonemptiness_crosscheck(2, 30)


coords = st.tuples(*[st.integers(-40, 40)] * 7).filter(lambda v: any(v))


@given(coords, st.sampled_from([2, 3, 4]))
def test_closed_form_matches_gram_ideal(v, n):
    """The gcd formula used by the numpy crosscheck, pinned to the slow path."""
    lat = KummerLattice(n)
    content = math.gcd(*(abs(x) for x in v[:6])) if any(v[:6]) else 0
    formula = math.gcd(content, 2 * (n + 1) * abs(v[6]))
    assert divisibility_vector(v, lat) == formula
