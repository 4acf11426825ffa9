"""Brute-force oracle: enumeration boxes and closed-form crosschecks."""

import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kummer_moduli import oracle
from kummer_moduli.lattice import SplitClass, divisibility_vector, gram_matrix
from kummer_moduli.moduli import component_count, triples
from kummer_moduli.oracle import (
    SearchBounds,
    default_bounds,
    divisibility_crosscheck,
    enumerate_primitive_classes,
    nonemptiness_crosscheck,
)
from kummer_moduli.witness import build_witness

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


def _reference_classes(n, d, t, bounds):
    # the full-box scan: every primitive (a, b), divisibility tested per class
    from kummer_moduli.lattice import divisibility_split

    found = []
    for a in range(1, bounds.max_a + 1):
        for b in range(-bounds.max_b, bounds.max_b + 1):
            if math.gcd(a, b) != 1:
                continue
            numerator = d + (n + 1) * b * b
            if numerator % (a * a) != 0:
                continue
            c = SplitClass(n, a, b, numerator // (a * a))
            if divisibility_split(c) == t:
                found.append(c)
    return found


small_triples = st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, 500), st.integers(1, 2 * n + 4))
)
boxes = st.builds(SearchBounds, st.integers(1, 30), st.integers(0, 30))


@given(small_triples, boxes)
def test_enumerate_equals_the_full_box_scan(triple, bounds):
    """t runs past 2n+2 (so t need not divide it) and past max_a; max_b may be 0."""
    n, d, t = triple
    assert enumerate_primitive_classes(n, d, t, bounds) == _reference_classes(n, d, t, bounds)


@given(small_triples, boxes)
def test_enumerate_limit_is_a_prefix_of_the_full_list(triple, bounds):
    n, d, t = triple
    full = enumerate_primitive_classes(n, d, t, bounds)
    for k in range(1, 5):
        assert enumerate_primitive_classes(n, d, t, bounds, limit=k) == full[:k]


@pytest.mark.parametrize("limit", [0, -1])
def test_enumerate_rejects_a_limit_below_one(limit):
    with pytest.raises(ValueError):
        enumerate_primitive_classes(2, 6, 3, BOX, limit=limit)


def test_enumerate_pinned_under_default_bounds():
    text = "".join(
        f"{n},{d},{t},{enumerate_primitive_classes(n, d, t, default_bounds(n, d, t))!r}\n"
        for n, d, t in triples((2, 3, 4), 60)
    )
    assert hashlib.md5(text.encode()).hexdigest() == "86b901ce34f3981574a160c83f19b096"


def test_catalog_witness_is_a_class_the_search_finds():
    checked = 0
    for n, d, t in triples((2, 3, 4), 300):
        if t < 2 or component_count(n, d, t).count == 0:
            continue
        w = build_witness(n, d, t)
        assert w in enumerate_primitive_classes(n, d, t, default_bounds(n, d, t)), (n, d, t)
        checked += 1
    assert checked == 324


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


def test_default_bounds_delta_margin_is_exact():
    # max_b is 3 more than the least m >= 0 with m^2 * (n+1) >= d, not just a cover
    for n in range(2, 11):
        m = 0
        for d in range(1, 5001):
            while m * m * (n + 1) < d:
                m += 1
            assert default_bounds(n, d, 1).max_b - 3 == m, (n, d)


def test_divisibility_crosscheck_small():
    for n in (2, 3, 4):
        assert divisibility_crosscheck(n, 2) == []
    with pytest.raises(ValueError):
        divisibility_crosscheck(2, 0)


def _wrong_gram(n):
    # not the Kummer form: delta squares to -2n and pairs to 1 with e1
    rows = [list(row) for row in gram_matrix(n)]
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


def _moving_diagonal_gram(n):
    # not the Kummer form: e0 squares to 2 and pairs to 4 with e1, so
    # coordinate 0 enters pairing rows 0 and 1, its own among them
    rows = [list(row) for row in gram_matrix(n)]
    rows[0][0] = 2
    rows[0][1] = rows[1][0] = 4
    return tuple(tuple(row) for row in rows)


def test_divisibility_crosscheck_catches_a_moving_diagonal(monkeypatch):
    monkeypatch.setattr(oracle, "gram_matrix", _moving_diagonal_gram)
    for n in (2, 3, 4):
        for b in (1, 2):
            mismatches = divisibility_crosscheck(n, b)
            assert mismatches == _reference_mismatches(_moving_diagonal_gram(n), n, b)
            firsts = {v[0] for v, _, _ in mismatches}
            assert 0 in firsts and len(firsts) > 1
            assert all(any(v) for v, _, _ in mismatches)


def test_divisibility_crosscheck_peak_memory_is_below_two_slabs(monkeypatch):
    # the proof holds for the true Gram matrix, so refuse it and the call scans;
    # numpy reports its buffers to tracemalloc; a slab is 7 int64 rows of 7^6
    monkeypatch.setattr(oracle, "_formula_is_proved", lambda gram, n: False)
    tracemalloc.start()
    try:
        mismatches = divisibility_crosscheck(4, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mismatches == []
    assert peak < 2 * 7 * 8 * 7**6


def test_divisibility_crosscheck_proof_path_builds_no_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the proof path built an array")

    monkeypatch.setattr(oracle.np, "indices", refuse)
    for n in (2, 3, 4):
        assert divisibility_crosscheck(n, 3) == []


def test_formula_is_proved_for_the_true_gram_matrix():
    assert all(oracle._formula_is_proved(gram_matrix(n), n) for n in range(2, 61))


def test_formula_is_not_proved_for_the_mutants():
    # so their crosscheck tests still run the scan
    for n in (2, 3, 4):
        assert not oracle._formula_is_proved(_wrong_gram(n), n)
        assert not oracle._formula_is_proved(_moving_diagonal_gram(n), n)


def _column_ops(gram, ops):
    # gram times a product of elementary matrices: column j += k * column i
    rows = [list(row) for row in gram]
    for i, j, k in ops:
        for row in rows:
            row[j] += k * row[i]
    return tuple(tuple(row) for row in rows)


_elementary = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(-2, 2)).filter(
    lambda op: op[0] != op[1]
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.lists(_elementary, max_size=8))
def test_formula_is_proved_for_a_unimodular_change_of_the_gram_columns(n, ops):
    """gram*E spans the same columns as gram (E unimodular) and need not be symmetric."""
    mixed = _column_ops(gram_matrix(n), ops)
    assert oracle._formula_is_proved(mixed, n)
    assert _reference_mismatches(mixed, n, 1) == []


def test_formula_is_proved_only_when_the_last_row_carries_2n_plus_2():
    # |det| = 2n+2 alone is not enough: scaling another row of the identity
    # gives the same determinant and a different ideal
    for n in (2, 3, 4):
        for scaled in range(7):
            rows = [[(2 * n + 2 if i == scaled else 1) * (i == j) for j in range(7)] for i in range(7)]
            proved = oracle._formula_is_proved(rows, n)
            assert proved == (scaled == 6)
            assert (_reference_mismatches(rows, n, 1) == []) == proved


def _small_matrix_that_passes(n, seed):
    # draw small matrices, one row scaled by 2n+2, until one passes; about 1 in 700 does
    rng = random.Random(seed)
    while True:
        rows = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(7)] for _ in range(7)]
        scaled = rng.randrange(7)
        rows[scaled] = [(2 * n + 2) * x for x in rows[scaled]]
        if oracle._formula_is_proved(rows, n):
            return tuple(tuple(row) for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_a_random_matrix_that_passes_the_proof_has_no_mismatch(n, seed):
    assert _reference_mismatches(_small_matrix_that_passes(n, seed), n, 1) == []


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


@settings(deadline=None)
@given(
    st.sampled_from([4, 7]).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(-3, 3), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
)
def test_det_matches_the_cofactor_expansion(m):
    assert oracle._det(m) == _cofactor_det(m)


def test_nonemptiness_crosscheck_small():
    assert nonemptiness_crosscheck(2, 50) == []


def _nonemptiness_per_triple(n, d_max):
    """The crosscheck as one search per non-empty triple: the reference for the class walk."""
    violations = []
    for _, d, t in triples((n,), d_max):
        if component_count(n, d, t).count == 0:
            continue
        if not enumerate_primitive_classes(n, d, t, oracle.default_bounds(n, d, t), limit=1):
            violations.append((n, d, t))
    return violations


def _nonempty_classes(n, d_max):
    # one (n, r, t) per class of d mod P with a non-empty count, in walk order
    period = (2 * n + 2) ** 2
    return [
        (n, r, t) for _, r, t in triples((n,), min(period, d_max))
        if component_count(n, r, t).count > 0
    ]


@pytest.mark.parametrize("starved", [False, True])
def test_nonemptiness_crosscheck_equals_the_per_triple_walk(monkeypatch, starved):
    # the starved box misses every non-empty triple with t >= 2, so the lists are not empty
    if starved:
        monkeypatch.setattr(oracle, "default_bounds", lambda n, d, t: SearchBounds(1, 1))
    for n in (2, 3, 4):
        reference = _nonemptiness_per_triple(n, 5000)
        assert bool(reference) == starved
        for d_max in [*range(1, 401), 1000, 5000]:
            expected = [v for v in reference if v[1] <= d_max]
            assert nonemptiness_crosscheck(n, d_max) == expected, (n, d_max)


@pytest.mark.parametrize("k", [1, 2, 3, 50])
def test_nonemptiness_answers_do_not_move_along_a_class(k):
    """The count and the search answer at r + k*P equal those at r: the lemma of the class walk."""
    for n in (2, 3, 4):
        period = (2 * n + 2) ** 2
        for _, r, t in triples((n,), period):
            d = r + k * period
            assert component_count(n, d, t).count == component_count(n, r, t).count, (n, r, t)
            found = enumerate_primitive_classes(n, d, t, default_bounds(n, d, t), limit=1)
            at_r = enumerate_primitive_classes(n, r, t, default_bounds(n, r, t), limit=1)
            assert bool(found) == bool(at_r), (n, r, t)


def test_nonemptiness_crosscheck_calls_the_search_once_per_nonempty_triple(monkeypatch):
    # the triples searched are the walk's (n, r, t), one per non-empty class of
    # d mod P.  perfbench/layers.py takes oracle.enumerate_hit_ratio as hits
    # over these calls and fails when there are none, so the crosscheck must
    # call the public function once per such triple, not a private early-exit scan
    calls = []

    def counted(n, d, t, bounds, **kwargs):
        found = enumerate_primitive_classes(n, d, t, bounds, **kwargs)
        calls.append(((n, d, t), kwargs, found))
        return found

    monkeypatch.setattr(oracle, "enumerate_primitive_classes", counted)
    for n in (2, 3, 4):
        calls.clear()
        assert nonemptiness_crosscheck(n, 100) == []
        assert [triple for triple, _, _ in calls] == _nonempty_classes(n, 100)
        assert all(kwargs == {"limit": 1} for _, kwargs, _ in calls)
        assert all(len(found) == 1 for _, _, found in calls)


def test_nonemptiness_crosscheck_builds_one_class_per_nonempty_triple(monkeypatch):
    # one SplitClass per non-empty class of d mod P; counts before wall clock:
    # a return to full-list scans builds ~21 classes a search
    built = []

    def counted(*args):
        built.append(args)
        return SplitClass(*args)

    monkeypatch.setattr(oracle, "SplitClass", counted)
    for n in (2, 3, 4):
        built.clear()
        assert nonemptiness_crosscheck(n, 100) == []
        assert len(built) == len(_nonempty_classes(n, 100))


def test_nonemptiness_crosscheck_fails_on_a_starved_box(monkeypatch):
    # a deliberately starved box misses genuinely non-empty triples
    monkeypatch.setattr(oracle, "default_bounds", lambda n, d, t: SearchBounds(1, 1))
    assert (2, 5, 2) in nonemptiness_crosscheck(2, 30)


coords = st.tuples(*[st.integers(-40, 40)] * 7).filter(lambda v: any(v))


@given(coords, st.sampled_from([2, 3, 4]))
def test_closed_form_matches_gram_ideal(v, n):
    """The gcd formula the divisibility crosscheck proves, pinned to the slow path."""
    content = math.gcd(*(abs(x) for x in v[:6])) if any(v[:6]) else 0
    formula = math.gcd(content, 2 * (n + 1) * abs(v[6]))
    assert divisibility_vector(v, n) == formula
