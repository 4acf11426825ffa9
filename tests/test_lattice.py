"""Gram matrix, pairing/square/divisibility, and the split-class bridge."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kummer_moduli import lattice
from kummer_moduli.lattice import (
    RANK,
    SplitClass,
    bb_square,
    divisibility_split,
    divisibility_vector,
    embed,
    gram_matrix,
    pairing,
    square_split,
)

E1 = (1, 0, 0, 0, 0, 0, 0)
F1 = (0, 1, 0, 0, 0, 0, 0)
DELTA = (0, 0, 0, 0, 0, 0, 1)


def _det(matrix):
    """Integer determinant by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def test_gram_shape_and_corner():
    g2 = gram_matrix(2)
    assert len(g2) == RANK and all(len(row) == RANK for row in g2)
    assert g2[6][6] == -6
    assert gram_matrix(3)[6][6] == -8
    assert g2[0][1] == g2[1][0] == 1
    assert g2[0][0] == 0


def test_gram_determinant():
    # det(U)^3 * (-(2n+2)) = (-1)^3 * -(2n+2) = 2n+2
    assert _det(gram_matrix(2)) == 6
    assert _det(gram_matrix(3)) == 8
    assert _det(gram_matrix(4)) == 10


def test_lattice_parameter_below_two_rejected():
    for call in (
        lambda: gram_matrix(1),
        lambda: pairing(E1, F1, 1),
        lambda: bb_square(E1, 1),
        lambda: divisibility_vector(E1, 1),
        lambda: SplitClass(1, 1, 0, 1),
    ):
        with pytest.raises(ValueError, match="n must be >= 2"):
            call()


def test_pairing_examples():
    assert pairing(E1, F1, 2) == 1
    assert pairing(DELTA, E1, 2) == 0
    assert pairing(DELTA, DELTA, 2) == -6
    assert pairing(DELTA, DELTA, 3) == -8


def test_square_examples():
    assert bb_square((1, 2, 0, 0, 0, 0, 0), 2) == 4
    assert bb_square(DELTA, 2) == -6


def test_divisibility_vector_examples():
    assert divisibility_vector(DELTA, 2) == 6
    assert divisibility_vector(E1, 2) == 1
    assert divisibility_vector((2, 2, 0, 0, 0, 0, 0), 2) == 2
    with pytest.raises(ValueError):
        divisibility_vector((0,) * 7, 2)


def test_vector_length_checked():
    with pytest.raises(ValueError):
        bb_square((1, 0, 0), 2)


@pytest.mark.parametrize("bad", [1.5, "3"])
def test_non_integer_coordinate_rejected(bad):
    # int() would truncate 1.5 to 1 and parse "3"; a coordinate must be an integer
    with pytest.raises(ValueError):
        bb_square((bad, bad, 0, 0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        divisibility_vector((1, 0, 0, 0, 0, 0, bad), 2)


def test_numpy_integer_coordinates_accepted():
    v = np.array((1, 2, 0, 0, 0, 0, 1), dtype=np.int64)
    assert bb_square(tuple(v), 2) == bb_square((1, 2, 0, 0, 0, 0, 1), 2) == -2


def test_split_class_examples():
    assert square_split(SplitClass(2, 2, -1, 2)) == 10
    assert square_split(SplitClass(2, 0, 1, 0)) == -6
    for k in range(1, 9):
        assert square_split(SplitClass(3, 8, -3, k)) == 128 * k - 72
    assert divisibility_split(SplitClass(2, 2, -1, 2)) == 2
    assert divisibility_split(SplitClass(3, 8, -3, 1)) == 8
    assert divisibility_split(SplitClass(2, 1, 5, 7)) == 1
    with pytest.raises(ValueError):
        divisibility_split(SplitClass(2, 0, 0, 3))
    with pytest.raises(ValueError):
        SplitClass(1, 1, 0, 1)


def test_embed_example():
    assert embed(SplitClass(2, 1, 0, 1)) == (1, 1, 0, 0, 0, 0, 0)


coords = st.tuples(*[st.integers(-30, 30)] * 7)
nonzero_coords = coords.filter(lambda v: any(v))


@given(nonzero_coords, st.sampled_from([2, 3, 4]))
def test_square_always_even(v, n):
    assert bb_square(v, n) % 2 == 0


@given(coords, coords, st.sampled_from([2, 3, 4]))
def test_pairing_symmetric_bilinear(v, w, n):
    assert pairing(v, w, n) == pairing(w, v, n)
    total = tuple(x + y for x, y in zip(v, w))
    assert bb_square(total, n) == bb_square(v, n) + 2 * pairing(v, w, n) + bb_square(w, n)


@given(coords, st.sampled_from([2, 3, 4, 10**6]))
def test_square_is_the_self_pairing_and_checks_once(v, n):
    calls = []
    check = lattice._check_vector

    def counting_check(vec):
        calls.append(vec)
        return check(vec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_check_vector", counting_check)
        square = bb_square(v, n)
    assert calls == [v]
    assert square == pairing(v, v, n)


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# the right length, a wrong length, or one coordinate that is not an integer
any_vectors = st.one_of(
    coords,
    st.lists(st.integers(-30, 30), max_size=10).filter(lambda v: len(v) != RANK),
    st.tuples(coords, st.integers(0, RANK - 1), st.sampled_from([1.5, "3", None])).map(
        lambda c: c[0][: c[1]] + (c[2],) + c[0][c[1] + 1 :]
    ),
)


@given(any_vectors, st.sampled_from([1, 2, 3, 4, 10**6]))
@example((0,) * RANK, 2)
@example((1, 0, 0), 2)
@example((1.5, 0, 0, 0, 0, 0, 0), 2)
@example(E1, 1)
def test_square_and_divisibility_is_the_public_pair(v, n):
    both = _value_or_error(lattice._square_and_divisibility, v, n)
    square = _value_or_error(bb_square, v, n)
    divisibility = _value_or_error(divisibility_vector, v, n)
    if isinstance(divisibility, int):
        assert both == (square, divisibility)
    else:
        # every input the pair rejects, divisibility_vector rejects, the zero vector included
        assert both == divisibility
        assert square == divisibility or not any(v)


@given(nonzero_coords, st.integers(-6, 6).filter(lambda k: k != 0), st.sampled_from([2, 3, 4]))
def test_scaling_laws(v, k, n):
    kv = tuple(k * x for x in v)
    assert bb_square(kv, n) == k * k * bb_square(v, n)
    assert divisibility_vector(kv, n) == abs(k) * divisibility_vector(v, n)


@given(nonzero_coords, st.sampled_from([2, 3, 4]))
def test_divisibility_divides_all_pairings(v, n):
    div = divisibility_vector(v, n)
    for i in range(7):
        basis = tuple(1 if j == i else 0 for j in range(7))
        assert pairing(basis, v, n) % div == 0


split_classes = st.builds(
    SplitClass,
    st.sampled_from([2, 3, 4]),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
).filter(lambda c: (c.a, c.b) != (0, 0))


@given(split_classes)
def test_split_matches_embedded_vector(c):
    v = embed(c)
    assert bb_square(v, c.n) == square_split(c)
    assert divisibility_vector(v, c.n) == divisibility_split(c)


@given(split_classes)
def test_split_divisibility_formula(c):
    assert divisibility_split(c) == math.gcd(c.a, 2 * (c.n + 1) * c.b)


wide_coords = st.tuples(*[st.integers(-50, 50)] * 7)


@given(wide_coords, wide_coords.filter(lambda v: any(v)), st.integers(2, 30))
def test_closed_forms_match_gram_matrix(v, w, n):
    g = gram_matrix(n)
    explicit = sum(v[i] * g[i][j] * w[j] for i in range(RANK) for j in range(RANK))
    assert pairing(v, w, n) == explicit
    row_pairings = [sum(g[i][j] * w[j] for j in range(RANK)) for i in range(RANK)]
    assert divisibility_vector(w, n) == math.gcd(*row_pairings)
