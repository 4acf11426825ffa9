"""Gram matrix, pairing/square/divisibility, and the split-class bridge."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kummer_moduli.lattice import (
    RANK,
    KummerLattice,
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


def test_lattice_object():
    lat = KummerLattice(2)
    assert lat.gram == gram_matrix(2)
    with pytest.raises(ValueError):
        KummerLattice(1)


def test_pairing_examples():
    lat = KummerLattice(2)
    assert pairing(E1, F1, lat) == 1
    assert pairing(DELTA, E1, lat) == 0
    assert pairing(DELTA, DELTA, lat) == -6
    assert pairing(DELTA, DELTA, KummerLattice(3)) == -8


def test_square_examples():
    lat = KummerLattice(2)
    assert bb_square((1, 2, 0, 0, 0, 0, 0), lat) == 4
    assert bb_square(DELTA, lat) == -6


def test_divisibility_vector_examples():
    lat = KummerLattice(2)
    assert divisibility_vector(DELTA, lat) == 6
    assert divisibility_vector(E1, lat) == 1
    assert divisibility_vector((2, 2, 0, 0, 0, 0, 0), lat) == 2
    with pytest.raises(ValueError):
        divisibility_vector((0,) * 7, lat)


def test_vector_length_checked():
    lat = KummerLattice(2)
    with pytest.raises(ValueError):
        bb_square((1, 0, 0), lat)


@pytest.mark.parametrize("bad", [1.5, "3"])
def test_non_integer_coordinate_rejected(bad):
    # int() would truncate 1.5 to 1 and parse "3"; a coordinate must be an integer
    lat = KummerLattice(2)
    with pytest.raises(ValueError):
        bb_square((bad, bad, 0, 0, 0, 0, 0), lat)
    with pytest.raises(ValueError):
        divisibility_vector((1, 0, 0, 0, 0, 0, bad), lat)


def test_numpy_integer_coordinates_accepted():
    lat = KummerLattice(2)
    v = np.array((1, 2, 0, 0, 0, 0, 1), dtype=np.int64)
    assert bb_square(tuple(v), lat) == bb_square((1, 2, 0, 0, 0, 0, 1), lat) == -2


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
    assert bb_square(v, KummerLattice(n)) % 2 == 0


@given(coords, coords, st.sampled_from([2, 3, 4]))
def test_pairing_symmetric_bilinear(v, w, n):
    lat = KummerLattice(n)
    assert pairing(v, w, lat) == pairing(w, v, lat)
    total = tuple(x + y for x, y in zip(v, w))
    assert (
        bb_square(total, lat)
        == bb_square(v, lat) + 2 * pairing(v, w, lat) + bb_square(w, lat)
    )


@given(nonzero_coords, st.integers(-6, 6).filter(lambda k: k != 0), st.sampled_from([2, 3, 4]))
def test_scaling_laws(v, k, n):
    lat = KummerLattice(n)
    kv = tuple(k * x for x in v)
    assert bb_square(kv, lat) == k * k * bb_square(v, lat)
    assert divisibility_vector(kv, lat) == abs(k) * divisibility_vector(v, lat)


@given(nonzero_coords, st.sampled_from([2, 3, 4]))
def test_divisibility_divides_all_pairings(v, n):
    lat = KummerLattice(n)
    div = divisibility_vector(v, lat)
    for i in range(7):
        basis = tuple(1 if j == i else 0 for j in range(7))
        assert pairing(basis, v, lat) % div == 0


split_classes = st.builds(
    SplitClass,
    st.sampled_from([2, 3, 4]),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
).filter(lambda c: (c.a, c.b) != (0, 0))


@given(split_classes)
def test_split_matches_embedded_vector(c):
    lat = KummerLattice(c.n)
    v = embed(c)
    assert bb_square(v, lat) == square_split(c)
    assert divisibility_vector(v, lat) == divisibility_split(c)


@given(split_classes)
def test_split_divisibility_formula(c):
    assert divisibility_split(c) == math.gcd(c.a, 2 * (c.n + 1) * c.b)


wide_coords = st.tuples(*[st.integers(-50, 50)] * 7)


@given(wide_coords, wide_coords.filter(lambda v: any(v)), st.integers(2, 30))
def test_closed_forms_match_gram_matrix(v, w, n):
    g = gram_matrix(n)
    lat = KummerLattice(n)
    explicit = sum(v[i] * g[i][j] * w[j] for i in range(RANK) for j in range(RANK))
    assert pairing(v, w, lat) == explicit
    row_pairings = [sum(g[i][j] * w[j] for j in range(RANK)) for i in range(RANK)]
    assert divisibility_vector(w, lat) == math.gcd(*row_pairings)
