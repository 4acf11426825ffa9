import pytest

from kummer_moduli.lattice import SplitClass
from kummer_moduli.moduli import component_count
from kummer_moduli.witness import build_witness, shape_catalog, verify_witness


def test_shape_catalog_examples():
    assert shape_catalog(3, 8) == [(8, -1), (8, -3)]
    assert shape_catalog(2, 3) == [(3, -1)]
    assert shape_catalog(4, 5) == [(5, -1), (5, -2)]


def test_shape_catalog_non_divisor_is_empty():
    assert shape_catalog(2, 5) == []
    assert shape_catalog(3, 3) == []


def test_shape_catalog_domain():
    with pytest.raises(ValueError):
        shape_catalog(5, 2)
    with pytest.raises(ValueError):
        shape_catalog(2, 1)


def test_shape_catalog_returns_a_fresh_list():
    first = shape_catalog(3, 8)
    first.append((1, -1))
    first[0] = (9, -9)
    assert shape_catalog(3, 8) == [(8, -1), (8, -3)]
    assert shape_catalog(3, 8) is not shape_catalog(3, 8)
    empty = shape_catalog(2, 5)
    empty.append((5, -1))
    assert shape_catalog(2, 5) == []
    # the domain errors hold on every call, not only the first
    for _ in range(2):
        with pytest.raises(ValueError):
            shape_catalog(5, 2)
        with pytest.raises(ValueError):
            shape_catalog(2, 1)


def test_build_witness_keeps_the_catalog_domain():
    with pytest.raises(ValueError):
        build_witness(5, 4, 2)
    with pytest.raises(ValueError):
        build_witness(2, 1, 1)


def test_catalog_shapes_have_claimed_divisibility():
    import math

    for n in (2, 3, 4):
        for t in range(2, 2 * n + 3):
            if (2 * n + 2) % t != 0:
                continue
            for c_l, c_delta in shape_catalog(n, t):
                assert math.gcd(c_l, 2 * (n + 1) * c_delta) == t
                assert math.gcd(c_l, c_delta) == 1


def test_build_witness_examples():
    assert build_witness(3, 28, 8) == SplitClass(3, 8, -3, 1)
    assert build_witness(2, 5, 2) == SplitClass(2, 2, -1, 2)
    assert build_witness(2, 1, 2) == SplitClass(2, 2, -1, 1)


def test_build_witness_requires_nonempty():
    with pytest.raises(ValueError):
        build_witness(2, 3, 3)


def test_fallback_family_n3_t8():
    """For n=3, t=8 the secondary shape carries d = 64k - 36, q(L) = 2k."""
    chosen = {}
    for d in range(1, 501):
        if component_count(3, d, 8).count == 0:
            continue
        w = build_witness(3, d, 8)
        assert w is not None
        chosen[d] = (w.a, w.b, w.d_hat)
    fallback_ds = sorted(d for d, (_, c_delta, _) in chosen.items() if c_delta == -3)
    assert fallback_ds == [28, 92, 156, 220, 284, 348, 412, 476]
    for d in fallback_ds:
        k = (d + 36) // 64
        assert chosen[d] == (8, -3, k)


def test_witnesses_verify_up_to_200():
    for n in (2, 3, 4):
        for d in range(1, 201):
            for t in range(2, 2 * n + 3):
                if (2 * n + 2) % t != 0:
                    continue
                if component_count(n, d, t).count == 0:
                    continue
                w = build_witness(n, d, t)
                assert w is not None, (n, d, t)
                assert verify_witness(w, n, d, t), (n, d, t)


def test_verify_witness_rejects_wrong_target():
    w = build_witness(2, 5, 2)
    assert verify_witness(w, 2, 5, 2)
    assert not verify_witness(w, 2, 9, 2)
    assert not verify_witness(w, 2, 5, 1)
    # the same class read in another lattice is not a witness there
    assert not verify_witness(w, 3, 5, 2)
