import pytest
from hypothesis import given, strategies as st

from kummer_moduli.lattice import SplitClass
from kummer_moduli.moduli import component_count, is_nonempty
from kummer_moduli.witness import build_witness, shape_catalog, verify_witness

# t >= 2 divisors of 2n+2: the divisibilities that need a witness class
_WITNESS_TS = {n: [t for t in range(2, 2 * n + 3) if (2 * n + 2) % t == 0] for n in (2, 3, 4)}


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
    # d < 1 is rejected before any shape is tried: (2, -3, 2) would fit (2, -1)
    with pytest.raises(ValueError):
        build_witness(2, 0, 2)
    with pytest.raises(ValueError):
        build_witness(2, -3, 2)


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
                assert verify_witness(w, n, d, t), (n, d, t)


def test_verify_witness_rejects_wrong_target():
    w = build_witness(2, 5, 2)
    assert verify_witness(w, 2, 5, 2)
    assert not verify_witness(w, 2, 9, 2)
    assert not verify_witness(w, 2, 5, 1)
    # the same class read in another lattice is not a witness there
    assert not verify_witness(w, 3, 5, 2)


def test_witness_totality_for_every_d():
    """A catalog shape fits (n, d, t), t >= 2, iff the space is non-empty, for every d.

    Fix n, t and let P = (2n+2)^2.  The count depends on d only through
    d mod P: gcd(2d, 2n+2) through d mod (n+1), and the count-table key's
    d1 = 2d/big mod 2*t1 through d mod big*t1, both divisors of P.  Every
    shape has c_L = t, so whether it fits, t^2 | d + (n+1)*c_delta^2,
    depends on d mod t^2, which divides P; and d_hat >= d / t^2 > 0.  So
    the window d in [1, P] settles every d, in both directions: a witness
    on each non-empty triple, ``ValueError`` on each empty one.  The
    premise is sampled at d + k*P: the count and the chosen
    (c_L, c_delta) repeat there.
    """
    checked = empty = 0
    for n, ts in _WITNESS_TS.items():
        period = (2 * n + 2) ** 2
        for t in ts:
            assert all(c_l == t for c_l, _ in shape_catalog(n, t))
            for d in range(1, period + 1):
                count = component_count(n, d, t)
                for k in (1, 10**6):
                    assert component_count(n, d + k * period, t) == count, (n, d, t, k)
                if count.count == 0:
                    with pytest.raises(ValueError, match="empty moduli space"):
                        build_witness(n, d, t)
                    empty += 1
                    continue
                w = build_witness(n, d, t)
                assert verify_witness(w, n, d, t), (n, d, t)
                for k in (1, 10**6):
                    shifted = build_witness(n, d + k * period, t)
                    assert (shifted.a, shifted.b) == (w.a, w.b), (n, d, t, k)
                checked += 1
    assert (checked, empty) == (71, 529)


@given(st.sampled_from([2, 3, 4]), st.integers(1, 10**12), st.data())
def test_witness_exists_for_large_d(n, d, data):
    t = data.draw(st.sampled_from(_WITNESS_TS[n]))
    if is_nonempty(n, d, t):
        assert verify_witness(build_witness(n, d, t), n, d, t)
    else:
        with pytest.raises(ValueError, match="empty moduli space"):
            build_witness(n, d, t)
