import dataclasses
from math import gcd

import pytest
from hypothesis import given, strategies as st

from kummer_moduli.lattice import SplitClass
from kummer_moduli.moduli import component_count, is_nonempty
from kummer_moduli.oracle import SearchBounds, enumerate_primitive_classes
from kummer_moduli.witness import build_witness, verify_witness

# t >= 2 divisors of 2n+2: the divisibilities that need a witness class
_WITNESS_TS = {n: [t for t in range(2, 2 * n + 3) if (2 * n + 2) % t == 0] for n in (2, 3, 4)}


def test_witness_shapes_over_one_period():
    """The chosen (n, c_L, c_delta): c_L = t, and c_delta = -1 plus one other at three pairs."""
    chosen = set()
    for n, ts in _WITNESS_TS.items():
        for t in ts:
            for d in range(1, (2 * n + 2) ** 2 + 1):
                if is_nonempty(n, d, t):
                    w = build_witness(n, d, t)
                    chosen.add((n, w.a, w.b))
    expected = {(n, t, -1) for n, ts in _WITNESS_TS.items() for t in ts}
    assert chosen == expected | {(3, 8, -3), (4, 5, -2), (4, 10, -3)}


def test_witness_is_the_least_class_the_search_finds():
    """On each non-empty window triple, the witness is the least-|b| class with a = t.

    Every class with a = t and |b| <= t^2 is in the search box, and its
    divisibility and primitivity are checked there, not by the builder.
    """
    checked = 0
    for n, ts in _WITNESS_TS.items():
        for t in ts:
            for d in range(1, (2 * n + 2) ** 2 + 1):
                if not is_nonempty(n, d, t):
                    continue
                found = enumerate_primitive_classes(n, d, t, SearchBounds(t, t * t))
                least = min((c for c in found if c.a == t), key=lambda c: (abs(c.b), c.b))
                assert build_witness(n, d, t) == least, (n, d, t)
                checked += 1
    assert checked == 71


def test_least_c_is_the_least_c_of_the_search_to_t_squared_over_two():
    """Searching c <= t//2 finds the c that c <= t^2//2 finds, and none when that finds none."""
    for n, ts in _WITNESS_TS.items():
        for t in ts:
            for d in range(1, (2 * n + 2) ** 2 + 1):
                wide = next(
                    (
                        c
                        for c in range(1, t * t // 2 + 1)
                        if gcd(c, t) == 1 and (d + (n + 1) * c * c) % (t * t) == 0
                    ),
                    None,
                )
                if wide is None:
                    with pytest.raises(ValueError, match="empty moduli space"):
                        build_witness(n, d, t)
                else:
                    assert build_witness(n, d, t).b == -wide, (n, d, t)


def test_build_witness_needs_t_dividing_2n_plus_2():
    # t*L - c*delta has divisibility gcd(t, (2n+2)*c), which is t only if t | 2n+2
    for n, t in ((2, 5), (3, 3), (4, 4)):
        for d in range(1, 2 * t * t + 1):
            with pytest.raises(ValueError, match="empty moduli space"):
                build_witness(n, d, t)


def test_build_witness_keeps_the_catalog_domain():
    # the checks run in the order d, n, t
    with pytest.raises(ValueError, match="need d >= 1"):
        build_witness(5, 0, 1)
    with pytest.raises(ValueError, match=r"only built for n in \{2,3,4\}, got 5"):
        build_witness(5, 4, 1)
    with pytest.raises(ValueError, match="need t >= 2, got 1; t = 1 is certified"):
        build_witness(2, 1, 1)
    # d < 1 is rejected before any shape is tried: (2, -3, 2) would fit (2, -1)
    with pytest.raises(ValueError, match="need d >= 1"):
        build_witness(2, 0, 2)
    with pytest.raises(ValueError, match="need d >= 1"):
        build_witness(2, -3, 2)


def test_build_witness_rejects_n_and_t_outside_the_domain():
    # the guards hold for every d, also where the rule would find a class
    for d in range(1, 50):
        for n in (-1, 0, 1, 5, 6):
            with pytest.raises(ValueError, match=r"only built for n in \{2,3,4\}"):
                build_witness(n, d, 2)
        for t in (-1, 0, 1):
            with pytest.raises(ValueError, match="need t >= 2"):
                build_witness(2, d, t)


def test_build_witness_returns_a_frozen_class_and_keeps_no_state():
    first = build_witness(3, 28, 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.b = -1
    assert build_witness(3, 28, 8) == first == SplitClass(3, 8, -3, 1)
    # the domain errors hold on every call, not only the first
    for _ in range(2):
        with pytest.raises(ValueError):
            build_witness(5, 4, 2)
        with pytest.raises(ValueError):
            build_witness(2, 1, 1)
        with pytest.raises(ValueError, match="empty moduli space"):
            build_witness(2, 1, 5)


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
    """A witness of (n, d, t), t >= 2, exists iff the space is non-empty, for every d.

    Fix n, t and let P = (2n+2)^2.  The count depends on d only through
    d mod P: gcd(2d, 2n+2) through d mod (n+1), and the count-table key's
    d1 = 2d/big mod 2*t1 through d mod big*t1, both divisors of P.  The
    witness has c_L = t by construction, so whether a c_delta fits,
    t^2 | d + (n+1)*c_delta^2, depends on d mod t^2, which divides P;
    and d_hat >= d / t^2 > 0.  So
    the window d in [1, P] settles every d, in both directions: a witness
    on each non-empty triple, ``ValueError`` on each empty one.  The
    premise is sampled at d + k*P: the count and the chosen
    (c_L, c_delta) repeat there.
    """
    checked = empty = 0
    for n, ts in _WITNESS_TS.items():
        period = (2 * n + 2) ** 2
        for t in ts:
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
