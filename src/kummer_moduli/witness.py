"""Witness classes c_L*L + c_delta*delta realizing square 2d and divisibility t.

For each supported (n, t) there is a short catalog of admissible
coefficient shapes; the builder solves

    2d = 2*c_L^2*d_hat - (2n+2)*c_delta^2
    =>  d_hat = (d + (n+1)*c_delta^2) / c_L^2

and accepts the first catalog shape for which d_hat is a positive
integer.  Which shape fires is a congruence condition on d mod c_L^2,
and one fires exactly when the moduli space is non-empty, so the
catalog alone decides whether a witness exists (see :func:`build_witness`).

A shape is a pair (c_L, c_delta); a witness is the lattice's
``SplitClass(n, a, b, d_hat)`` with a = c_L and b = c_delta.
"""

from __future__ import annotations

from math import gcd

from .lattice import (
    SplitClass,
    bb_square,
    divisibility_split,
    divisibility_vector,
    embed,
    square_split,
)

# extra multi-delta shapes, keyed by (n, t); the primary shape is always (t, -1)
_FALLBACK_SHAPES: dict[tuple[int, int], tuple[int, int]] = {
    (3, 8): (8, -3),
    (4, 5): (5, -2),
    (4, 10): (10, -3),
}


def shape_catalog(n: int, t: int) -> list[tuple[int, int]]:
    """Admissible (c_L, c_delta) witness shapes for (n, t), primary first.

    Every shape has c_L = t and c_delta prime to t, so its divisibility
    gcd(t, (2n+2)*c_delta) is t exactly when t | 2n+2; returns [] otherwise.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"witness shapes are only cataloged for n in {{2,3,4}}, got {n}")
    if t < 2:
        raise ValueError(
            f"witness classes need t >= 2, got {t}; t = 1 is certified by DivisibilityOne"
        )
    if (2 * n + 2) % t:
        return []
    fallback = _FALLBACK_SHAPES.get((n, t))
    return [(t, -1), fallback] if fallback else [(t, -1)]


def build_witness(n: int, d: int, t: int) -> SplitClass:
    """First catalog shape whose solved d_hat is an integer, as a ``SplitClass``.

    A shape fits iff the moduli space is non-empty, for every d >= 1: with
    P = (2n+2)^2 the count depends on d only through d mod P, and a shape
    (t, c_delta) fits iff t^2 | d + (n+1)*c_delta^2, where t^2 | P; the
    tests check the window d <= P.  d_hat >= 1 follows from numerator >= d.
    """
    if d < 1:
        raise ValueError(f"witness classes need d >= 1, got {d}")
    for c_l, c_d in shape_catalog(n, t):
        numerator = d + (n + 1) * c_d * c_d
        if numerator % (c_l * c_l) == 0:
            return SplitClass(n, c_l, c_d, numerator // (c_l * c_l))
    raise ValueError(f"cannot build a witness for the empty moduli space (n={n}, d={d}, t={t})")


def verify_witness(w: SplitClass, n: int, d: int, t: int) -> bool:
    """Re-derive every claim the witness makes, from scratch.

    The witness is a ``SplitClass`` with a = c_L and b = c_delta.  Checks
    that it lives in the lattice of n, the orientation (c_L >= 1,
    c_delta <= -1 — the decomposition certifiers rely on a negative delta
    coefficient), primitivity, d_hat >= 1, the square and divisibility in
    split form, and the same two values again on the embedded concrete
    vector.
    """
    if w.n != n or w.a < 1 or w.b > -1:
        return False
    if gcd(w.a, w.b) != 1 or w.d_hat < 1:
        return False
    if square_split(w) != 2 * d or divisibility_split(w) != t:
        return False
    vec = embed(w)
    return bb_square(vec, n) == 2 * d and divisibility_vector(vec, n) == t
