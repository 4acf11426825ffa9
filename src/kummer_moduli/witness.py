"""Witness classes c_L*L + c_delta*delta realizing square 2d and divisibility t.

For each supported (n, t) there is a short catalog of admissible
coefficient shapes; the builder solves

    2d = 2*c_L^2*d_hat - (2n+2)*c_delta^2
    =>  d_hat = (d + (n+1)*c_delta^2) / c_L^2

and accepts the first catalog shape for which d_hat is a positive
integer.  Which shape fires is a congruence condition on d that the
census records empirically rather than asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .lattice import (
    KummerLattice,
    SplitClass,
    bb_square,
    divisibility_split,
    divisibility_vector,
    embed,
    square_split,
)
from .moduli import is_nonempty

# extra multi-delta shapes, keyed by (n, t); the primary shape is always (t, -1)
_FALLBACK_SHAPES: dict[tuple[int, int], tuple[int, int]] = {
    (3, 8): (8, -3),
    (4, 5): (5, -2),
    (4, 10): (10, -3),
}


@dataclass(frozen=True)
class WitnessShape:
    c_L: int
    c_delta: int


@dataclass(frozen=True)
class Witness:
    shape: WitnessShape
    d_hat: int
    split: SplitClass


def shape_catalog(n: int, t: int) -> list[WitnessShape]:
    """Admissible witness shapes for (n, t), primary shape first.

    Every emitted shape is primitive and has divisibility exactly t;
    returns [] when t does not divide 2n+2 (no shape can work).
    """
    return list(_catalog(n, t))


@lru_cache(maxsize=32)
def _catalog(n: int, t: int) -> tuple[WitnessShape, ...]:
    """The shapes of :func:`shape_catalog`, computed once per (n, t).

    Only the 12 pairs with t | 2n+2 have shapes; the bound keeps calls
    with other t from growing the cache.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"witness shapes are only cataloged for n in {{2,3,4}}, got {n}")
    if t < 2:
        raise ValueError(
            f"witness classes need t >= 2, got {t}; t = 1 is certified by DivisibilityOne"
        )
    candidates = [(t, -1)]
    if (n, t) in _FALLBACK_SHAPES:
        candidates.append(_FALLBACK_SHAPES[(n, t)])
    return tuple(
        WitnessShape(c_l, c_d)
        for c_l, c_d in candidates
        if gcd(c_l, 2 * (n + 1) * c_d) == t and gcd(c_l, c_d) == 1
    )


def build_witness(n: int, d: int, t: int) -> Witness | None:
    """First catalog shape whose solved d_hat is a positive integer."""
    if not is_nonempty(n, d, t):
        raise ValueError(
            f"cannot build a witness for the empty moduli space (n={n}, d={d}, t={t})"
        )
    for shape in _catalog(n, t):
        numerator = d + (n + 1) * shape.c_delta**2
        square = shape.c_L**2
        if numerator % square == 0 and numerator // square >= 1:
            d_hat = numerator // square
            return Witness(shape, d_hat, SplitClass(n, shape.c_L, shape.c_delta, d_hat))
    return None


def verify_witness(w: Witness, n: int, d: int, t: int) -> bool:
    """Re-derive every claim the witness makes, from scratch.

    Checks the shape orientation (c_L >= 1, c_delta <= -1 — the
    decomposition certifiers rely on a negative delta coefficient),
    primitivity, d_hat >= 1, the square and divisibility in split form,
    and the same two values again on the embedded concrete vector.
    """
    shape, split = w.shape, w.split
    if (split.n, split.a, split.b, split.d_hat) != (n, shape.c_L, shape.c_delta, w.d_hat):
        return False
    if shape.c_L < 1 or shape.c_delta > -1:
        return False
    if gcd(shape.c_L, shape.c_delta) != 1 or w.d_hat < 1:
        return False
    if square_split(split) != 2 * d or divisibility_split(split) != t:
        return False
    lat = KummerLattice(n)
    vec = embed(split)
    return bb_square(vec, lat) == 2 * d and divisibility_vector(vec, lat) == t
