"""Exact arithmetic on the rank-7 lattice U^3 + <-(2n+2)>.

The lattice underlying everything in this package is three hyperbolic
planes plus a single negative vector delta of square -(2n+2), in the
fixed basis order

    (e1, f1, e2, f2, e3, f3, delta).

Two representations of a class are supported:

* a concrete 7-vector of integer coordinates in that basis, and
* a split form  a*lam + b*delta  with lam a primitive vector of square
  2*d_hat living in the unimodular part (``SplitClass``).

Every class reduces to the split form, which is what all the counting
and certification formulas consume; ``embed`` maps it back to a concrete
vector so the two views can be cross-checked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Sequence

RANK = 7

Vector = Sequence[int]


@lru_cache(maxsize=None)
def _gram_rows(n: int) -> tuple[tuple[int, ...], ...]:
    m = [[0] * RANK for _ in range(RANK)]
    for block in range(3):
        i = 2 * block
        m[i][i + 1] = m[i + 1][i] = 1
    m[6][6] = -(2 * n + 2)
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class KummerLattice:
    """The form U^3 + <-(2n+2)> for a fixed half-dimension parameter n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"lattice parameter n must be >= 2, got {self.n}")

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        return _gram_rows(self.n)


def gram_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of U^3 + <-(2n+2)> in the fixed basis; determinant 2n+2."""
    return KummerLattice(n).gram


def _check_vector(v: Vector) -> tuple[int, ...]:
    # operator.index accepts Python and numpy integers and rejects 1.5 or "3"
    try:
        vt = tuple(map(operator.index, v))
    except TypeError as exc:
        raise ValueError(f"coordinates must be integers: {exc}") from None
    if len(vt) != RANK:
        raise ValueError(f"expected {RANK} coordinates, got {len(vt)}")
    return vt


def pairing(v: Vector, w: Vector, lat: KummerLattice) -> int:
    """Bilinear pairing v^T * gram * w, in closed form for U^3 + <-(2n+2)>."""
    vt, wt = _check_vector(v), _check_vector(w)
    hyperbolic = sum(vt[i] * wt[i + 1] + vt[i + 1] * wt[i] for i in (0, 2, 4))
    return hyperbolic - (2 * lat.n + 2) * vt[6] * wt[6]


def bb_square(v: Vector, lat: KummerLattice) -> int:
    """Square of a vector under the lattice form; always even."""
    return pairing(v, v, lat)


def divisibility_vector(v: Vector, lat: KummerLattice) -> int:
    """Positive generator of the ideal of pairings of v with the lattice.

    Computed as the gcd of the pairings with the 7 basis vectors, which
    are v1, v0, v3, v2, v5, v4 and -(2n+2)*v6.  The zero vector has no
    divisibility (the ideal degenerates) and is rejected.
    """
    vt = _check_vector(v)
    if not any(vt):
        raise ValueError("divisibility of the zero class is undefined")
    return gcd(*vt[:6], (2 * lat.n + 2) * vt[6])


@dataclass(frozen=True)
class SplitClass:
    """A class a*lam + b*delta with lam primitive of square 2*d_hat.

    ``d_hat`` may be zero or negative for a bare lattice class; callers
    that treat the class as a polarization pullback must require
    d_hat >= 1 themselves.
    """

    n: int
    a: int
    b: int
    d_hat: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"lattice parameter n must be >= 2, got {self.n}")


def square_split(c: SplitClass) -> int:
    """Square of a*lam + b*delta: 2*a^2*d_hat - (2n+2)*b^2."""
    return 2 * c.a * c.a * c.d_hat - (2 * c.n + 2) * c.b * c.b


def divisibility_split(c: SplitClass) -> int:
    """Divisibility of a*lam + b*delta: gcd(a, 2(n+1)b), with gcd(0,x)=|x|."""
    if c.a == 0 and c.b == 0:
        raise ValueError("divisibility of the zero class is undefined")
    return gcd(c.a, 2 * (c.n + 1) * c.b)


def embed(c: SplitClass) -> tuple[int, ...]:
    """Concrete vector a*(e1 + d_hat*f1) + b*delta realizing the split class.

    e1 + d_hat*f1 is primitive of square 2*d_hat, so the embedded vector
    has the same square and divisibility as the split class.
    """
    return (c.a, c.a * c.d_hat, 0, 0, 0, 0, c.b)
