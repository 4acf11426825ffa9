"""Exact arithmetic on the rank-7 lattice U^3 + <-(2n+2)>.

The lattice underlying everything in this package is three hyperbolic
planes plus a single negative vector delta of square -(2n+2), in the
fixed basis order

    (e1, f1, e2, f2, e3, f3, delta).

The lattice is named by its parameter n alone: every function here
takes n (n >= 2) where it needs the form.

Two representations of a class are supported:

* a concrete 7-vector of integer coordinates in that basis, and
* a split form  a*lam + b*delta  with lam a primitive vector of square
  2*d_hat living in the unimodular part (``SplitClass``).

Every class reduces to the split form, which is what all the counting
and certification formulas consume; ``embed`` maps it back to a concrete
vector so the two views can be cross-checked.  A witness class
c_L*L + c_delta*delta is a ``SplitClass`` with a = c_L, b = c_delta and
lam = L.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import Sequence

RANK = 7

Vector = Sequence[int]


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"lattice parameter n must be >= 2, got {n}")


def gram_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of U^3 + <-(2n+2)> in the fixed basis; determinant 2n+2."""
    _check_n(n)
    m = [[0] * RANK for _ in range(RANK)]
    for block in range(3):
        i = 2 * block
        m[i][i + 1] = m[i + 1][i] = 1
    m[6][6] = -(2 * n + 2)
    return tuple(tuple(row) for row in m)


def _check_vector(v: Vector) -> tuple[int, ...]:
    # operator.index accepts Python and numpy integers and rejects 1.5 or "3"
    try:
        vt = tuple(map(operator.index, v))
    except TypeError as exc:
        raise ValueError(f"coordinates must be integers: {exc}") from None
    if len(vt) != RANK:
        raise ValueError(f"expected {RANK} coordinates, got {len(vt)}")
    return vt


def pairing(v: Vector, w: Vector, n: int) -> int:
    """Bilinear pairing v^T * gram * w, in closed form for U^3 + <-(2n+2)>."""
    _check_n(n)
    vt, wt = _check_vector(v), _check_vector(w)
    hyperbolic = sum(vt[i] * wt[i + 1] + vt[i + 1] * wt[i] for i in (0, 2, 4))
    return hyperbolic - (2 * n + 2) * vt[6] * wt[6]


def _square(vt: tuple[int, ...], n: int) -> int:
    return 2 * (vt[0] * vt[1] + vt[2] * vt[3] + vt[4] * vt[5]) - (2 * n + 2) * vt[6] * vt[6]


def _divisibility(vt: tuple[int, ...], n: int) -> int:
    if not any(vt):
        raise ValueError("divisibility of the zero class is undefined")
    return gcd(*vt[:6], (2 * n + 2) * vt[6])


def bb_square(v: Vector, n: int) -> int:
    """Square of a vector under the lattice form; always even."""
    _check_n(n)
    return _square(_check_vector(v), n)


def divisibility_vector(v: Vector, n: int) -> int:
    """Positive generator of the ideal of pairings of v with the lattice.

    Computed as the gcd of the pairings with the 7 basis vectors, which
    are v1, v0, v3, v2, v5, v4 and -(2n+2)*v6.  The zero vector has no
    divisibility (the ideal degenerates) and is rejected.
    """
    _check_n(n)
    return _divisibility(_check_vector(v), n)


def _square_and_divisibility(v: Vector, n: int) -> tuple[int, int]:
    """``(bb_square(v, n), divisibility_vector(v, n))``, checking n and v once.

    Raises the ValueError either would, the zero vector's included.
    """
    _check_n(n)
    vt = _check_vector(v)
    return _square(vt, n), _divisibility(vt, n)


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
        _check_n(self.n)


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
