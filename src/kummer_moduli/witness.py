"""Witness classes c_L*L + c_delta*delta realizing square 2d and divisibility t.

The witness has c_L = t and c_delta = -c, where c >= 1 is prime to t.
Solving the square equation

    2d = 2*c_L^2*d_hat - (2n+2)*c_delta^2
    =>  d_hat = (d + (n+1)*c^2) / t^2

for a positive integer d_hat is a congruence condition on d mod t^2, and
the builder takes the least c that meets it.  One fits exactly when the
moduli space is non-empty, so the rule alone decides whether a witness
exists (see :func:`build_witness`).

A witness is the lattice's ``SplitClass(n, a, b, d_hat)`` with a = c_L
and b = c_delta.
"""

from __future__ import annotations

from math import gcd

from .lattice import (
    SplitClass,
    _square_and_divisibility,
    divisibility_split,
    embed,
    square_split,
)


def build_witness(n: int, d: int, t: int) -> SplitClass:
    """The class t*L - c*delta of square 2d, for the least c >= 1 prime to t.

    Such a class has divisibility gcd(t, (2n+2)*c) = t exactly when
    t | 2n+2, and is primitive since gcd(c, t) = 1.  It exists iff
    t^2 | d + (n+1)*c^2.  d_hat >= 1 follows from the numerator being at
    least d.

    The search stops at c = t//2.  Both conditions depend only on c mod t:
    (n+1)(c + kt)^2 - (n+1)c^2 = 2(n+1)ckt + (n+1)k^2 t^2, and t | 2(n+1)
    puts both terms in t^2 Z.  They also hold for -c when they hold for c,
    and -c = t - c mod t.  No c = 0 mod t fits, as gcd(c, t) = t >= 2.  So
    if any c fits, one in 1..t-1 does, and of c and t - c the smaller is
    at most t/2: the least fitting c is at most t//2.

    A witness exists iff the moduli space is non-empty, for every d >= 1:
    with P = (2n+2)^2 the count depends on d only through d mod P, and so
    does whether a c fits, since t^2 | P; the tests check the window d <= P.
    """
    if d < 1:
        raise ValueError(f"witness classes need d >= 1, got {d}")
    if n not in (2, 3, 4):
        raise ValueError(f"witness classes are only built for n in {{2,3,4}}, got {n}")
    if t < 2:
        raise ValueError(
            f"witness classes need t >= 2, got {t}; t = 1 is certified by DivisibilityOne"
        )
    if (2 * n + 2) % t == 0:
        for c in range(1, t // 2 + 1):
            numerator = d + (n + 1) * c * c
            if gcd(c, t) == 1 and numerator % (t * t) == 0:
                return SplitClass(n, t, -c, numerator // (t * t))
    raise ValueError(f"cannot build a witness for the empty moduli space (n={n}, d={d}, t={t})")


def verify_witness(w: SplitClass, n: int, d: int, t: int) -> bool:
    """Re-derive every claim the witness makes, from scratch.

    The witness is a ``SplitClass`` with a = c_L and b = c_delta.  Checks
    that it lives in the lattice of n, the orientation (c_L >= 1,
    c_delta <= -1 — the decomposition certifiers rely on a negative delta
    coefficient), primitivity, d_hat >= 1, the square and divisibility in
    split form, and the same two values again on the embedded concrete
    vector, which is validated once for both.
    """
    if w.n != n or w.a < 1 or w.b > -1:
        return False
    if gcd(w.a, w.b) != 1 or w.d_hat < 1:
        return False
    if square_split(w) != 2 * d or divisibility_split(w) != t:
        return False
    return _square_and_divisibility(embed(w), n) == (2 * d, t)
