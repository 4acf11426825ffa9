"""Brute-force search layer validating the closed-form arithmetic.

The divisibility crosscheck proves its formula from the Gram matrix
before it scans anything.  numpy is used only by its fallback box scan
(a tracemalloc peak of 10.4 MB at n = 4, coord_bound = 3), which the
library's own Gram matrix never reaches.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .lattice import SplitClass, gram_matrix
from .moduli import component_count, triples


@dataclass(frozen=True)
class SearchBounds:
    """The box 1 <= a <= max_a, |b| <= max_b; the square fixes d_hat."""

    max_a: int
    max_b: int

    def __post_init__(self) -> None:
        if self.max_a < 1 or self.max_b < 0:
            raise ValueError(f"bounds out of range: {self}")


def enumerate_primitive_classes(
    n: int, d: int, t: int, bounds: SearchBounds, *, limit: int | None = None
) -> list[SplitClass]:
    """All primitive split classes of square 2d and divisibility t in the box.

    The square equation pins d_hat = (d + (n+1)b^2) / a^2 for a >= 1, so
    the scan is over (a, b) only, a ascending, then b ascending.  The a = 0
    classes are +-delta, of square -(2n+2) < 0, never the target 2d >= 2.
    Exact division gives every class found the square 2d and d_hat >=
    d/a^2 > 0, so each one is a polarization pullback.  Its divisibility
    gcd(a, 2(n+1)b) divides a, so a steps over t, 2t, ...; and as b is
    prime to a, it equals gcd(a, 2n+2), so an a with gcd(a, 2n+2) != t
    holds no class and its b loop is skipped.

    With ``limit`` the scan stops once it holds ``limit`` classes, so the
    result is the first ``limit`` entries of the full list, in the same
    order; ``limit`` must be >= 1.
    """
    if n < 2 or d < 1 or t < 1:
        raise ValueError(f"need n >= 2, d >= 1, t >= 1, got ({n}, {d}, {t})")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    found: list[SplitClass] = []
    for a in range(t, bounds.max_a + 1, t):
        if gcd(a, 2 * n + 2) != t:
            continue
        square = a * a
        for b in range(-bounds.max_b, bounds.max_b + 1):
            numerator = d + (n + 1) * b * b
            if numerator % square == 0 and gcd(a, b) == 1:
                found.append(SplitClass(n, a, b, numerator // square))
                if len(found) == limit:
                    return found
    return found


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss elimination (no floats, no fractions).

    Every division is exact: after step k the entries are k+1 by k+1
    minors of the input, and each new one divides by the previous pivot.
    A zero pivot is swapped for a lower row that is nonzero in its
    column, which flips the sign; with no such row the determinant is 0.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    sign, previous = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // previous
        previous = pivot
    return sign * m[-1][-1]


def _formula_is_proved(gram: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the pairing ideal equals gcd(v0..v5, 2(n+1)v6) at every vector.

    Pairing row i is column i of ``gram``, the form sum_j gram[j][i]*v_j.
    The ideal at v is the gcd of the rows' values, which is the gcd of
    f(v) over every f in the module the columns span.  If each column's
    last entry is divisible by 2n+2, that span lies in S = span{e0..e5,
    (2n+2)e6}, which has index 2n+2 in Z^7.  If also |det gram| = 2n+2,
    the span has that index too, so it equals S, and the ideal is
    gcd(v0, ..., v5, (2n+2)v6) at every vector.
    """
    modulus = 2 * n + 2
    return all(x % modulus == 0 for x in gram[6]) and abs(_det(gram)) == modulus


def divisibility_crosscheck(
    n: int, coord_bound: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """Compare the pairing-ideal divisibility with the split formula.

    Checks every nonzero vector with coordinates in [-coord_bound,
    coord_bound]: the gcd of its pairings against the basis, taken from
    :func:`gram_matrix`, must equal gcd(content(u), 2(n+1)|b|), where u
    is the unimodular part and b the delta coordinate.  Returns the
    mismatches (expected: none) as (vector, ideal gcd, formula), in
    lexicographic order of the vector.

    When :func:`_formula_is_proved` holds for the Gram matrix, the two
    agree at every vector, so there is no mismatch and no array is built;
    the library's own Gram matrix always takes this path.  Otherwise the
    box is scanned as the fallback, which returns the same list a
    per-vector scan would.

    The fallback scans the box one slab per value v0 of the first
    coordinate; the other six coordinates form one (6, (2b+1)^6) int64
    array shared by every slab.  A slab gcds its seven pairing rows,
    sum_j gram[j][i]*v_j, into one array and compares it with the formula
    gcd(v0..v5, 2(n+1)v6).  All of it is exact integer arithmetic, so
    every slab sees the values a per-vector computation would.  The zero
    vector needs no special case: its ideal and formula are both 0.  At
    (n, coord_bound) = (4, 3) the fallback's tracemalloc peak is 10.4 MB:
    the shared array (5.6 MB) and five rows of 0.94 MB each.
    """
    if coord_bound < 1:
        raise ValueError(f"coord_bound must be >= 1, got {coord_bound}")
    gram = gram_matrix(n)
    if _formula_is_proved(gram, n):
        return []
    b = coord_bound
    rest = np.indices((2 * b + 1,) * 6, dtype=np.int64).reshape(6, -1)
    rest -= b
    mismatches = []
    for first in range(-b, b + 1):
        vector = (first, *rest)
        ideal_gcd = np.zeros(rest.shape[1], dtype=np.int64)
        for column in zip(*gram):
            np.gcd(ideal_gcd, sum(g * x for g, x in zip(column, vector) if g), out=ideal_gcd)
        formula = np.gcd(np.gcd(np.gcd.reduce(rest[:5]), 2 * (n + 1) * rest[5]), first)
        for i in np.flatnonzero(ideal_gcd != formula):
            mismatches.append(
                ((first, *(int(x) for x in rest[:, i])), int(ideal_gcd[i]), int(formula[i]))
            )
    return mismatches


def default_bounds(n: int, d: int, t: int) -> SearchBounds:
    """Desk-scale bounds wide enough to rediscover every witness shape.

    max_b is 3 more than the least m with m^2 * (n+1) >= d; for d >= 1
    that m is isqrt((d-1) // (n+1)) + 1.
    """
    return SearchBounds(max_a=2 * n + 2 + t, max_b=isqrt((d - 1) // (n + 1)) + 4)


def nonemptiness_crosscheck(n: int, d_max: int) -> list[tuple[int, int, int]]:
    """Triples the count theorem calls non-empty but the search cannot hit.

    n must be in {2, 3, 4} and d_max >= 1.  A non-empty count must imply
    a class in the box of :func:`default_bounds`; one is enough
    (``limit=1``).  Returns the violations (expected: none), sorted.

    With P = (2n+2)^2 the search runs once per non-empty class (n, r, t)
    of d mod P, r <= min(P, d_max); a failure is a violation at each
    d <= d_max of its class.  Both answers hold along the class:

    * the count's key (n, t, d mod P) is exact (see :mod:`moduli`);
    * a primitive a*lam + b*delta of square 2d and divisibility t has
      t | a, gcd(b, t) = 1, t^2 | a^2 | d + (n+1)b^2 and t | 2n+2.  For
      t >= 2, c = +-b mod t in 1..t/2 keeps t^2 | d + (n+1)c^2 (see
      :func:`witness.build_witness`): a class exists iff some
      t*lam - c*delta does, a condition on d mod t^2, and t^2 | P;
    * the box holds a = t and b = -c: max_a = 2n+2+t, and max_b >= 4 >= c,
      as c <= t/2 is prime to t | 2n+2 <= 10.  For t = 1, a = 1 hits at
      the first b.
    """
    period = (2 * n + 2) ** 2
    violations = []
    for _, r, t in triples((n,), min(period, d_max)):
        if component_count(n, r, t).count == 0:
            continue
        if not enumerate_primitive_classes(n, r, t, default_bounds(n, r, t), limit=1):
            violations += ((n, d, t) for d in range(r, d_max + 1, period))
    return sorted(violations)
