"""Brute-force search layer validating the closed-form arithmetic.

The divisibility crosscheck proves its formula from the Gram matrix
before it scans anything.  numpy is used only by its fallback box scan
(a tracemalloc peak of 11.3 MB at n = 4, coord_bound = 3), which the
library's own Gram matrix never reaches.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
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

    The fallback walks the box one slab per value v0 of the first
    coordinate; the other six coordinates form one (6, (2b+1)^6) int64
    array shared by every slab.  Pairing row i is gram[0][i]*v0 +
    sum_{j>=1} gram[j][i]*v_j, so the sums are built once, and the rows
    with gram[0][i] == 0 are folded into one gcd once; a slab only gcds
    in the rows that move with v0.  The formula is gcd(v0, gcd(v1..v5,
    2(n+1)v6)), and its inner gcd is also built once.  All of it is exact
    integer arithmetic, so every slab sees the values a per-vector
    computation would.  The zero vector needs no special case: its ideal
    and formula are both 0.  At (n, coord_bound) = (4, 3) the fallback's
    tracemalloc peak is 11.3 MB: the shared array (5.6 MB) and a few rows
    of 0.94 MB each.
    """
    if coord_bound < 1:
        raise ValueError(f"coord_bound must be >= 1, got {coord_bound}")
    gram = gram_matrix(n)
    if _formula_is_proved(gram, n):
        return []
    b = coord_bound
    rest = np.indices((2 * b + 1,) * 6, dtype=np.int64).reshape(6, -1)
    rest -= b
    fixed_gcd = np.zeros(rest.shape[1], dtype=np.int64)
    moving = []
    for i in range(7):
        part = np.zeros(rest.shape[1], dtype=np.int64)
        for j in range(1, 7):
            if gram[j][i]:
                part += gram[j][i] * rest[j - 1]
        if gram[0][i]:
            moving.append((gram[0][i], part))
        else:
            np.gcd(fixed_gcd, part, out=fixed_gcd)
    inner = np.gcd(reduce(np.gcd, rest[:5]), 2 * (n + 1) * rest[5])
    mismatches = []
    for first in range(-b, b + 1):
        ideal_gcd = fixed_gcd
        for coeff, part in moving:
            ideal_gcd = np.gcd(ideal_gcd, part + coeff * first)
        formula = np.gcd(inner, first)
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

    Scans the triples of :func:`moduli.triples` for this n, so n must be
    in {2, 3, 4} and d_max >= 1.  One-directional: theorem-non-empty must
    imply a lattice class exists in the box of :func:`default_bounds`.
    That claim is existence, so the search is asked for one class per
    triple (``limit=1``).  Returns violations (expected: none).
    """
    violations = []
    for _, d, t in triples((n,), d_max):
        if component_count(n, d, t).count == 0:
            continue
        if not enumerate_primitive_classes(n, d, t, default_bounds(n, d, t), limit=1):
            violations.append((n, d, t))
    return violations
