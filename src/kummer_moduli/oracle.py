"""Brute-force search layer validating the closed-form arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt

import numpy as np

from .lattice import SplitClass, divisibility_split, gram_matrix
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
    n: int, d: int, t: int, bounds: SearchBounds
) -> list[SplitClass]:
    """All primitive split classes of square 2d and divisibility t in the box.

    The square equation pins d_hat = (d + (n+1)b^2) / a^2 for a >= 1, so
    the scan is over (a, b) only.  The a = 0 classes are +-delta, of square
    -(2n+2) < 0, so they never hit the target square 2d >= 2.  d_hat is
    solved from the square equation by exact division, so every class
    found has square 2*a^2*d_hat - (2n+2)*b^2 = 2d and only its
    divisibility is left to test.  d_hat >= d/a^2 > 0 for every class
    found, so each one is a polarization pullback.
    """
    if n < 2 or d < 1 or t < 1:
        raise ValueError(f"need n >= 2, d >= 1, t >= 1, got ({n}, {d}, {t})")
    found: list[SplitClass] = []
    for a in range(1, bounds.max_a + 1):
        for b in range(-bounds.max_b, bounds.max_b + 1):
            if gcd(a, b) != 1:
                continue
            numerator = d + (n + 1) * b * b
            if numerator % (a * a) != 0:
                continue
            c = SplitClass(n, a, b, numerator // (a * a))
            if divisibility_split(c) == t:
                found.append(c)
    return found


def divisibility_crosscheck(
    n: int, coord_bound: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """Compare the pairing-ideal divisibility with the split formula.

    Scans every nonzero vector with coordinates in [-coord_bound,
    coord_bound]: the gcd of its pairings against the basis, taken from
    :func:`gram_matrix`, must equal gcd(content(u), 2(n+1)|b|), where u
    is the unimodular part and b the delta coordinate.  Returns the
    mismatches (expected: none) as (vector, ideal gcd, formula), in
    lexicographic order of the vector.

    The box is walked one slab at a time, a slab being the vectors with
    one value of the first coordinate, held as a (7, (2b+1)^6) int64
    array of contiguous coordinate rows; memory is bounded by one slab
    (about 6.6 MB at coord_bound = 3), not by the whole box.
    """
    if coord_bound < 1:
        raise ValueError(f"coord_bound must be >= 1, got {coord_bound}")
    b = coord_bound
    gram = gram_matrix(n)
    slab = np.empty((7, (2 * b + 1) ** 6), dtype=np.int64)
    slab[1:] = np.indices((2 * b + 1,) * 6).reshape(6, -1) - b
    mismatches = []
    for first in range(-b, b + 1):
        slab[0] = first
        # the zero vector sits in the middle of the first == 0 slab
        vectors = np.delete(slab, slab.shape[1] // 2, axis=1) if first == 0 else slab
        ideal_gcd = reduce(np.gcd, (_pairing_row(gram, i, vectors) for i in range(7)))
        content = reduce(np.gcd, vectors[:6])
        formula = np.gcd(content, 2 * (n + 1) * vectors[6])
        for i in np.flatnonzero(ideal_gcd != formula):
            mismatches.append(
                (tuple(int(x) for x in vectors[:, i]), int(ideal_gcd[i]), int(formula[i]))
            )
    return mismatches


def _pairing_row(
    gram: tuple[tuple[int, ...], ...], i: int, vectors: np.ndarray
) -> np.ndarray:
    # pairing of every vector with basis vector i: sum_j gram[j][i] * v_j
    row = np.zeros(vectors.shape[1], dtype=np.int64)
    for j in range(7):
        if gram[j][i]:
            row += gram[j][i] * vectors[j]
    return row


def _ceil_sqrt_ratio(d: int, parts: int) -> int:
    # smallest m >= 0 with m*m*parts >= d
    m = isqrt(d // parts)
    while m * m * parts < d:
        m += 1
    return m


def default_bounds(n: int, d: int, t: int) -> SearchBounds:
    """Desk-scale bounds wide enough to rediscover every witness shape."""
    return SearchBounds(max_a=2 * n + 2 + t, max_b=_ceil_sqrt_ratio(d, n + 1) + 3)


def nonemptiness_crosscheck(n: int, d_max: int) -> list[tuple[int, int, int]]:
    """Triples the count theorem calls non-empty but the search cannot hit.

    Scans the triples of :func:`moduli.triples` for this n, so n must be
    in {2, 3, 4} and d_max >= 1.  One-directional: theorem-non-empty must
    imply a lattice class exists in the box of :func:`default_bounds`.
    Returns violations (expected: none).
    """
    violations = []
    for _, d, t in triples((n,), d_max):
        if component_count(n, d, t).count == 0:
            continue
        if not enumerate_primitive_classes(n, d, t, default_bounds(n, d, t)):
            violations.append((n, d, t))
    return violations
