"""Elementary number theory for the component-count case engine.

Two functions: the prime factorization behind the multiplicative
component count, and the exhaustive quadratic-residue scan that the case
chain uses as its reference test.
"""

from __future__ import annotations


def factorize(l: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of l >= 1; factorize(1) == {}.

    Trial division by 2 and the odd numbers up to sqrt(l), so the cost is
    O(sqrt(l)).  The count engine calls it with divisors of t, and t
    divides 2n+2, so it never divides by more than sqrt(2n+2).
    """
    if l < 1:
        raise ValueError(f"factorize needs l >= 1, got {l}")
    factors: dict[int, int] = {}
    x = l
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def is_quadratic_residue(a: int, m: int) -> bool:
    """True iff x*x = a mod m has a solution x in [0, m).

    This exhaustive scan is the reference semantics: coprimality of a
    and m is NOT required, and for m in {1, 2} everything is a residue.
    """
    if m < 1:
        raise ValueError(f"is_quadratic_residue needs m >= 1, got {m}")
    a %= m
    return any((x * x - a) % m == 0 for x in range(m))
