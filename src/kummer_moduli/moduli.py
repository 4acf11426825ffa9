"""Non-emptiness and component counts for the polarized moduli spaces.

Inputs are the half-dimension n >= 2 and polarization invariants
(square 2d, divisibility t).  The count is driven entirely by the
derived integers

    d1 = 2d / gcd(2d, 2n+2)      n1 = (2n+2) / gcd(2d, 2n+2)
    g  = gcd(2d, 2n+2) / t       w  = gcd(g, t)
    g1 = g / w                   t1 = t / w

through a four-way case split (a, b, c, d), shared by the regimes t > 2
and t <= 2.  Cases are evaluated in their listed order and the first
match wins; the tag of the matching case (1a 1b 1c 2 for t > 2, 3a 3b 3c
3d for t <= 2) is reported alongside the count so tables stay auditable.

The regime t > 2 adds one parity rule to two cases (d1 even in case c,
t1 even in case d) and counts components multiplicatively:

    w_plus(t1) * phi(w_minus(t1)) * 2^(rho(l) - 1)

with l = t1 in cases a, b, c and l = t1/2 in case d.  When rho(l) = 0 the
power is the exact rational 1/2; the product is provably integral under
each case's hypotheses, and this module evaluates it exactly (asserting
integrality) rather than rounding.  Defining the power as 1 instead
produces two-component verdicts inside the connectedness range (e.g.
n=3, d=12, t=4), which the corollary scan rejects.  For t <= 2 a matching
case always yields a single component.

The chain reads d1 only through gcd(d1, t1), d1 mod 2 and the three
residues (-d1/n1 mod t1, -d1/n1 mod 2*t1, -d1/(4*n1) mod t1); t1 and 2
both divide 2*t1, so each of these is a function of d1 mod 2*t1.  The
key (n1, w, g1, t1, d1 mod 2*t1, t > 2) therefore determines the
result exactly, with no periodicity sampled.  For a fixed n there are
finitely many keys (n1, w, g1 and t1 come from divisors of 2n+2, and
d1 mod 2*t1 < 2*t1); n in {2, 3, 4} has 105 of them, all reached by
d <= 100.  So :func:`component_count` keeps their results in a
module-level table and runs the chain once per key.  Larger n goes to
the chain directly: across many n the keys hardly repeat, and a table
would grow with every query.

:func:`triples` is the (n, d, t) grid that the census and the
verification scans walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .arith import factorize, is_quadratic_residue

EMPTY_TAGS = ("4-empty", "precondition-empty")

# case tags a, b, c, d of the regimes t > 2 and t <= 2
_TAGS_T_ABOVE_2 = ("1a", "1b", "1c", "2")
_TAGS_T_UP_TO_2 = ("3a", "3b", "3c", "3d")


@dataclass(frozen=True)
class ModuliInvariants:
    d1: int
    n1: int
    g: int
    w: int
    g1: int
    t1: int


@dataclass(frozen=True)
class CountResult:
    count: int
    case_tag: str


# the results that carry no per-triple data, shared by every call
_PRECONDITION_EMPTY = CountResult(0, "precondition-empty")
_FOUR_EMPTY = CountResult(0, "4-empty")
_ONE_COMPONENT = tuple(CountResult(1, tag) for tag in _TAGS_T_UP_TO_2)


def _check_params(n: int, d: int, t: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")


def _derive(n: int, d: int, t: int) -> tuple[int, int, int, int, int, int] | None:
    """(d1, n1, g, w, g1, t1), or None when t does not divide gcd(2d, 2n+2)."""
    _check_params(n, d, t)
    big = gcd(2 * d, 2 * n + 2)
    if big % t != 0:
        return None
    g = big // t
    w = gcd(g, t)
    return 2 * d // big, (2 * n + 2) // big, g, w, g // w, t // w


def invariants(n: int, d: int, t: int) -> ModuliInvariants:
    """Derived integers (d1, n1, g, w, g1, t1); requires t | gcd(2d, 2n+2)."""
    derived = _derive(n, d, t)
    if derived is None:
        raise ValueError(
            f"t={t} does not divide gcd(2d, 2n+2)={gcd(2 * d, 2 * n + 2)};"
            " the moduli space is empty"
        )
    return ModuliInvariants(*derived)


def _neg_ratio(d1: int, denom: int, modulus: int) -> int:
    """(-d1 / denom) reduced mod modulus; 0 for modulus 1.

    Raises ValueError when denom is not a unit mod modulus.
    """
    return -d1 * pow(denom, -1, modulus) % modulus


def _halved_power_count(w: int, t1: int, l: int) -> int:
    """w_plus(t1) * phi(w_minus(t1)) * 2^(rho(l)-1), evaluated exactly.

    w_plus(t1) is the part of w on the primes that divide t1 and w_minus
    the rest, so w_plus * phi(w_minus) is w times (1 - 1/p) for each
    prime p of w that does not divide t1; rho(l) counts the primes of l.
    """
    kept = w
    for p in factorize(w):
        if t1 % p != 0:
            kept = kept // p * (p - 1)
    doubled = kept * 2 ** len(factorize(l))
    if doubled % 2 != 0:
        raise ArithmeticError(
            f"non-integral component count for w={w}, t1={t1}, l={l}"
        )
    return doubled // 2


def _count_chain(
    n1: int, w: int, g1: int, t1: int, d1: int, above_2: bool
) -> CountResult:
    """The case chain a, b, c, d on the derived integers.

    Case c can never match: it needs w, g1 and t1 all odd, but
    w^2 * g1 * t1 = gcd(2d, 2n+2) is even.  It is kept so that the chain
    mirrors the case split of the count theorem.
    """
    coprime_t1 = gcd(d1, t1) == 1
    # hypotheses shared by cases b, c and d
    coprime_odd_g1 = g1 % 2 == 1 and coprime_t1 and gcd(n1, 2 * t1) == 1

    # the quadratic-residue scan is the costly test: it stays the last conjunct
    if (
        g1 % 2 == 0
        and coprime_t1
        and gcd(n1, t1) == 1
        and is_quadratic_residue(_neg_ratio(d1, n1, t1), t1)
    ):
        case = 0
    elif (
        coprime_odd_g1
        and t1 % 2 == 1
        and d1 % 2 == 1
        and is_quadratic_residue(_neg_ratio(d1, n1, 2 * t1), 2 * t1)
    ):
        case = 1
    elif (
        coprime_odd_g1
        and t1 % 2 == 1
        and w % 2 == 1
        and (not above_2 or d1 % 2 == 0)
        and is_quadratic_residue(_neg_ratio(d1, 4 * n1, t1), t1)
    ):
        case = 2
    elif (
        coprime_odd_g1
        and (not above_2 or t1 % 2 == 0)
        and is_quadratic_residue(_neg_ratio(d1, n1, 2 * t1), 2 * t1)
    ):
        case = 3
    else:
        return _FOUR_EMPTY

    if not above_2:
        return _ONE_COMPONENT[case]
    l = t1 // 2 if case == 3 else t1
    return CountResult(_halved_power_count(w, t1, l), _TAGS_T_ABOVE_2[case])


# results of _count_chain for n in {2, 3, 4}, by (n1, w, g1, t1, d1 mod 2*t1, t > 2)
_COUNT_TABLE: dict[tuple[int, int, int, int, int, bool], CountResult] = {}


def component_count(n: int, d: int, t: int) -> CountResult:
    """Number of components of the moduli space, with the matching case tag.

    For n in {2, 3, 4} the result is read from a table keyed by the
    reduction of d1 mod 2*t1 (see the module docstring for why the key
    is exact); the returned CountResult may be shared between calls.
    """
    derived = _derive(n, d, t)
    if derived is None:
        return _PRECONDITION_EMPTY
    d1, n1, _, w, g1, t1 = derived
    if n > 4:
        return _count_chain(n1, w, g1, t1, d1, t > 2)
    key = (n1, w, g1, t1, d1 % (2 * t1), t > 2)
    result = _COUNT_TABLE.get(key)
    if result is None:
        result = _COUNT_TABLE[key] = _count_chain(*key)
    return result


def is_nonempty(n: int, d: int, t: int) -> bool:
    return component_count(n, d, t).count > 0


def triples(n_values: Iterable[int], d_max: int) -> Iterator[tuple[int, int, int]]:
    """Every (n, d, t) with n in n_values, 1 <= d <= d_max and t | 2n+2, sorted.

    Raises ValueError, before yielding anything, when d_max < 1 or an n
    lies outside {2, 3, 4}.
    """
    ns = sorted(set(n_values))
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    outside = [n for n in ns if n not in (2, 3, 4)]
    if outside:
        raise ValueError(f"scans cover n in {{2,3,4}} only, got n={outside}")
    for n in ns:
        divisors = [t for t in range(1, 2 * n + 3) if (2 * n + 2) % t == 0]
        for d in range(1, d_max + 1):
            for t in divisors:
                yield n, d, t


def connectedness_report(n: int, d_max: int) -> list[tuple[int, int, int, int]]:
    """All (n, d, t, count) with d <= d_max, t | 2n+2 and count not in {0, 1}.

    A t that does not divide 2n+2 never divides gcd(2d, 2n+2), so its
    space is precondition-empty and needs no check.  Expected to be empty
    for n in {2, 3, 4}.
    """
    violations = []
    for _, d, t in triples((n,), d_max):
        count = component_count(n, d, t).count
        if count not in (0, 1):
            violations.append((n, d, t, count))
    return violations
