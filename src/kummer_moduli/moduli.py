"""Non-emptiness and component counts for the polarized moduli spaces.

Inputs are the half-dimension n >= 2 and polarization invariants
(square 2d, divisibility t).  The count is driven entirely by the
derived integers

    d1 = 2d / gcd(2d, 2n+2)      n1 = (2n+2) / gcd(2d, 2n+2)
    g  = gcd(2d, 2n+2) / t       w  = gcd(g, t)
    g1 = g / w                   t1 = t / w

through the case split (a, b, c, d) of the count theorem, shared by the
regimes t > 2 and t <= 2.  Case c needs w, g1 and t1 all odd, but
w^2 * g1 * t1 = gcd(2d, 2n+2) is even, so it never holds and the chain
tries a, b and d only.  The case is the first whose hypotheses hold, and
a single quadratic-residue test then decides between it and an empty
space (see :func:`_count_chain` for why this is exact); the tag of the
case (1a 1b 2 for t > 2, 3a 3b 3d for t <= 2) is reported alongside the
count so tables stay auditable.

The regime t > 2 adds one parity rule to case d (t1 even) and counts
components multiplicatively:

    w_plus(t1) * phi(w_minus(t1)) * 2^(rho(l) - 1)

with l = t1 in cases a, b and l = t1/2 in case d.  When rho(l) = 0 the
power is the exact rational 1/2; the product is provably integral under
each case's hypotheses, and this module evaluates it exactly (asserting
integrality) rather than rounding.  Defining the power as 1 instead
produces two-component verdicts inside the connectedness range (e.g.
n=3, d=12, t=4), which the corollary scan rejects.  For t <= 2 a matching
case always yields a single component.

For n in {2, 3, 4} the result depends on d only through d mod P, with
P = (2n+2)^2, so :func:`component_count` keeps it in a module-level table
keyed by (n, t, d mod P) and runs the chain once per key.  The key is
exact: big = gcd(2d, 2n+2) = 2*gcd(d, n+1) depends only on d mod (n+1),
and n1, g, w, g1, t1 and t > 2 only on big and t.  The chain reads d1
only through gcd(d1, t1), d1 mod 2 and the three residues (-d1/n1 mod
t1, -d1/n1 mod 2*t1, -d1/(4*n1) mod t1), each a function of d1 mod
2*t1; and d1 = 2d/big moves by 2*t1 when d moves by t1*big, so d1 mod
2*t1 depends only on d mod t1*big.  Both n+1 and t1*big divide P (t1
divides t, and t and big divide 2n+2).  Only t | 2n+2 is stored, so the
table holds at most 36*4 + 64*4 + 100*4 = 800 entries; any other t is
precondition-empty and is derived on every call.  Larger n goes to the
chain directly: across many n the keys hardly repeat, and a table would
grow with every query.

:func:`triples` is the (n, d, t) grid that the census and the
verification scans walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .arith import factorize, is_quadratic_residue

EMPTY_TAGS = ("4-empty", "precondition-empty")

# case tags a, b, d of the regimes t > 2 and t <= 2 (case c never holds)
_TAGS_T_ABOVE_2 = ("1a", "1b", "2")
_TAGS_T_UP_TO_2 = ("3a", "3b", "3d")


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
    """The case chain a, b, d on the derived integers.

    The count theorem's case c is left out: it needs w, g1 and t1 all
    odd, but w^2 * g1 * t1 = gcd(2d, 2n+2) is even, so it never holds.
    The case is the first of a, b, d whose hypotheses hold (none:
    4-empty); then one quadratic-residue test, of -d1/denominator mod
    modulus, decides between that case and 4-empty.  No later case could
    match once the chosen case's residue test fails, so this is the chain
    that tries a, b, d in order, each hypothesis with its residue test:

    * case a needs g1 even, and b and d need it odd;
    * for t > 2, b and d need (t1 odd, d1 odd) and t1 even, so at most
      one of them holds;
    * for t <= 2, t1 divides t, so it is 1 or 2.  Case b needs t1 odd, so
      it tests a residue mod 2, where every number is a square.
    """
    coprime_t1 = gcd(d1, t1) == 1
    # hypotheses shared by cases b and d
    coprime_odd_g1 = g1 % 2 == 1 and coprime_t1 and gcd(n1, 2 * t1) == 1

    # each case's hypotheses make its denominator a unit mod its modulus
    if g1 % 2 == 0 and coprime_t1 and gcd(n1, t1) == 1:
        case, denominator, modulus = 0, n1, t1
    elif coprime_odd_g1 and t1 % 2 == 1 and d1 % 2 == 1:
        case, denominator, modulus = 1, n1, 2 * t1
    elif coprime_odd_g1 and (not above_2 or t1 % 2 == 0):
        case, denominator, modulus = 2, n1, 2 * t1
    else:
        return _FOUR_EMPTY
    if not is_quadratic_residue(_neg_ratio(d1, denominator, modulus), modulus):
        return _FOUR_EMPTY

    if not above_2:
        return _ONE_COMPONENT[case]
    l = t1 // 2 if case == 2 else t1
    return CountResult(_halved_power_count(w, t1, l), _TAGS_T_ABOVE_2[case])


# results of component_count for n in {2, 3, 4} and t | 2n+2, by (n, t, d mod (2n+2)^2)
_COUNT_TABLE: dict[tuple[int, int, int], CountResult] = {}


def component_count(n: int, d: int, t: int) -> CountResult:
    """Number of components of the moduli space, with the matching case tag.

    For n in {2, 3, 4} the result is read from a table keyed by
    (n, t, d mod (2n+2)^2): a hit is one dict lookup, a miss derives the
    invariants, runs the chain and stores the result when t | 2n+2 (see
    the module docstring for why the key is exact).  The parameters are
    checked before the lookup, since d = 0 shares its key with d = P.
    The returned CountResult may be shared between calls.
    """
    if n < 5:
        if n < 2 or d < 1 or t < 1:
            _check_params(n, d, t)
        key = (n, t, d % (4 * (n + 1) * (n + 1)))
        result = _COUNT_TABLE.get(key)
        if result is not None:
            return result
    derived = _derive(n, d, t)
    if derived is None:
        result = _PRECONDITION_EMPTY
    else:
        d1, n1, _, w, g1, t1 = derived
        result = _count_chain(n1, w, g1, t1, d1, t > 2)
    if n < 5 and (2 * n + 2) % t == 0:
        _COUNT_TABLE[key] = result
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

