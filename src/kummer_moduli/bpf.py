"""Generic base-point-freeness decisions with machine-checkable certificates.

A triple (n, d, t) gets one of three certificate kinds, by two routes:

* divisibility one (t = 1): ``DivisibilityOne``, for any n >= 2;
* a decomposition of the witness c_L*L + c_delta*delta into -c_delta
  pieces k*L - delta, each n-very ample by f(k*L) = 2(k-1)*d_hat - 2 >= n:
  ``Decomposition``, or ``DirectVeryAmple`` for one piece (c_delta = -1).

``Unknown`` means that the witness, which every non-empty triple with
t >= 2 has, misses the f-bound in its first split; never "has base points".
For each (n, t), :func:`certification_threshold` is the d from which on
no triple is Unknown.  The seven-triple exclusion list the routes are
measured against is returned by :func:`exceptional_set`; a certified
member of that list is reported with a discrepancy flag downstream, not
suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .lattice import SplitClass
from .moduli import component_count
from .witness import build_witness, verify_witness

_EXCEPTIONAL_TRIPLES = frozenset(
    {
        (2, 1, 2),
        (3, 4, 2),
        (3, 28, 8),
        (3, 92, 8),
        (4, 3, 2),
        (4, 20, 5),
        (4, 55, 10),
    }
)


@dataclass(frozen=True)
class Piece:
    """k copies of L minus one delta, with multiplicity and its f-value."""

    k: int
    multiplicity: int
    f_value: int


@dataclass(frozen=True)
class Certificate:
    """A route's claim: ``DivisibilityOne`` (no data), or the witness's pieces.

    ``DirectVeryAmple`` is exactly one piece of multiplicity 1 and
    ``Decomposition`` several; both carry the witness's d_hat.
    """

    kind: str  # DivisibilityOne | DirectVeryAmple | Decomposition
    d_hat: Optional[int] = None
    pieces: tuple[Piece, ...] = ()


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`decide` for one triple (n, d, t).

    ``components`` is the number of moduli components that ``decide``
    computed on the way (``component_count(n, d, t).count``); it is 0
    exactly when the status is ``Empty``, so callers need not count again.
    """

    status: str  # Empty | GenericBPF | Unknown
    certificate: Optional[Certificate]
    in_exceptional_set: bool
    components: int


# the verdicts that carry no per-triple data, shared by every call
_EMPTY = Verdict("Empty", None, False, 0)
_DIVISIBILITY_ONE = Verdict("GenericBPF", Certificate("DivisibilityOne"), False, 1)


def exceptional_set() -> frozenset[tuple[int, int, int]]:
    """The seven excluded triples (n, d, t)."""
    return _EXCEPTIONAL_TRIPLES


def very_ample_bound(m: int, d_hat: int) -> int:
    """f(m*L) = 2(m-1)*d_hat - 2: the largest k with m*L k-very ample.

    Only defined for m >= 2; there is no corresponding statement for L
    itself, so m <= 1 is rejected rather than extrapolated.
    """
    if m < 2:
        raise ValueError(f"the very-ampleness bound needs m >= 2, got m={m}")
    if d_hat < 1:
        raise ValueError(f"the very-ampleness bound needs d_hat >= 1, got {d_hat}")
    return 2 * (m - 1) * d_hat - 2


def certify_decomposition(w: SplitClass) -> Certificate | None:
    """First decomposition of the witness into base-point-free pieces.

    The witness c_L*L + c_delta*delta is a ``SplitClass`` with a = c_L
    and b = c_delta.  The candidates are the multisets of p = -c_delta
    pieces k_i*L - delta with k_i >= 2 and sum k_i = c_L, in descending
    lexicographic order of the descending part tuple; one qualifies when
    every piece passes the f-bound against n = w.n.  The first qualifying one
    has a closed form:

    1. f(k*L) = 2(k-1)*d_hat - 2 is increasing in k (d_hat >= 1), so a
       piece passes iff k >= k0 = max(2, 1 + ceil((n+2) / (2*d_hat))).
    2. So a tuple qualifies iff every part is at least k0.
    3. With the other p-1 parts at least k0, the first part is at most
       top = c_L - (p-1)*k0, and equal to it only in (top, k0, ..., k0).
       That tuple is descending iff top >= k0, so it is the first one;
       if top < k0, every tuple has a part below k0 and none qualifies.

    One piece gives a ``DirectVeryAmple`` certificate, several a
    ``Decomposition``; parts of multiplicity 0 are dropped.
    """
    n, p, d_hat = w.n, -w.b, w.d_hat
    if p < 1 or d_hat < 1:
        raise ValueError(
            f"certification needs c_delta <= -1 and d_hat >= 1, got {-p} and {d_hat}"
        )
    k0 = max(2, 1 + -(-(n + 2) // (2 * d_hat)))
    top = w.a - (p - 1) * k0
    if top < k0:
        return None
    parts = ((top, 1), (k0, p - 1)) if top > k0 else ((k0, p),)
    pieces = tuple(Piece(k, mult, very_ample_bound(k, d_hat)) for k, mult in parts if mult)
    return Certificate("DirectVeryAmple" if p == 1 else "Decomposition", d_hat, pieces)


def decide(n: int, d: int, t: int) -> Verdict:
    """Verdict for (n, d, t): Empty, GenericBPF with certificate, or Unknown."""
    count = component_count(n, d, t).count
    # the shared verdicts are exact: every excluded triple is non-empty with
    # t >= 2, and a non-empty space with t <= 2 has one component
    if count == 0:
        return _EMPTY
    if t == 1:
        return _DIVISIBILITY_ONE
    cert = certify_decomposition(build_witness(n, d, t))
    status = "Unknown" if cert is None else "GenericBPF"
    return Verdict(status, cert, (n, d, t) in _EXCEPTIONAL_TRIPLES, count)


def certification_threshold(n: int, t: int) -> int:
    """The least D such that ``decide(n, d, t)`` is not Unknown for any d >= D.

    Only a non-empty triple with t >= 2 can be Unknown, and then t | 2n+2.
    Its witness (t, -c, d_hat) takes the least c that fits d mod t^2 (see
    :func:`witness.build_witness`), so c is fixed along each class of d
    mod t^2 and d_hat = (d + (n+1)*c^2) / t^2 grows by 1 per step of t^2.
    With K = t // c >= 2 (c <= t/2), :func:`certify_decomposition`
    succeeds iff top = t - (c-1)*k0 >= k0, that is k0 <= K, that is
    d_hat >= m = ceil((n+2) / (2*(K-1))).  So a certified class stays
    certified, and the last Unknown d of a class is the one with
    d_hat = m - 1: t^2*(m-1) - (n+1)*c^2, if that is at least 1.  The
    threshold is 1 + the largest of these over the classes, which are
    the values -(n+1)*c^2 mod t^2 of the c in 1..t//2 prime to t, each
    with its least c.  Defined for n in {2, 3, 4} and t >= 1.
    """
    if n not in (2, 3, 4) or t < 1:
        raise ValueError(f"thresholds are defined for n in {{2,3,4}} and t >= 1, got n={n}, t={t}")
    least_c: dict[int, int] = {}
    if (2 * n + 2) % t == 0:
        for c in range(1, t // 2 + 1):
            if gcd(c, t) == 1:
                least_c.setdefault(-(n + 1) * c * c % (t * t), c)
    last_unknown = 0
    for c in least_c.values():
        m = -(-(n + 2) // (2 * (t // c - 1)))
        last_unknown = max(last_unknown, t * t * (m - 1) - (n + 1) * c * c)
    return last_unknown + 1


def certificate_is_valid(n: int, d: int, t: int, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch; used by the census round-trip.

    A certificate checked against a triple it cannot certify is invalid:
    the answer is False, not an error.  A ``DivisibilityOne`` certificate
    needs a non-empty space with t = 1, n >= 2 and d >= 1, and carries no
    d_hat and no pieces.  Any other kind needs a triple on which
    :func:`build_witness` succeeds, the witness's d_hat, and the kind
    ``DirectVeryAmple`` iff c_delta = -1.  Its pieces may be any sound
    split of that witness, not only the one ``certify_decomposition``
    gives, in any order: each piece has k >= 2, multiplicity >= 1 and its
    f-value, which must be at least n, and the pieces sum to the witness.
    """
    if cert.kind == "DivisibilityOne":
        no_data = cert.d_hat is None and not cert.pieces
        return no_data and t == 1 and n >= 2 and d >= 1 and component_count(n, d, t).count > 0
    pieces = cert.pieces
    if not pieces:
        return False
    try:
        w = build_witness(n, d, t)
    except ValueError:
        return False
    if not verify_witness(w, n, d, t) or cert.d_hat != w.d_hat:
        return False
    return (
        cert.kind == ("DirectVeryAmple" if w.b == -1 else "Decomposition")
        and sum(p.k * p.multiplicity for p in pieces) == w.a
        and sum(p.multiplicity for p in pieces) == -w.b
        and all(p.k >= 2 and p.multiplicity >= 1 for p in pieces)
        and all(p.f_value == very_ample_bound(p.k, w.d_hat) for p in pieces)
        and all(p.f_value >= n for p in pieces)
    )
