"""Generic base-point-freeness decisions with machine-checkable certificates.

A triple (n, d, t) gets one of three certificate kinds, by two routes:

* divisibility one (t = 1): ``DivisibilityOne``, for any n >= 2;
* a decomposition of the witness c_L*L + c_delta*delta into -c_delta
  pieces k*L - delta, each n-very ample by f(k*L) = 2(k-1)*d_hat - 2 >= n:
  ``Decomposition``, or ``DirectVeryAmple`` for one piece (c_delta = -1).

``Unknown`` means "no route certifies it", never "has base points".
The seven-triple exclusion list the routes are measured against is
returned by :func:`exceptional_set`; a certified member of that list is
reported with a discrepancy flag downstream, not suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .moduli import component_count
from .witness import Witness, build_witness, verify_witness

DIVISIBILITY_ONE_NOTE = "effective L => L_n base-point-free"

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
    kind: str  # DivisibilityOne | DirectVeryAmple | Decomposition
    m: Optional[int] = None
    d_hat: Optional[int] = None
    f_value: Optional[int] = None
    pieces: Optional[tuple[Piece, ...]] = None
    note: Optional[str] = None


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


def _partitions_desc(total: int, parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # descending part tuples in descending lexicographic order, parts >= 2 each
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = min(max_part, total - 2 * (parts - 1))
    lo = -(-total // parts)  # largest part is at least the average
    for k in range(hi, max(lo, 2) - 1, -1):
        for rest in _partitions_desc(total - k, parts - 1, k):
            yield (k, *rest)


def certify_decomposition(n: int, w: Witness) -> Certificate | None:
    """First decomposition of the witness into base-point-free pieces.

    Searches every multiset of pieces k_i*L - delta with k_i >= 2,
    exactly -c_delta pieces, coefficients summing to c_L, in descending
    lexicographic order of the descending part tuple; a multiset
    qualifies when every piece passes the f-bound against n.  One piece
    gives a ``DirectVeryAmple`` certificate, several a ``Decomposition``.
    """
    if w.shape.c_delta > -1:
        raise ValueError(
            f"certification needs c_delta <= -1, got {w.shape.c_delta}"
        )
    for partition in _partitions_desc(w.shape.c_L, -w.shape.c_delta, w.shape.c_L):
        f_values = {k: very_ample_bound(k, w.d_hat) for k in partition}
        if min(f_values.values()) < n:
            continue
        if len(partition) == 1:
            (m,) = partition
            return Certificate(
                kind="DirectVeryAmple", m=m, d_hat=w.d_hat, f_value=f_values[m]
            )
        pieces = tuple(
            Piece(k, partition.count(k), f)
            for k, f in sorted(f_values.items(), reverse=True)
        )
        return Certificate(kind="Decomposition", d_hat=w.d_hat, pieces=pieces)
    return None


def decide(n: int, d: int, t: int) -> Verdict:
    """Verdict for (n, d, t): Empty, GenericBPF with certificate, or Unknown."""
    in_a = (n, d, t) in _EXCEPTIONAL_TRIPLES
    count = component_count(n, d, t).count
    if count == 0:
        return Verdict("Empty", None, in_a, count)
    if t == 1:
        return Verdict(
            "GenericBPF",
            Certificate(kind="DivisibilityOne", note=DIVISIBILITY_ONE_NOTE),
            in_a,
            count,
        )
    w = build_witness(n, d, t)
    cert = None if w is None else certify_decomposition(n, w)
    if cert is None:
        return Verdict("Unknown", None, in_a, count)
    return Verdict("GenericBPF", cert, in_a, count)


def certificate_is_valid(n: int, d: int, t: int, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch; used by the census round-trip."""
    if cert.kind == "DivisibilityOne":
        return t == 1 and component_count(n, d, t).count > 0
    if cert.kind == "DirectVeryAmple":
        pieces = None if cert.m is None else (Piece(cert.m, 1, cert.f_value),)
    elif cert.kind == "Decomposition":
        pieces = cert.pieces
    else:
        return False
    if not pieces:
        return False
    w = build_witness(n, d, t)
    if w is None or not verify_witness(w, n, d, t) or cert.d_hat != w.d_hat:
        return False
    return (
        sum(p.k * p.multiplicity for p in pieces) == w.shape.c_L
        and sum(p.multiplicity for p in pieces) == -w.shape.c_delta
        and all(p.k >= 2 and p.multiplicity >= 1 for p in pieces)
        and all(p.f_value == very_ample_bound(p.k, w.d_hat) for p in pieces)
        and all(p.f_value >= n for p in pieces)
    )
