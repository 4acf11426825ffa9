"""Very-ampleness bound, certification paths, and the decision procedure."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from kummer_moduli.bpf import (
    DIVISIBILITY_ONE_NOTE,
    Certificate,
    Piece,
    certificate_is_valid,
    certify_decomposition,
    decide,
    exceptional_set,
    very_ample_bound,
)
from kummer_moduli.moduli import component_count, triples
from kummer_moduli.witness import WitnessShape, build_witness


def test_very_ample_bound_examples():
    assert very_ample_bound(2, 2) == 2
    assert very_ample_bound(3, 1) == 2
    assert very_ample_bound(5, 1) == 6


def test_very_ample_bound_domain():
    with pytest.raises(ValueError):
        very_ample_bound(1, 5)
    with pytest.raises(ValueError):
        very_ample_bound(3, 0)


@given(st.integers(2, 12), st.integers(1, 50))
def test_very_ample_bound_formula(m, d_hat):
    assert very_ample_bound(m, d_hat) == 2 * (m - 1) * d_hat - 2


def test_certify_direct_examples():
    # a witness with c_delta = -1 is certified as the one-piece decomposition
    w = build_witness(2, 5, 2)
    cert = certify_decomposition(2, w)
    assert cert == Certificate(kind="DirectVeryAmple", m=2, d_hat=w.d_hat, f_value=2)

    # f = 0 < n: the bound is too weak for the minimal square
    assert certify_decomposition(2, build_witness(2, 1, 2)) is None
    # f = 2 < 3
    assert certify_decomposition(3, build_witness(3, 4, 2)) is None


def test_certify_decomposition_requires_negative_delta_coefficient():
    w = build_witness(2, 5, 2)
    for c_delta in (0, 1):
        with pytest.raises(ValueError):
            certify_decomposition(2, replace(w, shape=WitnessShape(w.shape.c_L, c_delta)))


def test_certify_decomposition_examples():
    assert certify_decomposition(3, build_witness(3, 92, 8)) is None

    cert = certify_decomposition(3, build_witness(3, 156, 8))
    assert cert is not None
    assert [(p.k, p.multiplicity) for p in cert.pieces] == [(4, 1), (2, 2)]
    assert {p.k: p.f_value for p in cert.pieces} == {4: 16, 2: 4}

    assert certify_decomposition(4, build_witness(4, 55, 10)) is None


def test_exceptional_set_contents():
    a_set = exceptional_set()
    assert len(a_set) == 7
    assert (4, 55, 10) in a_set
    assert (2, 1, 2) in a_set
    assert (2, 5, 2) not in a_set


def test_decide_examples():
    v = decide(5, 7, 1)
    assert v.status == "GenericBPF"
    assert v.certificate.kind == "DivisibilityOne"
    assert v.certificate.note == DIVISIBILITY_ONE_NOTE

    v = decide(2, 1, 2)
    assert v.status == "Unknown" and v.in_exceptional_set

    v = decide(3, 92, 8)
    assert v.status == "Unknown" and v.in_exceptional_set

    v = decide(2, 3, 3)
    assert v.status == "Empty" and v.certificate is None


def test_decide_discrepant_triple():
    # member of the excluded set that the direct path certifies anyway
    v = decide(4, 20, 5)
    assert v.status == "GenericBPF"
    assert v.in_exceptional_set
    assert v.certificate.kind == "DirectVeryAmple"
    assert v.certificate.f_value == 6


def test_decide_decomposition_path():
    v = decide(3, 156, 8)
    assert v.status == "GenericBPF"
    assert v.certificate.kind == "Decomposition"


def test_decide_rejects_unsupported_dimension():
    # t >= 2 needs the witness machinery, which is only proved for n in {2,3,4}
    with pytest.raises(ValueError):
        decide(5, 4, 2)
    # ... but divisibility one is unconditional in n
    assert decide(9, 4, 1).status == "GenericBPF"


def test_certificates_reverify():
    for triple in [(2, 5, 2), (3, 156, 8), (4, 20, 5), (6, 4, 1), (2, 6, 3)]:
        v = decide(*triple)
        assert v.status == "GenericBPF"
        assert certificate_is_valid(*triple, v.certificate)


def test_certificate_rejects_broken_certificates():
    direct = decide(2, 5, 2).certificate
    assert certificate_is_valid(2, 5, 2, direct)
    for broken in (
        replace(direct, m=None),
        replace(direct, m=1),
        replace(direct, f_value=direct.f_value + 1),
        replace(direct, kind="Bogus"),
    ):
        assert not certificate_is_valid(2, 5, 2, broken)

    # (3, 156, 8): witness 8*L - 3*delta, d_hat = 3, pieces 1x4L + 2x2L
    decomposition = decide(3, 156, 8).certificate
    assert certificate_is_valid(3, 156, 8, decomposition)
    for pieces in (
        None,
        (),
        (Piece(6, 1, 28), Piece(1, 2, 0)),  # k = 1
        (Piece(4, 2, 16),),  # 2 pieces, not 3
        (Piece(4, 1, 16), Piece(2, 2, 4), Piece(3, 0, 10)),  # empty multiplicity
        (Piece(6, 1, 28), Piece(2, 3, 4), Piece(4, -1, 16)),  # negative multiplicity
    ):
        assert not certificate_is_valid(3, 156, 8, replace(decomposition, pieces=pieces))


def test_certificate_rejects_wrong_triple():
    cert = decide(2, 5, 2).certificate
    assert not certificate_is_valid(2, 9, 2, cert)
    cert = decide(6, 4, 1).certificate
    assert not certificate_is_valid(2, 3, 3, cert)  # empty space


def test_verdicts_pinned():
    text = "".join(
        f"{n},{d},{t},{decide(n, d, t)!r}\n" for n, d, t in triples((2, 3, 4), 500)
    )
    assert hashlib.md5(text.encode()).hexdigest() == "283df627978c64c67f843058117eb463"


def test_verdict_carries_the_component_count():
    for n, d, t in triples((2, 3, 4), 200):
        assert decide(n, d, t).components == component_count(n, d, t).count
