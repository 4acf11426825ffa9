"""Very-ampleness bound, certification paths, and the decision procedure."""

import pytest
from hypothesis import given, strategies as st

from kummer_moduli.bpf import (
    DIVISIBILITY_ONE_NOTE,
    certificate_is_valid,
    certify_decomposition,
    certify_direct,
    decide,
    exceptional_set,
    very_ample_bound,
)
from kummer_moduli.moduli import component_count, triples
from kummer_moduli.witness import build_witness


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
    w = build_witness(2, 5, 2)
    cert = certify_direct(2, w)
    assert cert is not None and cert.f_value == 2

    # f = 0 < n: the bound is too weak for the minimal square
    assert certify_direct(2, build_witness(2, 1, 2)) is None
    # f = 2 < 3
    assert certify_direct(3, build_witness(3, 4, 2)) is None


def test_certify_direct_requires_unit_delta_coefficient():
    w = build_witness(3, 28, 8)  # shape (8, -3)
    with pytest.raises(ValueError):
        certify_direct(3, w)


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


def test_certificate_rejects_wrong_triple():
    cert = decide(2, 5, 2).certificate
    assert not certificate_is_valid(2, 9, 2, cert)
    cert = decide(6, 4, 1).certificate
    assert not certificate_is_valid(2, 3, 3, cert)  # empty space


def test_verdict_carries_the_component_count():
    for n, d, t in triples((2, 3, 4), 200):
        assert decide(n, d, t).components == component_count(n, d, t).count
