"""Very-ampleness bound, certification paths, and the decision procedure."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

from kummer_moduli.bpf import (
    Certificate,
    Piece,
    Verdict,
    certificate_is_valid,
    certification_threshold,
    certify_decomposition,
    decide,
    exceptional_set,
    very_ample_bound,
)
from kummer_moduli.lattice import SplitClass
from kummer_moduli.moduli import component_count, triples
from kummer_moduli.oracle import SearchBounds, enumerate_primitive_classes
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
    # a witness with c_delta = -1 is certified as the one-piece decomposition
    w = build_witness(2, 5, 2)
    cert = certify_decomposition(w)
    assert cert == Certificate("DirectVeryAmple", w.d_hat, (Piece(2, 1, 2),))

    # f = 0 < n: the bound is too weak for the minimal square
    assert certify_decomposition(build_witness(2, 1, 2)) is None
    # f = 2 < 3
    assert certify_decomposition(build_witness(3, 4, 2)) is None


def test_certify_decomposition_requires_negative_delta_coefficient():
    w = build_witness(2, 5, 2)
    for c_delta in (0, 1):
        with pytest.raises(ValueError):
            certify_decomposition(replace(w, b=c_delta))
    for d_hat in (0, -1):
        with pytest.raises(ValueError):
            certify_decomposition(replace(w, d_hat=d_hat))


def test_certify_decomposition_examples():
    assert certify_decomposition(build_witness(3, 92, 8)) is None

    cert = certify_decomposition(build_witness(3, 156, 8))
    assert cert is not None
    assert [(p.k, p.multiplicity) for p in cert.pieces] == [(4, 1), (2, 2)]
    assert {p.k: p.f_value for p in cert.pieces} == {4: 16, 2: 4}

    assert certify_decomposition(build_witness(4, 55, 10)) is None


def _partitions_desc(total, parts, max_part):
    # every descending tuple of `parts` parts >= 2 summing to `total`, in
    # descending lexicographic order
    if parts == 0:
        if total == 0:
            yield ()
        return
    for k in range(min(total, max_part), 1, -1):
        for rest in _partitions_desc(total - k, parts - 1, k):
            yield (k, *rest)


def _first_qualifying_partition(w):
    """The certificate of the first partition whose every part clears w.n."""
    for partition in _partitions_desc(w.a, -w.b, w.a):
        if all(very_ample_bound(k, w.d_hat) >= w.n for k in partition):
            pieces = tuple(
                Piece(k, partition.count(k), very_ample_bound(k, w.d_hat))
                for k in sorted(set(partition), reverse=True)
            )
            kind = "DirectVeryAmple" if len(partition) == 1 else "Decomposition"
            return Certificate(kind, w.d_hat, pieces)
    return None


@given(
    st.integers(2, 40), st.integers(1, 30), st.integers(-8, -1), st.integers(1, 40)
)
def test_certify_decomposition_matches_partition_search(n, c_L, c_delta, d_hat):
    w = SplitClass(n, c_L, c_delta, d_hat)
    assert certify_decomposition(w) == _first_qualifying_partition(w)


def test_certify_decomposition_at_the_smallest_qualifying_part():
    # k0: the smallest part whose piece clears n, found by counting up;
    # c_L puts the largest part at k0 - 1, k0 (all parts equal) or k0 + 1
    for n in range(2, 7):
        for d_hat in range(1, 7):
            k0 = next(k for k in range(2, n + 3) if very_ample_bound(k, d_hat) >= n)
            for p in range(1, 6):
                for top in (k0 - 1, k0, k0 + 1):
                    w = SplitClass(n, (p - 1) * k0 + top, -p, d_hat)
                    cert = certify_decomposition(w)
                    assert cert == _first_qualifying_partition(w)
                    if top < k0:
                        assert cert is None
                    elif p == 1:
                        assert (cert.kind, cert.pieces[0].k) == ("DirectVeryAmple", top)
                    elif top == k0:
                        assert [(q.k, q.multiplicity) for q in cert.pieces] == [(k0, p)]


def test_certify_decomposition_on_census_witnesses():
    for n, d, t in triples((2, 3, 4), 500):
        if t == 1 or component_count(n, d, t).count == 0:
            continue
        w = build_witness(n, d, t)
        cert = certify_decomposition(w)
        assert cert == _first_qualifying_partition(w)
        assert cert is None or certificate_is_valid(n, d, t, cert)


@pytest.mark.parametrize("d", [5, 30])
def test_no_searched_class_certifies_the_unknown_n4_t5_triples(d):
    # (4, 5, 5) and (4, 30, 5) are Unknown but not excluded (criterion 1);
    # no class with a negative delta coefficient in a wide box splits either
    classes = [
        c for c in enumerate_primitive_classes(4, d, 5, SearchBounds(200, 100)) if c.b < 0
    ]
    assert classes
    assert [c for c in classes if certify_decomposition(c) is not None] == []


# every non-empty residue class (n, t, r) with t >= 2, r in [1, P], P = (2n+2)^2
_NONEMPTY_RESIDUES = [
    (n, t, r)
    for n in (2, 3, 4)
    for t in range(2, 2 * n + 3)
    if (2 * n + 2) % t == 0
    for r in range(1, (2 * n + 2) ** 2 + 1)
    if component_count(n, r, t).count
]


def _certified(n, d, t):
    return certify_decomposition(build_witness(n, d, t)) is not None


# every (n, t) of the census, t | 2n+2
_CENSUS_PAIRS = [(n, t) for n in (2, 3, 4) for t in range(1, 2 * n + 3) if (2 * n + 2) % t == 0]


def test_certification_thresholds_pinned():
    assert {pair: certification_threshold(*pair) for pair in _CENSUS_PAIRS} == {
        (2, 1): 1, (2, 2): 2, (2, 3): 1, (2, 6): 1,
        (3, 1): 1, (3, 2): 5, (3, 4): 1, (3, 8): 93,
        (4, 1): 1, (4, 2): 4, (4, 5): 31, (4, 10): 56,
    }


def test_unknown_set_for_every_d():
    """The decomposition route leaves exactly 8 triples Unknown, over all d.

    This describes the proof system (the witness and its first split),
    not the paper's exclusion list, which criterion 1 measures.  Past
    certification_threshold(n, t) no d is Unknown (its docstring gives
    the monotonicity argument), so the d below it settle every d.
    """
    unknown = {
        (n, d, t)
        for n, t in _CENSUS_PAIRS
        for d in range(1, certification_threshold(n, t))
        if decide(n, d, t).status == "Unknown"
    }
    assert unknown == {
        (2, 1, 2), (3, 4, 2), (3, 28, 8), (3, 92, 8),
        (4, 3, 2), (4, 5, 5), (4, 30, 5), (4, 55, 10),
    }


@given(st.sampled_from(_CENSUS_PAIRS), st.integers(0, 10**9))
def test_decide_is_never_unknown_past_the_threshold(pair, offset):
    n, t = pair
    assert decide(n, certification_threshold(n, t) + offset, t).status != "Unknown"


def _threshold_by_walk(n, t):
    """1 + the last Unknown d, walking each class mod (2n+2)^2 through decide to its first settled d."""
    period, threshold = (2 * n + 2) ** 2, 1
    for r in range(1, period + 1):
        d = r
        while decide(n, d, t).status == "Unknown":
            threshold = max(threshold, d + 1)
            d += period
    return threshold


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certification_threshold_formula_is_the_walk_through_decide(n):
    # every t up to 2(2n+2), so the t that do not divide 2n+2 are covered too
    for t in range(1, 4 * n + 5):
        assert certification_threshold(n, t) == _threshold_by_walk(n, t), (n, t)


@pytest.mark.parametrize("n, t", [(5, 1), (1, 2), (2, 0)])
def test_certification_threshold_domain(n, t):
    with pytest.raises(ValueError):
        certification_threshold(n, t)


@given(st.sampled_from(_NONEMPTY_RESIDUES), st.integers(0, 10**6), st.integers(1, 10**6))
def test_certified_stays_certified_a_period_later(residue, j, k):
    n, t, r = residue
    period = (2 * n + 2) ** 2
    d = r + j * period
    assume(_certified(n, d, t))
    assert _certified(n, d + k * period, t)


def test_exceptional_set_contents():
    a_set = exceptional_set()
    assert len(a_set) == 7
    assert (4, 55, 10) in a_set
    assert (2, 1, 2) in a_set
    assert (2, 5, 2) not in a_set


def test_excluded_triples_are_nonempty_with_t_at_least_2():
    # decide returns the shared Empty and DivisibilityOne verdicts without
    # looking the triple up in the excluded set
    for n, d, t in exceptional_set():
        assert t >= 2 and component_count(n, d, t).count == 1


@given(st.integers(2, 10**4), st.integers(1, 10**12), st.sampled_from([1, 2]))
def test_at_most_one_component_for_t_up_to_2(n, d, t):
    # the shared DivisibilityOne verdict carries components = 1
    assert component_count(n, d, t).count <= 1


def test_decide_examples():
    v = decide(5, 7, 1)
    assert v.status == "GenericBPF"
    assert v.certificate.kind == "DivisibilityOne"
    assert v.certificate == Certificate("DivisibilityOne")

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
    assert v.certificate.pieces[0].f_value == 6


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
    (piece,) = direct.pieces
    for broken in (
        replace(direct, pieces=None),
        replace(direct, pieces=(Piece(1, 1, 0),)),
        replace(direct, pieces=(replace(piece, f_value=piece.f_value + 1),)),
        replace(direct, kind="Decomposition"),
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
    # any sound split of the witness is accepted, not only the canonical one
    for pieces in (
        (Piece(3, 2, 10), Piece(2, 1, 4)),
        (Piece(2, 1, 4), Piece(4, 1, 16), Piece(2, 1, 4)),  # unsorted
    ):
        assert certificate_is_valid(3, 156, 8, Certificate("Decomposition", 3, pieces))


def test_certificate_rejects_wrong_triple():
    cert = decide(2, 5, 2).certificate
    assert not certificate_is_valid(2, 9, 2, cert)
    # outside the witness domain (empty, t = 1, n = 5): False, not an error
    for n, d, t in ((2, 3, 3), (2, 5, 1), (5, 4, 2)):
        assert certificate_is_valid(n, d, t, cert) is False
    assert certificate_is_valid(2, 3, 3, decide(3, 156, 8).certificate) is False
    cert = decide(6, 4, 1).certificate
    assert not certificate_is_valid(2, 3, 3, cert)  # empty space


@pytest.mark.parametrize("n, d, t", [(1, 4, 1), (2, 0, 1), (2, 4, 0), (2, 0, 2), (4, -5, 10)])
def test_certificate_outside_the_parameter_range_is_false(n, d, t):
    for triple in ((6, 4, 1), (2, 5, 2), (3, 156, 8)):  # the three kinds
        cert = decide(*triple).certificate
        assert certificate_is_valid(n, d, t, cert) is False, cert.kind


def test_verdicts_pinned():
    text = "".join(
        f"{n},{d},{t},{decide(n, d, t)!r}\n" for n, d, t in triples((2, 3, 4), 500)
    )
    assert hashlib.md5(text.encode()).hexdigest() == "3abd87e56b68fa7870d8075a2808a01c"


def _fields_line(n, d, t):
    v = decide(n, d, t)
    c = v.certificate
    pieces = " ".join(f"{p.k}x{p.multiplicity}:{p.f_value}" for p in (c.pieces if c else ()))
    return (
        f"{n},{d},{t},{v.status},{c.kind if c else ''},{c.d_hat if c else ''},{pieces},"
        f"{v.in_exceptional_set},{v.components}\n"
    )


def test_verdict_fields_pinned():
    # the verdicts field by field, so the pin does not depend on the dataclass layout
    text = "".join(_fields_line(n, d, t) for n, d, t in triples((2, 3, 4), 500))
    assert hashlib.md5(text.encode()).hexdigest() == "3b325360aec1ea6795786d3dba725ac8"


def _mutations(cert):
    """Certificates that differ from ``cert`` in one claim each."""
    for kind in {"DivisibilityOne", "DirectVeryAmple", "Decomposition", "Bogus"} - {cert.kind}:
        yield replace(cert, kind=kind)
    yield replace(cert, d_hat=cert.d_hat + 1)
    yield replace(cert, pieces=None)
    yield replace(cert, pieces=())
    pieces = cert.pieces
    for i, piece in enumerate(pieces):
        for field in ("k", "multiplicity", "f_value"):
            for step in (1, -1):
                moved = replace(piece, **{field: getattr(piece, field) + step})
                yield replace(cert, pieces=(*pieces[:i], moved, *pieces[i + 1 :]))
        yield replace(cert, pieces=pieces[:i] + pieces[i + 1 :])
    yield replace(cert, pieces=(*pieces, Piece(2, 1, very_ample_bound(2, cert.d_hat))))


def test_certificate_mutations_are_rejected():
    checked = 0
    for n, d, t in triples((2, 3, 4), 300):
        v = decide(n, d, t)
        if t < 2 or v.status != "GenericBPF":
            continue
        cert = v.certificate
        assert certificate_is_valid(n, d, t, cert)
        assert not certificate_is_valid(n, d + 1, t, cert)
        for broken in _mutations(cert):
            assert certificate_is_valid(n, d, t, broken) is False, ((n, d, t), broken)
        checked += 1
    assert checked == 316


def test_divisibility_one_certificates_carry_no_data():
    plain = Certificate("DivisibilityOne")
    strays = (
        Certificate("DivisibilityOne", 1),
        Certificate("DivisibilityOne", pieces=(Piece(2, 1, 2),)),
        Certificate("DivisibilityOne", 1, (Piece(2, 1, 2),)),
    )
    checked = 0
    for n, d, t in triples((2, 3, 4), 300):
        if t != 1:
            continue
        assert certificate_is_valid(n, d, t, plain)
        for stray in strays:
            assert certificate_is_valid(n, d, t, stray) is False, ((n, d, t), stray)
        checked += 1
    assert checked == 900


def test_verdict_carries_the_component_count():
    for n, d, t in triples((2, 3, 4), 200):
        assert decide(n, d, t).components == component_count(n, d, t).count


@given(st.integers(2, 60), st.integers(1, 10**6), st.data())
def test_shared_verdicts_equal_fresh_ones(n, d, data):
    # decide returns shared constants for these verdicts; they must be
    # indistinguishable from a verdict built field by field
    t = data.draw(st.sampled_from([k for k in range(1, 2 * n + 3) if (2 * n + 2) % k == 0]))
    count = component_count(n, d, t).count
    assume(count == 0 or t == 1)
    in_a = (n, d, t) in exceptional_set()
    if count == 0:
        fresh = Verdict("Empty", None, in_a, count)
    else:
        fresh = Verdict("GenericBPF", Certificate("DivisibilityOne"), in_a, count)
    verdict = decide(n, d, t)
    assert verdict == fresh
    assert repr(verdict) == repr(fresh)


def test_verdicts_without_triple_data_are_shared():
    assert decide(2, 3, 3) is decide(3, 1, 8)  # Empty
    assert decide(2, 5, 1) is decide(9, 4, 1)  # DivisibilityOne, one component
