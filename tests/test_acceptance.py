"""Acceptance gate: one test per numbered criterion, run with `pytest -v`.

Each test prints a single CRITERION line (visible with -s, or in the
captured output of a failure) and enforces the stated tolerance and
runtime budget.  Criterion 1 is currently expected to fail: the d <= 500
scan finds two n=4, t=5 triples that are Unknown but not in the excluded
set; `kummer verify exceptional` reports the same defect.
"""

import math
import random
import time

from kummer_moduli.bpf import (
    certificate_is_valid,
    decide,
    exceptional_set,
    very_ample_bound,
)
from kummer_moduli.census import census_rows
from kummer_moduli.lattice import (
    SplitClass,
    bb_square,
    divisibility_split,
    divisibility_vector,
    embed,
    square_split,
)
from kummer_moduli.moduli import component_count, invariants
from kummer_moduli.oracle import divisibility_crosscheck, nonemptiness_crosscheck
from kummer_moduli.witness import build_witness, verify_witness

D_MAX = 500


def _report(number: int, passed: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"CRITERION {number}: {'PASS' if passed else 'FAIL'}{tail}")


def _divisor_triples(d_max: int):
    for n in (2, 3, 4):
        for d in range(1, d_max + 1):
            for t in range(1, 2 * n + 3):
                if (2 * n + 2) % t == 0:
                    yield n, d, t


def test_criterion_1_exceptional_set_reproduction():
    start = time.perf_counter()
    rows = census_rows((2, 3, 4), D_MAX)
    elapsed = time.perf_counter() - start
    unknown = {(r.n, r.d, r.t) for r in rows if r.verdict == "Unknown"}
    expected = {triple for triple in exceptional_set() if triple[1] <= D_MAX}
    acceptable = unknown == expected or unknown == expected - {(4, 20, 5)}
    _report(
        1,
        acceptable and elapsed < 30,
        f"unknown={sorted(unknown)} vs excluded={sorted(expected)} in {elapsed:.1f}s",
    )
    assert elapsed < 30
    assert acceptable, (
        f"spurious unknowns: {sorted(unknown - expected)}; "
        f"missing: {sorted(expected - unknown)}"
    )


def test_criterion_2_connectedness():
    start = time.perf_counter()
    bad = [
        (n, d, t, component_count(n, d, t).count)
        for n, d, t in _divisor_triples(D_MAX)
        if component_count(n, d, t).count not in (0, 1)
    ]
    elapsed = time.perf_counter() - start
    _report(2, not bad and elapsed < 5, f"{elapsed:.2f}s")
    assert elapsed < 5
    assert bad == []


def test_criterion_3_cor_proof_values():
    failures = []
    for t, expected in ((3, (2, 1, 2, 3)), (6, (1, 1, 1, 6))):
        for d in range(1, D_MAX + 1):
            result = component_count(2, d, t)
            if result.count == 0:
                continue
            inv = invariants(2, d, t)
            got = (inv.g, inv.w, inv.g1, inv.t1)
            if got != expected or result.count != 1:
                failures.append((d, t, got, result.count))
    _report(3, not failures)
    assert failures == []


def test_criterion_4_divisibility_formula():
    start = time.perf_counter()
    mismatches = {n: divisibility_crosscheck(n, 3) for n in (2, 3, 4)}
    elapsed = time.perf_counter() - start
    flat = [m for ms in mismatches.values() for m in ms]
    _report(4, not flat and elapsed < 60, f"{elapsed:.1f}s")
    assert elapsed < 60
    assert flat == []


def test_criterion_5_witness_totality():
    failures = []
    for n, d, t in _divisor_triples(D_MAX):
        if t < 2 or component_count(n, d, t).count == 0:
            continue
        w = build_witness(n, d, t)
        if not verify_witness(w, n, d, t):
            failures.append((n, d, t))
    _report(5, not failures)
    assert failures == []


def test_criterion_6_fallback_family():
    chosen = {}
    for d in range(1, D_MAX + 1):
        if component_count(3, d, 8).count == 0:
            continue
        w = build_witness(3, d, 8)
        chosen[d] = w
    fallback = sorted(d for d, w in chosen.items() if w.b == -3)
    expected_ds = [64 * k - 36 for k in range(1, 9)]
    ok = fallback == expected_ds
    for k, d in enumerate(expected_ds, start=1):
        w = chosen[d]
        ok = ok and w.a == 8 and w.d_hat == k
        ok = ok and square_split(w) == 128 * k - 72
    _report(6, ok, f"fallback at d={fallback}")
    assert fallback == expected_ds
    for k, d in enumerate(expected_ds, start=1):
        assert (chosen[d].a, chosen[d].b) == (8, -3)
        assert chosen[d].d_hat == k


def test_criterion_7_f_formula():
    spot = (
        very_ample_bound(2, 2) == 2
        and very_ample_bound(3, 1) == 2
        and very_ample_bound(5, 1) == 6
    )
    grid = all(
        very_ample_bound(t, dh) == 2 * (t - 1) * dh - 2
        for t in range(2, 13)
        for dh in range(1, 51)
    )
    _report(7, spot and grid)
    assert spot
    assert grid


def test_criterion_8_nonemptiness_necessary():
    start = time.perf_counter()
    violations = [v for n in (2, 3, 4) for v in nonemptiness_crosscheck(n, 100)]
    elapsed = time.perf_counter() - start
    _report(8, not violations and elapsed < 30, f"{elapsed:.1f}s")
    assert elapsed < 30
    assert violations == []


def test_criterion_9_property_suite():
    # closed-form vs embedded-vector agreement on the full box
    for n in (2, 3, 4):
        for a in range(-10, 11):
            for b in range(-10, 11):
                if (a, b) == (0, 0):
                    continue
                for d_hat in range(-10, 11):
                    c = SplitClass(n, a, b, d_hat)
                    v = embed(c)
                    assert bb_square(v, n) == square_split(c)
                    assert divisibility_vector(v, n) == divisibility_split(c)

    # scaling laws on seeded random vectors
    rng = random.Random(1729)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        v = tuple(rng.randint(-50, 50) for _ in range(7))
        if not any(v):
            continue
        k = rng.randint(1, 6) * rng.choice((-1, 1))
        kv = tuple(k * x for x in v)
        assert bb_square(kv, n) == k * k * bb_square(v, n)
        assert divisibility_vector(kv, n) == abs(k) * divisibility_vector(v, n)

    # certificate re-verification on sampled certified rows
    rows = census_rows((2, 3, 4), D_MAX)
    certified = [r for r in rows if r.verdict == "GenericBPF"]
    sample = random.Random(20260817).sample(certified, 100)
    bad = [
        (r.n, r.d, r.t)
        for r in sample
        if not certificate_is_valid(r.n, r.d, r.t, r.certificate_detail)
    ]
    _report(9, not bad, f"re-verified {len(sample)} certificates")
    assert bad == []


def test_verdicts_match_row_payloads():
    """Cross-check: decide() agrees with what census rows serialized."""
    rows = census_rows((2, 3, 4), 80)
    for row in rows:
        verdict = decide(row.n, row.d, row.t)
        assert verdict.status == row.verdict
        assert verdict.in_exceptional_set == row.in_A


def test_exceptional_set_is_the_seven_triples():
    assert exceptional_set() == frozenset(
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


def test_divisibility_of_primitives_divides_discriminant():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        v = tuple(rng.randint(-20, 20) for _ in range(7))
        if not any(v):
            continue
        g = math.gcd(*v)
        v = tuple(x // g for x in v)
        assert (2 * n + 2) % divisibility_vector(v, n) == 0
