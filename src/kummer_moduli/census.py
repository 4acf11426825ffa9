"""Grid census over (n, d, t) and the named verification suites.

The census emits one row per triple of :func:`moduli.triples` -- n in
{2, 3, 4}, d <= d_max, t | 2n+2 -- sorted by (n, d, t), as CSV or JSON.
An n outside {2, 3, 4} or a d_max < 1 is rejected before any row is
built.  Rows are pure functions of their triple, so the table is
byte-identical across runs.

The census runs serially: its rows are pure-Python work, so threads only
contend for the interpreter lock.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bpf import Certificate, decide, exceptional_set
from .moduli import component_count, connectedness_report, triples
from .oracle import divisibility_crosscheck, nonemptiness_crosscheck
from .witness import Witness, build_witness, verify_witness

CSV_HEADER = "n,d,t,nonempty,components,c_L,c_delta,d_hat,verdict,certificate,in_A,discrepancy"

_FIELDS = CSV_HEADER.split(",")


@dataclass(frozen=True)
class CensusRow:
    n: int
    d: int
    t: int
    nonempty: bool
    components: int
    c_L: Optional[int]
    c_delta: Optional[int]
    d_hat: Optional[int]
    verdict: str
    certificate: Optional[str]
    in_A: bool
    discrepancy: bool
    certificate_detail: Optional[Certificate] = field(
        default=None, repr=False, compare=False
    )


def build_row(n: int, d: int, t: int) -> CensusRow:
    verdict = decide(n, d, t)
    count = verdict.components
    witness: Witness | None = None
    if count > 0 and t >= 2:
        witness = build_witness(n, d, t)
    cert = verdict.certificate
    return CensusRow(
        n=n,
        d=d,
        t=t,
        nonempty=count > 0,
        components=count,
        c_L=witness.shape.c_L if witness else None,
        c_delta=witness.shape.c_delta if witness else None,
        d_hat=witness.d_hat if witness else None,
        verdict=verdict.status,
        certificate=cert.kind if cert else None,
        in_A=verdict.in_exceptional_set,
        discrepancy=verdict.status == "GenericBPF" and verdict.in_exceptional_set,
        certificate_detail=cert,
    )


def worker_count() -> int:
    """Census workers: always 1, since the census is serial.

    It exists only for the benchmark: ``perfbench/ops.py`` calls it for
    its machine facts and ``perfbench/layers.py`` reads its span inside
    :func:`census_rows`.
    """
    return 1


def census_rows(n_set: Iterable[int], d_max: int) -> list[CensusRow]:
    """All census rows for the given dimensions, sorted by (n, d, t)."""
    worker_count()
    return [build_row(*triple) for triple in triples(n_set, d_max)]


def rows_to_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV table: a header line, then one line per row.

    Booleans are written as ``true``/``false`` and ``None`` as an empty
    cell; quoting is the ``csv`` module's.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(
        (
            r.n,
            r.d,
            r.t,
            "true" if r.nonempty else "false",
            r.components,
            r.c_L,
            r.c_delta,
            r.d_hat,
            r.verdict,
            r.certificate,
            "true" if r.in_A else "false",
            "true" if r.discrepancy else "false",
        )
        for r in rows
    )
    return buffer.getvalue()


def rows_to_json(rows: Iterable[CensusRow]) -> str:
    payload = [{name: getattr(row, name) for name in _FIELDS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    lines: tuple[str, ...]


def suite_divisibility(coord_bound: int = 3) -> SuiteResult:
    lines = []
    ok = True
    for n in (2, 3, 4):
        mismatches = divisibility_crosscheck(n, coord_bound)
        lines.append(
            f"n={n} coord_bound={coord_bound}: {len(mismatches)} mismatch(es)"
        )
        for coords, ideal, formula in mismatches[:20]:
            lines.append(f"  MISMATCH {coords}: ideal={ideal} formula={formula}")
        ok = ok and not mismatches
    return SuiteResult("divisibility", ok, tuple(lines))


def suite_connectedness(d_max: int = 500) -> SuiteResult:
    lines = []
    ok = True
    for n in (2, 3, 4):
        violations = connectedness_report(n, d_max)
        lines.append(f"n={n} d<={d_max}: {len(violations)} violation(s)")
        for n_, d, t, count in violations[:20]:
            lines.append(f"  VIOLATION (n={n_}, d={d}, t={t}) components={count}")
        ok = ok and not violations
    return SuiteResult("connectedness", ok, tuple(lines))


def suite_nonemptiness(d_max: int = 100) -> SuiteResult:
    lines = []
    ok = True
    for n in (2, 3, 4):
        violations = nonemptiness_crosscheck(n, d_max)
        lines.append(f"n={n} d<={d_max}: {len(violations)} violation(s)")
        for triple in violations:
            lines.append(f"  NO CLASS FOUND for (n,d,t)={triple}")
        ok = ok and not violations
    return SuiteResult("nonemptiness", ok, tuple(lines))


def suite_witnesses(d_max: int = 500) -> SuiteResult:
    lines = []
    failures = []
    checked = 0
    for n, d, t in triples((2, 3, 4), d_max):
        if t == 1 or component_count(n, d, t).count == 0:
            continue
        checked += 1
        w = build_witness(n, d, t)
        if w is None or not verify_witness(w, n, d, t):
            failures.append((n, d, t))
    lines.append(f"checked {checked} non-empty triples with t >= 2, d <= {d_max}")
    for triple in failures:
        lines.append(f"  WITNESS FAILURE at (n,d,t)={triple}")
    return SuiteResult("witnesses", not failures, tuple(lines))


def suite_exceptional(d_max: int = 500) -> SuiteResult:
    """Compare the census Unknown set against the seven excluded triples.

    The permitted deviation is a member of the excluded set that the
    search certifies anyway (reported as a discrepancy row); an Unknown
    triple outside the excluded set is always a violation.
    """
    rows = census_rows((2, 3, 4), d_max)
    expected = {triple for triple in exceptional_set() if triple[1] <= d_max}
    unknown = {(r.n, r.d, r.t) for r in rows if r.verdict == "Unknown"}
    discrepant = {(r.n, r.d, r.t) for r in rows if r.discrepancy}

    lines = [
        f"census n in {{2,3,4}}, d <= {d_max}",
        f"unknown triples: {sorted(unknown)}",
        f"expected exclusions in range: {sorted(expected)}",
    ]
    for triple in sorted(discrepant):
        lines.append(
            f"  DISCREPANCY {triple}: excluded but certified (reported, permitted)"
        )
    extra = sorted(unknown - expected)
    missing = sorted(expected - unknown - discrepant)
    for triple in extra:
        lines.append(f"  VIOLATION {triple}: Unknown but not in the excluded set")
    for triple in missing:
        lines.append(f"  VIOLATION {triple}: excluded but neither Unknown nor discrepant")
    return SuiteResult("exceptional", not extra and not missing, tuple(lines))
