"""Grid census over (n, d, t) and the named verification suites.

The census emits one row per triple of :func:`moduli.triples` -- n in
{2, 3, 4}, d <= d_max, t | 2n+2 -- sorted by (n, d, t), as CSV or JSON.
An n outside {2, 3, 4} or a d_max < 1 is rejected before any row is
built.  Rows are pure functions of their triple, so the table is
byte-identical across runs.

Past a start d of each n, rows are periodic, and the census stops
building them.  With P = (2n+2)^2, let start(n) be the larger of
:func:`bpf.certification_threshold` over t and 1 + the largest excluded
d for n: 2, 93 and 56 for n = 2, 3, 4.  Rows with d < start(n) + P come
from :func:`build_row`; every later row is its template, the row a whole
number of periods earlier with d in [start(n), start(n) + P), with d,
d_hat and the certificate moved along.  This is exact because:

* the count and the witness shape depend on d only through d mod P (see
  :func:`witness.build_witness`), and d_hat grows by k*P/t^2;
* the verdict of a residue class past its threshold stays certified or
  Empty (see :func:`bpf.certification_threshold`);
* no excluded d lies past start(n), so ``in_A`` and ``discrepancy`` stay
  false.

The certificate is rebuilt by ``certify_decomposition`` on the shifted
witness, so every row carries the certificate :func:`build_row` gives.

The census runs serially: its rows are pure-Python work, so threads only
contend for the interpreter lock.  :func:`write_csv` and
:func:`write_json` write each row as it is built, so a census streams in
memory that stays flat in d_max; :func:`census_rows` holds the whole
table.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .bpf import (
    Certificate,
    certification_threshold,
    certify_decomposition,
    decide,
    exceptional_set,
)
from .lattice import SplitClass
from .moduli import component_count, connectedness_report, triples
from .oracle import divisibility_crosscheck, nonemptiness_crosscheck
from .witness import build_witness, verify_witness

CSV_HEADER = "n,d,t,nonempty,components,c_L,c_delta,d_hat,verdict,certificate,in_A,discrepancy"

_FIELDS = CSV_HEADER.split(",")


class CensusRow(NamedTuple):
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
    certificate_detail: Optional[Certificate] = None


def build_row(n: int, d: int, t: int) -> CensusRow:
    verdict = decide(n, d, t)
    count, cert, in_a = verdict.components, verdict.certificate, verdict.in_exceptional_set
    if count > 0 and t >= 2:
        witness = build_witness(n, d, t)
        c_l, c_delta, d_hat = witness.a, witness.b, witness.d_hat
    else:
        c_l = c_delta = d_hat = None
    return CensusRow(
        n, d, t, count > 0, count, c_l, c_delta, d_hat, verdict.status,
        cert.kind if cert else None, in_a, verdict.status == "GenericBPF" and in_a, cert,
    )


def worker_count() -> int:
    """Census workers: always 1, since the census is serial.

    It exists only for the benchmark: ``perfbench/ops.py`` calls it for
    its machine facts and ``perfbench/layers.py`` reads its span inside
    :func:`census_rows`.
    """
    return 1


def _template_start(n: int) -> int:
    """start(n) of the module docstring: where the template period of n begins."""
    excluded = [d for m, d, _ in exceptional_set() if m == n]
    return max(
        1 + max(excluded, default=0),
        *(certification_threshold(n, t) for _, _, t in triples((n,), 1)),
    )


# n -> (start(n), P), computed once, at import
_TEMPLATE_PERIOD = {n: (_template_start(n), (2 * n + 2) ** 2) for n in (2, 3, 4)}


def _shifted_row(template: CensusRow, d: int) -> CensusRow:
    """The row at d, from the row ``template`` of the same (n, t) past start(n).

    d - template.d is a multiple of P.  The witness c_L*L + c_delta*delta
    keeps its shape, and d_hat = (d + (n+1)*c_delta^2) / t^2 grows by
    (d - template.d) / t^2; the certificate is rebuilt on that witness.
    """
    n, d0, t, nonempty, count, c_l, c_delta, d_hat, verdict, kind, in_a, discrepancy, cert = template
    if d_hat is not None:
        d_hat += (d - d0) // (t * t)
        cert = certify_decomposition(SplitClass(n, c_l, c_delta, d_hat))
    return CensusRow(
        n, d, t, nonempty, count, c_l, c_delta, d_hat, verdict, kind, in_a, discrepancy, cert
    )


def _stream_rows(n_set: Iterable[int], d_max: int) -> Iterator[CensusRow]:
    """The census rows one at a time, sorted by (n, d, t).

    The range is checked on the first ``next``, before any row is built.
    The rows with d in [start(n), start(n) + P) are kept as the templates
    of the later rows (see the module docstring).
    """
    ns = sorted(set(n_set))
    next(triples(ns, d_max), None)  # the range check
    for n in ns:
        start, period = _TEMPLATE_PERIOD[n]
        window: list[list[CensusRow]] = [[] for _ in range(period)]  # by d - start
        for triple in triples((n,), min(d_max, start + period - 1)):
            row = build_row(*triple)
            if triple[1] >= start:
                window[triple[1] - start].append(row)
            yield row
        for d in range(start + period, d_max + 1):
            for template in window[(d - start) % period]:
                yield _shifted_row(template, d)


def census_rows(n_set: Iterable[int], d_max: int) -> list[CensusRow]:
    """All census rows for the given dimensions, sorted by (n, d, t)."""
    worker_count()
    return list(_stream_rows(n_set, d_max))


def write_csv(rows: Iterable[CensusRow], handle: TextIO) -> None:
    """Write the CSV table to ``handle``: a header line, then one line per row.

    Each row is written as it is taken from ``rows``.  Booleans are
    written as ``true``/``false`` and ``None`` as an empty cell; quoting
    is the ``csv`` module's.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(
        (
            n, d, t, "true" if nonempty else "false", components, c_l, c_delta,
            d_hat, verdict, certificate, "true" if in_a else "false",
            "true" if discrepancy else "false",
        )
        for n, d, t, nonempty, components, c_l, c_delta, d_hat, verdict,
        certificate, in_a, discrepancy, _ in rows
    )


def rows_to_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV table of :func:`write_csv` as one string."""
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return buffer.getvalue()


def write_json(rows: Iterable[CensusRow], handle: TextIO) -> None:
    """Write the JSON table to ``handle``, one object per row, as it is taken.

    The text is that of ``json.dumps(objects, indent=2) + "\\n"`` over the
    whole list of row objects, keyed by the CSV header.
    """
    opening = "[\n  "
    for row in rows:
        handle.write(opening + json.dumps(dict(zip(_FIELDS, row)), indent=2).replace("\n", "\n  "))
        opening = ",\n  "
    handle.write("[]\n" if opening == "[\n  " else "\n]\n")


def rows_to_json(rows: Iterable[CensusRow]) -> str:
    """The JSON table of :func:`write_json` as one string."""
    buffer = io.StringIO()
    write_json(rows, buffer)
    return buffer.getvalue()


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
        if not verify_witness(build_witness(n, d, t), n, d, t):
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
