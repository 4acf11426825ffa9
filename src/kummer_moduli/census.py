"""Grid census over (n, d, t) and the named verification suites.

The census emits one row per triple of :func:`moduli.triples` -- n in
{2, 3, 4}, d <= d_max, t | 2n+2 -- sorted by (n, d, t), as CSV or JSON.
An n outside {2, 3, 4} or a d_max < 1 is rejected before any row is
built.  Rows are pure functions of their triple, so the table is
byte-identical across runs.

Past a finite prefix of each n, rows are periodic.  With P = (2n+2)^2,
the prefix ends at ``_prefix(n)`` = D + P - 1, where D is the
largest of 1 + the last excluded d of n and the
:func:`bpf.certification_threshold` of each t | 2n+2: 37, 156 and 155 for
n = 2, 3, 4.  Every row at d > _prefix(n) is the row at d - P with d and
d_hat (grown by P/t^2) moved along, because from D on:

* no d of n is excluded, so ``in_A`` and ``discrepancy`` are false;
* no d of n is Unknown, since a certified class stays certified (see
  :func:`bpf.certification_threshold`);
* the count and the witness shape depend on d only through d mod P (see
  :func:`witness.build_witness`).

The first certified d of each class mod t^2 is at most t^2 - 1 + the
threshold <= _prefix(n), as t^2 <= P, so ``decide`` is still asked at it.  The CLI's
writers and :func:`suite_exceptional` both take their rows from
:func:`census_rows` up to min(d_max, _prefix(n)) only; the writers shift
the text of the last period of the prefix to every later period, as one
block of text per period, and at d_max = 5000 build 1,392 of their
60,000 rows.  Called with a larger d_max, :func:`census_rows` is the
plain reference: it builds every row, each with the certificate
:func:`build_row` gives, and the text of :func:`rows_to_csv` /
:func:`rows_to_json` over it is what the writers must match.

The census runs serially: its rows are pure-Python work, so threads only
contend for the interpreter lock.  The writers, :func:`rows_to_csv`,
:func:`rows_to_json` and the CLI's, share one table of formats.  The
CLI's writer writes the built prefix of one n (at most 624 rows) or one
period block (at most P <= 100 values of d, 400 rows) at a time, so a
census streams in memory that stays flat in d_max; :func:`census_rows`
and :func:`rows_to_csv` / :func:`rows_to_json` hold the whole table.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, itemgetter, mul
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .bpf import Certificate, certification_threshold, decide, exceptional_set
from .moduli import component_count, triples
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
    # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
    return tuple.__new__(CensusRow, (
        n, d, t, count > 0, count, c_l, c_delta, d_hat, verdict.status,
        cert.kind if cert else None, in_a, verdict.status == "GenericBPF" and in_a, cert,
    ))


def worker_count() -> int:
    """Census workers: always 1, since the census is serial.

    It exists only for the benchmark: ``perfbench/ops.py`` calls it for
    its machine facts and ``perfbench/layers.py`` reads its span inside
    :func:`census_rows`, which runs once per n of a CLI census.
    """
    return 1


def _prefix(n: int) -> int:
    """The last d of n whose census rows are built; later rows are shifted (see the module)."""
    last_excluded = max((d for m, d, _ in exceptional_set() if m == n), default=0)
    start = max(1 + last_excluded, *(certification_threshold(n, t) for _, _, t in triples((n,), 1)))
    return start + (2 * n + 2) ** 2 - 1


def _periodic(n_set: Iterable[int], d_max: int, fmt: str) -> Iterator[str]:
    """The census text in ``fmt``, sorted by (n, d, t), as pieces of whole rows.

    Each piece is a run of rows joined by the format's row separator.
    The rows of d <= min(d_max, ``_prefix(n)``) come from
    :func:`census_rows` and are rendered as one piece per n.  Each row of
    the last period of the prefix with d + P <= d_max keeps its
    :func:`_text_template`, and every later period is one piece (see
    :func:`_period_blocks`); the module docstring proves this exact.  The
    range is checked on the first ``next``, before any row is built.
    """
    render, sep, _, row_sep = _FORMATS[fmt][:4]
    ns = sorted(set(n_set))
    next(triples(ns, d_max), None)  # the range check
    for n in ns:
        period, prefix = (2 * n + 2) ** 2, _prefix(n)
        texts, templates = [], []
        for row in census_rows((n,), min(d_max, prefix)):
            texts.append(render(row))
            if prefix - period < row.d <= d_max - period:
                templates.append(_text_template(row, texts[-1], sep))
        yield row_sep.join(texts)
        if templates:
            yield from _period_blocks(templates, period, row_sep, d_max - prefix)


def census_rows(n_set: Iterable[int], d_max: int) -> list[CensusRow]:
    """All census rows for the given dimensions, sorted by (n, d, t), each with its certificate.

    Every row is built by :func:`build_row`.  The CLI's writers and
    :func:`suite_exceptional` call it for the prefix of each n; over a
    longer range it is the reference the writers' periodic text is
    checked against.
    """
    worker_count()
    return [build_row(*triple) for triple in triples(n_set, d_max)]


# writerow returns what its file's write returns, and str(line) is line
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_line(row: CensusRow) -> str:
    """The CSV line of a row, written as :func:`rows_to_csv` describes."""
    (n, d, t, nonempty, components, c_l, c_delta, d_hat, verdict, certificate, in_a,
     discrepancy, _) = row
    return _CSV_LINE((
        n, d, t, "true" if nonempty else "false", components, c_l, c_delta, d_hat, verdict,
        certificate, "true" if in_a else "false", "true" if discrepancy else "false",
    ))


# encodes the members of a row object as json.dumps(table, indent=2) places them; with
# no indent, the encoder is the C one
_JSON_MEMBERS = json.JSONEncoder(separators=(",\n    ", ": ")).encode


def _json_object(row: CensusRow) -> str:
    """The JSON object of a row, keyed by the CSV header, as it stands in the table."""
    return "{\n    " + _JSON_MEMBERS(dict(zip(_FIELDS, row)))[1:-1] + "\n  }"


def _text_template(row: CensusRow, text: str, sep: str) -> tuple:
    """The text of a row cut around its d and d_hat, for :func:`_period_blocks`.

    Returns (texts, d, d_hat, inc): the literal texts between which the
    values of d and, in a witness row, of d_hat stand, and the growth of
    d_hat per period, P/t^2.  ``text`` splits at ``sep`` into the cells of
    the row: the CSV cells, or the JSON members.  Cells 1 and 7 end in
    the values of d and d_hat, which are ints and so never quoted.  In a
    row with no witness d_hat is empty or null and does not move.
    """
    cells = text.split(sep, 8)
    head = cells[0] + sep + cells[1][: -len(str(row.d))]
    if row.d_hat is None:
        return (head, sep + sep.join(cells[2:])), row.d, None, None
    mid = sep + sep.join(cells[2:7]) + sep + cells[7][: -len(str(row.d_hat))]
    inc = (2 * row.n + 2) ** 2 // (row.t * row.t)
    return (head, mid, sep + cells[8]), row.d, row.d_hat, inc


def _period_blocks(templates: list[tuple], period: int, row_sep: str, count: int) -> Iterator[str]:
    """The text of the ``count`` d after the templates' period, one piece per period.

    ``templates`` are the :func:`_text_template` of the rows of the first
    min(P, count) d of one period, d = first, first + 1, ..., sorted by
    (d, t).  Period m >= 1 holds the same rows at d + m*P with
    d_hat + m*P/t^2, so its text is one list, built here once, in which
    the literal texts of the templates, with ``row_sep`` between rows,
    alternate with slots for the values.  Per period, ``str`` runs once
    per d and once per witness row's d_hat, and one ``itemgetter`` picks
    the literals and values in text order for one join.  The last period,
    cut short by ``count``, is the same list cut after the last row of
    its last d.
    """
    first, span = templates[0][1], min(period, count)
    base = [d_hat for _, _, d_hat, _ in templates if d_hat is not None]
    inc = [step for _, _, d_hat, step in templates if d_hat is not None]
    # a period's pool: its span values of d, then its witness rows' d_hat, then the
    # literals, of which the first is the row separator
    literals, order = [row_sep], []
    ends = [0] * span  # ends[r]: the length of ``order`` through the rows of d = first + r
    witness, offset = span, span + len(base)
    for texts, d, d_hat, _ in templates:
        at = offset + len(literals)
        if order:
            order.append(offset)
        if d_hat is None:
            order += at, d - first, at + 1
        else:
            order += at, d - first, at + 1, witness, at + 2
            witness += 1
        literals += texts
        ends[d - first] = len(order)
    whole, rest = divmod(count, period)
    getters = repeat(itemgetter(*order), whole)
    if rest:
        getters = chain(getters, (itemgetter(*order[: ends[rest - 1]]),))
    for m, pick in enumerate(getters, 1):
        ds = map(str, range(first + m * period, first + m * period + span))
        d_hats = map(str, map(add, base, map(mul, inc, repeat(m))))
        yield "".join(pick([*ds, *d_hats, *literals]))


def _write(pieces: Iterable[str], fmt: str, handle: TextIO) -> None:
    """Write the table of the :func:`_periodic` ``pieces`` in ``fmt`` to ``handle``.

    Each piece is one write; every piece but the first follows the
    format's row separator.
    """
    _, _, opening, sep, closing, empty = _FORMATS[fmt]
    pieces = iter(pieces)
    piece = next(pieces, None)
    if piece is None:
        handle.write(empty)
        return
    handle.write(opening + piece)
    for piece in pieces:
        handle.write(sep + piece)
    handle.write(closing)


def _table(texts: list[str], fmt: str) -> str:
    """The table in ``fmt`` of the row ``texts``."""
    _, _, opening, sep, closing, empty = _FORMATS[fmt]
    return opening + sep.join(texts) + closing if texts else empty


def rows_to_csv(rows: Iterable[CensusRow]) -> str:
    """The CSV table of ``rows``: a header line, then one line per row.

    Booleans are written as ``true``/``false`` and ``None`` as an empty
    cell; quoting is the ``csv`` module's.
    """
    return _table(list(map(_csv_line, rows)), "csv")


def rows_to_json(rows: Iterable[CensusRow]) -> str:
    """The JSON table of ``rows``, one object per row, keyed by the CSV header.

    The text is that of ``json.dumps(objects, indent=2) + "\\n"`` over the
    whole list of row objects.
    """
    return _table(list(map(_json_object, rows)), "json")


# format -> (the text of a row, the separator of its cells,
#            the table's opening, the separator of its rows, its closing, the empty table)
_FORMATS = {
    "csv": (_csv_line, ",", CSV_HEADER + "\n", "", "", CSV_HEADER + "\n"),
    "json": (_json_object, ",\n", "[\n  ", ",\n  ", "\n]\n", "[]\n"),
}


def _write_table(n_set: Iterable[int], d_max: int, fmt: str, handle: TextIO) -> None:
    """Write the census table of ``census_rows(n_set, d_max)`` to ``handle`` as ``fmt``.

    The text is that of :func:`rows_to_csv` or :func:`rows_to_json` over
    those rows.  A built row is rendered as there; every later row is its
    template's text with d and d_hat moved along, so no certificate is
    rebuilt: neither format prints one.  Each write is the built prefix
    of one n or one period of later rows.
    """
    _write(_periodic(n_set, d_max, fmt), fmt, handle)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    lines: tuple[str, ...]


def suite_divisibility(coord_bound: int = 3) -> SuiteResult:
    lines, ok = [], True
    for n in (2, 3, 4):
        mismatches = divisibility_crosscheck(n, coord_bound)
        lines.append(f"n={n} coord_bound={coord_bound}: {len(mismatches)} mismatch(es)")
        lines += (f"  MISMATCH {coords}: ideal={ideal} formula={formula}"
                  for coords, ideal, formula in mismatches[:20])
        ok = ok and not mismatches
    return SuiteResult("divisibility", ok, tuple(lines))


def suite_connectedness(d_max: int = 500) -> SuiteResult:
    """Every space with n in {2, 3, 4}, d <= d_max and t | 2n+2 has at most one component.

    A t that does not divide 2n+2 never divides gcd(2d, 2n+2), so its
    space is precondition-empty and needs no check.  For n in {2, 3, 4} the
    count is the table entry keyed by (n, t, d mod P), and that key is
    exact (see the :mod:`moduli` docstring), so the walk reads
    ``component_count(n, r, t)`` once per (n, r, t) of ``triples((n,),
    min(P, d_max))``, one per class of d mod P, and a PASS holds for every
    d.  A count outside {0, 1} is a violation at each d <= d_max of its
    class; each n reports how many, and the first 20 by (d, t).
    """
    total = dict.fromkeys((2, 3, 4), 0)
    first: dict[int, list] = {n: [] for n in total}
    for n in total:
        period = (2 * n + 2) ** 2
        for _, r, t in triples((n,), min(period, d_max)):
            count = component_count(n, r, t).count
            if count not in (0, 1):
                ds = range(r, d_max + 1, period)
                total[n] += len(ds)
                first[n] += ((d, t, count) for d in ds[:20])
    lines = []
    for n, found in total.items():
        lines.append(f"n={n} d<={d_max}: {found} violation(s)")
        lines += (f"  VIOLATION (n={n}, d={d}, t={t}) components={count}"
                  for d, t, count in sorted(first[n])[:20])
    return SuiteResult("connectedness", not any(total.values()), tuple(lines))


def suite_nonemptiness(d_max: int = 100) -> SuiteResult:
    lines, ok = [], True
    for n in (2, 3, 4):
        violations = nonemptiness_crosscheck(n, d_max)
        lines.append(f"n={n} d<={d_max}: {len(violations)} violation(s)")
        lines += (f"  NO CLASS FOUND for (n,d,t)={triple}" for triple in violations)
        ok = ok and not violations
    return SuiteResult("nonemptiness", ok, tuple(lines))


def suite_witnesses(d_max: int = 500) -> SuiteResult:
    """The witness of every non-empty triple with t >= 2 and d <= d_max verifies.

    The walk reads ``component_count(n, r, t)`` once per (n, r, t) of
    ``triples((n,), min(P, d_max))`` with t >= 2, one per class of d mod P;
    this selects exactly the non-empty triples, since the count's key is
    exact (see :func:`suite_connectedness`).  A non-empty class has its
    witness built and verified once, at d = r, and that answer holds for
    each of the ``len(range(r, d_max + 1, P))`` d of the class, so a PASS
    holds for every d.  Along d = r + k*P:

    * :func:`build_witness` picks its least c from d mod t^2, and t^2 | P,
      so the witness is (t, -c, d_hat + k*P/t^2);
    * n, a, b and gcd(a, b) do not move, and d_hat >= 1 stays true as
      d_hat grows;
    * ``square_split`` and the embedded vector's square are 2d by
      construction;
    * ``divisibility_split`` is gcd(a, (2n+2)*b), and the embedded vector's
      gcd is gcd(a, a*d_hat, (2n+2)*b), the same; neither reads d_hat.

    A class that fails is a failure at each of its d; failures are
    reported sorted by (n, d, t), since the walk visits d out of order.
    """
    failures, checked = [], 0
    for n in (2, 3, 4):
        period = (2 * n + 2) ** 2
        for _, r, t in triples((n,), min(period, d_max)):
            if t == 1 or component_count(n, r, t).count == 0:
                continue
            ds = range(r, d_max + 1, period)
            checked += len(ds)
            if not verify_witness(build_witness(n, r, t), n, r, t):
                failures += ((n, d, t) for d in ds)
    lines = [f"checked {checked} non-empty triples with t >= 2, d <= {d_max}"]
    lines += (f"  WITNESS FAILURE at (n,d,t)={triple}" for triple in sorted(failures))
    return SuiteResult("witnesses", not failures, tuple(lines))


def suite_exceptional(d_max: int = 500) -> SuiteResult:
    """Compare the census Unknown set against the seven excluded triples.

    The permitted deviation is a member of the excluded set that the
    search certifies anyway (reported as a discrepancy row); an Unknown
    triple outside the excluded set is always a violation.

    The suite reads the rows the CLI census builds, ``census_rows((n,),
    min(d_max, _prefix(n)))`` for each n, and its verdict holds for every
    d: no row past ``_prefix(n)`` is Unknown, has ``in_A`` or has
    ``discrepancy`` (see the module docstring).
    """
    rows = [row for n in (2, 3, 4) for row in census_rows((n,), min(d_max, _prefix(n)))]
    expected = {triple for triple in exceptional_set() if triple[1] <= d_max}
    unknown = {(r.n, r.d, r.t) for r in rows if r.verdict == "Unknown"}
    discrepant = {(r.n, r.d, r.t) for r in rows if r.discrepancy}

    lines = [
        f"census n in {{2,3,4}}, d <= {d_max}",
        f"unknown triples: {sorted(unknown)}",
        f"expected exclusions in range: {sorted(expected)}",
    ]
    lines += (f"  DISCREPANCY {triple}: excluded but certified (reported, permitted)"
              for triple in sorted(discrepant))
    extra = sorted(unknown - expected)
    missing = sorted(expected - unknown - discrepant)
    lines += (f"  VIOLATION {triple}: Unknown but not in the excluded set" for triple in extra)
    lines += (f"  VIOLATION {triple}: excluded but neither Unknown nor discrepant"
              for triple in missing)
    return SuiteResult("exceptional", not extra and not missing, tuple(lines))


# name -> suite: ``kummer verify <name>`` runs ``SUITES[name]``, with ``--d-max`` if it takes d_max
SUITES = {
    "divisibility": suite_divisibility,
    "connectedness": suite_connectedness,
    "nonemptiness": suite_nonemptiness,
    "witnesses": suite_witnesses,
    "exceptional": suite_exceptional,
}
