"""Command-line surface: single-triple queries, census tables, verification.

Exit codes
----------
0   success; for ``decide``, verdict GenericBPF
1   a verification suite found violations
2   invalid parameters, unknown suite, or unwritable output path
3   verdict Unknown (``decide``), or no witness shape certified (``witness``)
4   verdict Empty / empty moduli space
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .bpf import decide
from .census import (
    census_rows,
    rows_to_csv,
    rows_to_json,
    suite_connectedness,
    suite_divisibility,
    suite_exceptional,
    suite_nonemptiness,
    suite_witnesses,
)
from .moduli import component_count
from .oracle import SearchBounds
from .witness import build_witness

_SUITES = {
    "divisibility": suite_divisibility,
    "connectedness": suite_connectedness,
    "nonemptiness": suite_nonemptiness,
    "witnesses": suite_witnesses,
    "exceptional": suite_exceptional,
}


def _parse_bounds(text: str) -> SearchBounds:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--bounds expects three comma-separated integers: max_a,max_b,max_dhat_abs"
        )
    try:
        a, b, dh = (int(p) for p in parts)
        return SearchBounds(a, b, dh)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer",
        description=(
            "Component counts, witness classes, and generic base-point-freeness "
            "verdicts for polarized generalized-Kummer-type moduli spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="component count of the moduli space")
    p_count.add_argument("n", type=int)
    p_count.add_argument("d", type=int)
    p_count.add_argument("t", type=int)

    p_decide = sub.add_parser("decide", help="base-point-freeness verdict")
    p_decide.add_argument("n", type=int)
    p_decide.add_argument("d", type=int)
    p_decide.add_argument("t", type=int)
    p_decide.add_argument("--format", choices=("json",), default=None)

    p_witness = sub.add_parser("witness", help="construct a split witness class")
    p_witness.add_argument("n", type=int)
    p_witness.add_argument("d", type=int)
    p_witness.add_argument("t", type=int)
    p_witness.add_argument("--format", choices=("json",), default=None)

    p_census = sub.add_parser("census", help="emit the (n, d, t) census table")
    p_census.add_argument("n", type=int, nargs="+")
    p_census.add_argument("--d-max", type=int, required=True)
    p_census.add_argument("--format", choices=("csv", "json"), default="csv")
    p_census.add_argument("--out", default=None, help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("--d-max", type=int, default=None)
    p_verify.add_argument(
        "--bounds",
        type=_parse_bounds,
        default=None,
        help="search bounds max_a,max_b,max_dhat_abs (nonemptiness suite only)",
    )

    return parser


def _cmd_count(args: argparse.Namespace) -> int:
    result = component_count(args.n, args.d, args.t)
    print(f"components={result.count} case={result.case_tag}")
    return 0


def _certificate_summary(cert) -> str:
    if cert is None:
        return ""
    if cert.kind == "DivisibilityOne":
        return "DivisibilityOne"
    if cert.kind == "DirectVeryAmple":
        return f"DirectVeryAmple f={cert.f_value}"
    parts = "+".join(f"{p.multiplicity}x{p.k}L" for p in cert.pieces)
    return f"Decomposition {parts}"


def _cmd_decide(args: argparse.Namespace) -> int:
    verdict = decide(args.n, args.d, args.t)
    if args.format == "json":
        cert = verdict.certificate
        payload = {
            "n": args.n,
            "d": args.d,
            "t": args.t,
            "verdict": verdict.status,
            "certificate": cert.kind if cert else None,
            "in_A": verdict.in_exceptional_set,
        }
        if cert is not None and cert.f_value is not None:
            payload["f"] = cert.f_value
        print(json.dumps(payload))
    else:
        summary = _certificate_summary(verdict.certificate)
        detail = f" ({summary})" if summary else ""
        flag = "  [in excluded set]" if verdict.in_exceptional_set else ""
        print(f"{verdict.status}{detail}{flag}")
    if verdict.status == "GenericBPF":
        return 0
    if verdict.status == "Empty":
        return 4
    return 3


def _cmd_witness(args: argparse.Namespace) -> int:
    if component_count(args.n, args.d, args.t).count == 0:
        print("empty moduli space: no class to construct", file=sys.stderr)
        return 4
    witness = build_witness(args.n, args.d, args.t)
    if witness is None:
        print("no certified witness shape for this triple", file=sys.stderr)
        return 3
    if args.format == "json":
        print(
            json.dumps(
                {
                    "c_L": witness.shape.c_L,
                    "c_delta": witness.shape.c_delta,
                    "d_hat": witness.d_hat,
                }
            )
        )
    else:
        print(
            f"{witness.shape.c_L}*L + ({witness.shape.c_delta})*delta"
            f" with q(L)=2*{witness.d_hat}"
        )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    rows = census_rows(args.n, args.d_max)
    text = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.d_max is not None:
        if args.suite == "divisibility":
            raise ValueError("--d-max does not apply to the divisibility suite")
        kwargs["d_max"] = args.d_max
    if args.bounds is not None:
        if args.suite != "nonemptiness":
            raise ValueError("--bounds applies to the nonemptiness suite only")
        kwargs["bounds"] = args.bounds
    result = _SUITES[args.suite](**kwargs)
    for line in result.lines:
        print(line)
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "decide": _cmd_decide,
        "witness": _cmd_witness,
        "census": _cmd_census,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
