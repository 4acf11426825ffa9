"""Command-line surface: single-triple queries, census tables, verification.

``kummer census`` writes rows in batches of a fixed size, CSV and JSON
alike, so its memory stays flat in ``--d-max``.  ``--out`` is written to a
temporary file beside it, which replaces it only when the whole table
has been written, so a failed run leaves an existing file as it was.

Exit codes
----------
0   success; for ``decide``, verdict GenericBPF
1   a verification suite found violations
2   invalid parameters, unknown suite, unwritable output path, closed stdout
3   verdict Unknown (``decide`` only)
4   verdict Empty (``decide``), empty moduli space (``witness``)

``count`` reports an empty space as its answer, components=0, with exit 0.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import stat
import sys
import tempfile
from typing import Callable, Sequence, TextIO

from .bpf import decide
from .census import _FORMATS, SUITES, _write_table
from .moduli import component_count, triples
from .witness import build_witness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer",
        description=(
            "Component counts, witness classes, and generic base-point-freeness "
            "verdicts for polarized generalized-Kummer-type moduli spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, run in (
        ("count", "component count of the moduli space", _cmd_count),
        ("decide", "base-point-freeness verdict", _cmd_decide),
        ("witness", "construct a split witness class", _cmd_witness),
    ):
        p_triple = sub.add_parser(name, help=text)
        p_triple.set_defaults(run=run)
        for arg in ("n", "d", "t"):
            p_triple.add_argument(arg, type=int)
        if name != "count":
            p_triple.add_argument("--format", choices=("json",), default=None)

    p_census = sub.add_parser("census", help="emit the (n, d, t) census table")
    p_census.set_defaults(run=_cmd_census)
    p_census.add_argument("n", type=int, nargs="+")
    p_census.add_argument("--d-max", type=int, required=True)
    p_census.add_argument("--format", choices=_FORMATS, default="csv")
    p_census.add_argument("--out", default=None, help="output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--d-max", type=int, default=None)

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
        return f"DirectVeryAmple f={cert.pieces[0].f_value}"
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
        if cert is not None and cert.kind == "DirectVeryAmple":
            payload["f"] = cert.pieces[0].f_value
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
    if args.format == "json":
        print(json.dumps({"c_L": witness.a, "c_delta": witness.b, "d_hat": witness.d_hat}))
    else:
        print(f"{witness.a}*L + ({witness.b})*delta with q(L)=2*{witness.d_hat}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    # a rejected range raises here, before --out is created or truncated
    next(triples(args.n, args.d_max), None)
    if args.out is None:
        _write_table(args.n, args.d_max, args.format, sys.stdout)
        return 0
    # the output file is created before any row is built
    try:
        _replace_on_success(
            args.out, lambda handle: _write_table(args.n, args.d_max, args.format, handle)
        )
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _replace_on_success(path: str, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on a temporary file beside ``path``, then move it onto ``path``.

    If ``write`` raises, the temporary file is removed and ``path`` is
    left as it was.  The result has the mode ``open(path, "w")`` would
    give: an existing file's own mode, else 0o666 less the umask.  An
    existing ``path`` that is not a regular file (``/dev/null``, a
    directory) is opened and written directly.
    """
    target = os.path.realpath(path)
    try:
        info = os.stat(target)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(info.st_mode):
            with open(target, "w", encoding="utf-8") as handle:
                write(handle)
            return
        open(target, "a").close()  # the permission check of open(path, "w"), without truncating
        mode = stat.S_IMODE(info.st_mode)
    fd, temp = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.chmod(temp, mode)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _cmd_verify(args: argparse.Namespace) -> int:
    suite, kwargs = SUITES[args.suite], {}
    if args.d_max is not None:
        if "d_max" not in inspect.signature(suite).parameters:
            raise ValueError(f"--d-max does not apply to the {args.suite} suite")
        kwargs["d_max"] = args.d_max
    result = suite(**kwargs)
    for line in result.lines:
        print(line)
    print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; stdout goes to devnull so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
