"""Per-layer metrics computed from the spans of one traced pass.

Each metric is measured on the spans of the workload's own family (the
``bench.<family>`` span) when that family calls the metric's key
function; a layer the family never reaches is measured on the probe
families instead, so every metric exists on every workload.  ``sources``
says which was used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# counters that must repeat exactly between two passes over the same inputs
EXACT_SUFFIXES = (".calls", ".per_row", ".per_witness_row", ".qr_scan_len")


@dataclass
class LayerMetrics:
    values: dict[str, float]
    sources: dict[str, str]
    calls: dict[str, int]


def layer_metrics(spans, focus: str) -> LayerMetrics:
    """All per-layer metrics except the import and overhead ones."""
    in_focus = spans.within(f"bench.{focus}")
    values: dict[str, float] = {}
    sources: dict[str, str] = {}

    def pick(key: str) -> np.ndarray:
        """The spans a metric keyed on function ``key`` is measured on."""
        if (spans.mask(key) & in_focus).any():
            return in_focus
        return ~in_focus

    def put(name: str, value, src: np.ndarray) -> None:
        values[name] = value
        sources[name] = "focus" if src is in_focus else "probe"

    def fn(name: str, *kinds: str) -> None:
        src = pick(name)
        sel = spans.mask(name) & src
        for kind in kinds:
            if kind == "calls":
                put(f"{name}.calls", int(sel.sum()), src)
            elif kind == "s":
                put(f"{name}.s", int(spans.duration[sel].sum()) / 1e9, src)
            elif kind == "self_s":
                put(f"{name}.self_s", int(spans.self_ns[sel].sum()) / 1e9, src)

    def ratio(num: int, den: int) -> float:
        if den == 0:
            raise ZeroDivisionError("a per-layer ratio has no base")
        return num / den

    fn("arith.is_quadratic_residue", "calls", "s")
    src = pick("arith.is_quadratic_residue")
    put("arith.qr_scan_len", int(spans.tag[spans.mask("arith.is_quadratic_residue") & src].sum()), src)

    fn("moduli.component_count", "calls", "s", "self_s")
    src = pick("census.census_rows")
    in_rows = spans.within("census.census_rows", src)
    rows = spans.mask("census.build_row") & src
    put(
        "moduli.component_count.per_row",
        ratio(int((spans.mask("moduli.component_count") & in_rows).sum()), int(rows.sum())),
        src,
    )

    fn("witness.build_witness", "calls", "s")
    witnesses = spans.mask("witness.build_witness") & in_rows
    # build_row calls build_witness directly once for each row that needs one
    needing = np.isin(spans.parent[witnesses], spans.id[rows])
    put(
        "witness.build_witness.per_witness_row",
        ratio(int(witnesses.sum()), int(np.unique(spans.parent[witnesses][needing]).size)),
        src,
    )
    fn("witness.verify_witness", "calls", "s")

    fn("bpf.decide", "calls", "s", "self_s")
    fn("bpf.certify_decomposition", "calls")
    src = pick("bpf.decide")
    verdicts = spans.tag[spans.mask("bpf.decide") & src]
    put("bpf.certified_ratio", ratio(int((verdicts == 2).sum()), int((verdicts >= 1).sum())), src)

    fn("lattice.pairing", "calls", "s")
    fn("lattice.divisibility_vector", "calls", "s")

    fn("oracle.divisibility_crosscheck", "s")
    src = pick("oracle.divisibility_crosscheck")
    bounds = spans.tag[spans.mask("oracle.divisibility_crosscheck") & src].tolist()
    # computed from the bounds: nonzero vectors in the box, and one int64
    # array holding every vector of the largest box
    put("oracle.vectors_scanned", sum((2 * b + 1) ** 7 - 1 for b in bounds), src)
    put("oracle.array_bytes", max((2 * b + 1) ** 7 * 7 * 8 for b in bounds), src)
    fn("oracle.enumerate_primitive_classes", "calls", "s")
    src = pick("oracle.enumerate_primitive_classes")
    hits = spans.tag[spans.mask("oracle.enumerate_primitive_classes") & src]
    put("oracle.enumerate_hit_ratio", ratio(int(hits.sum()), len(hits)), src)

    fn("census.census_rows", "s")
    fn("census.build_row", "calls")
    src = pick("census.census_rows")
    busy = int(spans.duration[spans.mask("census.build_row") & src].sum())
    wall = int(spans.duration[spans.mask("census.census_rows") & src].sum())
    put("census.build_row.busy_s", busy / 1e9, src)
    put("census.pool_overlap", ratio(busy, wall), src)
    put("census.workers", int(spans.tag[spans.mask("census.worker_count") & in_rows].max()), src)
    fn("census.rows_to_csv", "s")
    src = pick("census.rows_to_csv")
    put("census.rows_to_csv.bytes", int(spans.tag[spans.mask("census.rows_to_csv") & src].sum()), src)

    fn("cli.main", "self_s")
    calls = {k: v for k, v in spans.calls_by_function().items() if not k.startswith("bench.")}
    return LayerMetrics(values, sources, calls)
