"""Arithmetic of polarized moduli spaces of generalized-Kummer-type manifolds.

The package computes, for a dimension parameter n and polarization
invariants (d, t): non-emptiness and component counts of the moduli
space, explicit split witness classes in the reference lattice, and
certified verdicts on generic base-point-freeness, cross-checked by a
brute-force lattice oracle.

The names below are the documented API; the building blocks (the
arithmetic, the lattice, the oracle and the grid walker) stay in their
modules: ``arith``, ``lattice``, ``moduli``, ``witness``, ``bpf``,
``oracle`` and ``census``.
"""

from .bpf import Certificate, Verdict, certificate_is_valid, decide
from .census import (
    CensusRow,
    census_rows,
    rows_to_csv,
    rows_to_json,
    suite_connectedness,
    suite_divisibility,
    suite_exceptional,
    suite_nonemptiness,
    suite_witnesses,
)
from .moduli import CountResult, component_count, is_nonempty
from .witness import build_witness

__version__ = "0.1.0"

__all__ = [
    "CensusRow",
    "Certificate",
    "CountResult",
    "Verdict",
    "build_witness",
    "census_rows",
    "certificate_is_valid",
    "component_count",
    "decide",
    "is_nonempty",
    "rows_to_csv",
    "rows_to_json",
    "suite_connectedness",
    "suite_divisibility",
    "suite_exceptional",
    "suite_nonemptiness",
    "suite_witnesses",
]
