"""Span recorder for the traced run.

The tracer wraps the public functions of the library's modules from the
outside: it replaces each module-level reference to such a function by a
wrapper that records one span per call.  The library source carries no
hooks.  Spans are kept in memory, one flat int64 buffer per thread, and
analysed after the run with numpy.

A span is (id, parent, thread, function, start_ns, end_ns, tag).  The
parent is the innermost open span on the same thread; a span opened on a
thread with no open span (a census pool worker) takes as parent the
innermost open span of the thread that installed the tracer, which is the
``census_rows`` call that started the pool.  ``tag`` is a per-function
integer read from the call (see ``TAGS``), e.g. the modulus of a
quadratic-residue scan.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

PACKAGE = "kummer_moduli"
LAYERS = ("arith", "lattice", "moduli", "witness", "bpf", "oracle", "census", "cli")

_DECIDE_CODE = {"Empty": 0, "Unknown": 1, "GenericBPF": 2}

# function -> integer recorded with each successful call
TAGS = {
    "arith.is_quadratic_residue": lambda a, k, r: a[1] if len(a) > 1 else k["m"],
    "bpf.decide": lambda a, k, r: _DECIDE_CODE[r.status],
    "oracle.enumerate_primitive_classes": lambda a, k, r: int(bool(r)),
    "oracle.divisibility_crosscheck": lambda a, k, r: a[1] if len(a) > 1 else k["coord_bound"],
    "census.rows_to_csv": lambda a, k, r: len(r.encode()),
    "census.worker_count": lambda a, k, r: r,
}

FIELDS = ("id", "parent", "thread", "fn", "start_ns", "end_ns", "tag")
_ROW = len(FIELDS) - 1  # the thread column is added at analysis time
FAILED = -(2**62)


class _ThreadLog:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[int] = []
        self.rows = array("q")


class Tracer:
    """Records spans around the public functions of the library's layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._logs: dict[int, _ThreadLog] = {}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._patched: list[tuple[dict, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        ident = threading.get_ident()
        log = self._logs.get(ident)
        if log is None:
            with self._lock:
                log = self._logs.setdefault(ident, _ThreadLog(len(self._logs)))
        return log

    def _parent(self, log: _ThreadLog) -> int:
        if log.stack:
            return log.stack[-1]
        owner = self._logs.get(self._owner)
        return owner.stack[-1] if owner is not None and owner.stack else 0

    def _fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        fid, tag = self._fid(name), TAGS.get(name)
        clock, ids = time.perf_counter_ns, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            parent = self._parent(log)
            sid = next(ids)
            log.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.stack.pop()
                log.rows.extend((sid, parent, fid, start, clock(), FAILED))
                raise
            end = clock()
            log.stack.pop()
            value = tag(args, kwargs, result) if tag is not None else 0
            log.rows.extend((sid, parent, fid, start, end, value))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. one workload family."""
        fid = self.names.index(name) if name in self.names else self._fid(name)
        log = self._log()
        parent, sid = self._parent(log), next(self._ids)
        log.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            log.stack.pop()
            log.rows.extend((sid, parent, fid, start, time.perf_counter_ns(), 0))

    def install(self) -> None:
        """Replace every module-level reference to a public layer function."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        for module in modules:
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def reset(self) -> None:
        """Drop the recorded spans (function names are kept)."""
        for log in self._logs.values():
            if log.stack:
                raise RuntimeError("reset() with an open span")
            log.rows = array("q")

    # -- analysis ----------------------------------------------------------

    def spans(self) -> "Spans":
        parts = []
        for log in self._logs.values():
            rows = np.frombuffer(log.rows, dtype=np.int64).reshape(-1, _ROW)
            thread = np.full((len(rows), 1), log.index, dtype=np.int64)
            parts.append(np.hstack([rows[:, :2], thread, rows[:, 2:]]))
        table = np.vstack(parts) if parts else np.empty((0, len(FIELDS)), np.int64)
        return Spans(table[np.argsort(table[:, 0], kind="stable")], list(self.names))


class Spans:
    """All recorded spans, sorted by id, with their self time."""

    def __init__(self, table: np.ndarray, names: list[str]) -> None:
        self.table = table
        self.names = names
        (self.id, self.parent, self.thread, self.fn, self.start, self.end,
         self.tag) = table.T
        self.duration = self.end - self.start
        self.self_ns = self.duration - self._covered_by_children()

    def _covered_by_children(self) -> np.ndarray:
        """Per span, the length of its interval covered by its child spans."""
        covered = np.zeros(len(self.id), dtype=np.int64)
        has_parent = self.parent > 0
        parent_row = np.searchsorted(self.id, self.parent[has_parent])
        child_rows = np.nonzero(has_parent)[0]
        same = self.thread[child_rows] == self.thread[parent_row]
        # children on the parent's own thread run one after another
        np.add.at(covered, parent_row[same], self.duration[child_rows[same]])
        # children on other threads (pool workers) may overlap: take the union
        cross: dict[int, list[tuple[int, int]]] = {}
        for p, c in zip(parent_row[~same].tolist(), child_rows[~same].tolist()):
            cross.setdefault(p, []).append((int(self.start[c]), int(self.end[c])))
        for p, intervals in cross.items():
            intervals.sort()
            total, cur_start, cur_end = 0, intervals[0][0], intervals[0][1]
            for s, e in intervals[1:]:
                if s > cur_end:
                    total += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            covered[p] += total + cur_end - cur_start
        return covered

    def fid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.fn == self.fid(name)

    def within(self, name: str, base: np.ndarray | None = None) -> np.ndarray:
        """Spans that start inside some span of ``name`` (inclusive)."""
        rows = np.nonzero(self.mask(name) & (True if base is None else base))[0]
        if not len(rows):
            return np.zeros(len(self.id), dtype=bool)
        order = np.argsort(self.start[rows])
        starts, ends = self.start[rows][order], self.end[rows][order]
        k = np.searchsorted(starts, self.start, side="right") - 1
        inside = k >= 0
        inside[inside] = self.start[inside] <= ends[k[inside]]
        return inside

    def calls_by_function(self) -> dict[str, int]:
        counts = np.bincount(self.fn, minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, counts) if c}

    def write(self, path) -> None:
        """Write the spans as gzip'd tab-separated text with a header row."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("\t".join((*FIELDS[:-1], "self_ns", "tag")) + "\n")
            names = self.names
            for (sid, parent, thread, fn, start, end, tag), self_ns in zip(
                self.table.tolist(), self.self_ns.tolist()
            ):
                out.write(f"{sid}\t{parent}\t{thread}\t{names[fn]}\t{start}\t{end}\t{self_ns}\t{tag}\n")
