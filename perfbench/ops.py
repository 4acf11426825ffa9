"""The operations the benchmark times, run in a fresh interpreter by run.py.

    python3 perfbench/ops.py {measure,traced} --workload W --seed N \
        --seconds S --out-dir DIR

Three operation families drive the library through its public entry
points only (``cli.main`` and public functions of ``census`` and
``moduli``):

* ``census``  -- ``kummer census 2 3 4 --d-max D --format csv --out F``;
* ``count``   -- a closed loop of ``component_count(n, d, t)`` queries;
* ``verify``  -- the five verification suites.

A workload runs its own family at full size (``focus``) and the other two
at a small fixed size (``probe``), so that every end-to-end metric exists
on every workload.  Each family advances in steps (one census, one chunk
of queries, one suite, one cold start).  ``measure`` interleaves the steps
for ``--seconds``, giving each family a fixed share of the time, and
reports every time scaled to the speed of a fixed reference step timed in
the same run; ``traced`` runs one pass of every family untraced and two under the span
tracer.  Every output is checked against ``pins``.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy

import kummer_moduli
import layers
import pins
from kummer_moduli import census, cli, moduli
from tracer import Tracer

FAMILY = {"census": "census", "count_large_n": "count", "verify": "verify"}

CENSUS_D_MAX = {"full": 5000, "probe": 200}
COUNT_QUERIES = {"full": 20000, "probe": 2000}
COUNT_CHUNK = {"full": 1000, "probe": 250}  # queries per step
VERIFY_SUITES = {"full": pins.VERIFY_FULL, "probe": pins.VERIFY_PROBE}
PROBE_SEED = 7  # probe inputs are fixed, so only the focus family varies with --seed
# Share of a measured run's time each step family gets.  A shared host's
# speed can drift over seconds, so every family is stepped all through the run
# rather than in one block.  The verify probe carries five metrics, so it
# gets more time than the other probes.
FOCUS_SHARE = 0.55
PROBE_SHARE = {"census": 0.1, "count": 0.1, "verify": 0.25}
SETUP_SHARE = 0.05
REFERENCE_SHARE = 0.05
# Every reported time is scaled to the host speed at which one reference
# step takes REFERENCE_S (see Reference).
REFERENCE_S = 0.035
REFERENCE_ITERS = 100_000
KNOWN_TAGS = frozenset({"1a", "1b", "1c", "2", "3a", "3b", "3c", "3d", *moduli.EMPTY_TAGS})


class Checker:
    """Counts attempted and failed operations; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def crashed(self, what: str) -> None:
        traceback.print_exc()
        self.check(False, f"{what} raised")


def _divisors(m: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= m:
        if m % k == 0:
            small.append(k)
            if k * k != m:
                large.append(m // k)
        k += 1
    return small + large[::-1]


def count_queries(seed: int, k: int) -> list[tuple[int, int, int]]:
    """k queries (n, d, t): n log-uniform in [5, 1e5], t | 2n+2, t | 2d, d <= 1e6.

    n is drawn stratified (one draw per 1/k slice of the log range) and the
    list is then shuffled; this keeps the heavy tail of the per-query cost
    from changing much between seeds.
    """
    rng = random.Random(seed)
    lo, hi = math.log(5), math.log(10**5)
    queries = []
    for i in range(k):
        n = round(math.exp(lo + (hi - lo) * (i + rng.random()) / k))
        t = rng.choice(_divisors(2 * n + 2))
        step = t // math.gcd(t, 2)  # t | 2d, so every case predicate is evaluated
        d = step * rng.randint(1, 10**6 // step)
        queries.append((n, d, t))
    rng.shuffle(queries)
    return queries


def answers_digest(queries, answers) -> str:
    text = "".join(f"{n},{d},{t},{c},{tag}\n" for (n, d, t), (c, tag) in zip(queries, answers))
    return hashlib.sha256(text.encode()).hexdigest()


class Census:
    """``kummer census 2 3 4 --d-max D --format csv --out F``, checked by md5.

    A step is one census; a pass is one step.
    """

    def __init__(self, chk: Checker, size: str, seed: int, out_dir: Path) -> None:
        self.chk = chk
        self.d_max = CENSUS_D_MAX[size]
        self.path = out_dir / f"census-{self.d_max}.csv"
        self.seconds: list[float] = []
        self.passes = 0

    def step(self) -> None:
        argv = ["census", "2", "3", "4", "--d-max", str(self.d_max), "--format", "csv",
                "--out", str(self.path)]
        try:
            start = time.perf_counter()
            rc = cli.main(argv)
            self.seconds.append(time.perf_counter() - start)
            digest = hashlib.md5(self.path.read_bytes()).hexdigest()
            self.chk.check(rc == 0 and digest == pins.CENSUS_MD5[self.d_max],
                           f"census d<={self.d_max} md5 {digest}")
        except Exception:
            self.chk.crashed(f"census d<={self.d_max}")
        finally:
            self.path.unlink(missing_ok=True)
            self.passes += 1

    def metrics(self) -> dict:
        return {"census_s": (statistics.fmean(self.seconds), len(self.seconds), self.seconds)}


class Count:
    """A closed loop with one caller: each query starts when the previous one returned.

    A step runs the next chunk of the query list; a pass is the whole list.
    Every answer must be a count >= 0 with a known case tag, the first pass
    must match the pinned digest (where one is pinned) and later passes
    must repeat the first.
    """

    def __init__(self, chk: Checker, size: str, seed: int, out_dir: Path) -> None:
        self.chk = chk
        self.seed = seed if size == "full" else PROBE_SEED
        self.queries = count_queries(self.seed, COUNT_QUERIES[size])
        self.chunk = COUNT_CHUNK[size]
        self.latency_ns = array("q")  # every query run, in order
        self.loop_ns = 0
        self.answers: list = [None] * len(self.queries)
        self.first: list | None = None
        self.pos = 0
        self.passes = 0
        self.chunk_qps: list[float] = []

    def step(self) -> None:
        clock = time.perf_counter_ns
        lo, hi = self.pos, min(self.pos + self.chunk, len(self.queries))
        begin = clock()
        for i in range(lo, hi):
            q = self.queries[i]
            start = clock()
            try:
                r = moduli.component_count(*q)
            except Exception:
                self.latency_ns.append(clock() - start)
                self.answers[i] = None
                self.chk.crashed(f"component_count{q}")
                continue
            self.latency_ns.append(clock() - start)
            self.answers[i] = (r.count, r.case_tag)
        elapsed = clock() - begin
        self.loop_ns += elapsed
        self.chunk_qps.append((hi - lo) * 1e9 / elapsed)
        for i in range(lo, hi):
            a = self.answers[i]
            if a is not None:
                self.chk.check(
                    isinstance(a[0], int) and a[0] >= 0 and a[1] in KNOWN_TAGS
                    and (self.first is None or a == self.first[i]),
                    f"component_count{self.queries[i]} -> {a}",
                )
        self.pos = hi % len(self.queries)
        self.passes += self.pos == 0
        if self.pos == 0 and self.first is None:
            self.first = list(self.answers)
            pinned = pins.COUNT_DIGEST.get((self.seed, len(self.queries)))
            if pinned is not None:
                digest = answers_digest(self.queries, self.first) if None not in self.first else "-"
                self.chk.check(digest == pinned, f"count answers digest seed={self.seed}: {digest}")

    def metrics(self) -> dict:
        # percentiles over every query run; throughput over the whole loop time
        done = len(self.latency_ns)
        latency_ms = sorted(ns / 1e6 for ns in self.latency_ns)
        return {
            "queries_per_s": (done * 1e9 / self.loop_ns, done, self.chunk_qps),
            "query_p50_ms": (_percentile(latency_ms, 0.50), done, []),
            "query_p99_ms": (_percentile(latency_ms, 0.99), done, []),
        }


class Verify:
    """The five suites: through ``cli.main`` at full size, the suite functions at probe size.

    A step is one suite; a pass is all five.
    """

    def __init__(self, chk: Checker, size: str, seed: int, out_dir: Path) -> None:
        self.chk = chk
        self.size = size
        self.suites = VERIFY_SUITES[size]
        self.seconds: dict[str, list[float]] = {f"verify.{suite}_s": [] for suite, _ in self.suites}
        self.next = 0
        self.passes = 0

    def step(self) -> None:
        suite, bound = self.suites[self.next]
        try:
            start = time.perf_counter()
            if self.size == "full":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    args = () if suite == "divisibility" else ("--d-max", str(bound))
                    rc = cli.main(["verify", suite, *args])
                text = buf.getvalue()
            else:
                kwargs = {"coord_bound" if suite == "divisibility" else "d_max": bound}
                result = getattr(census, f"suite_{suite}")(**kwargs)
                text = "".join(f"{line}\n" for line in result.lines)
                text += f"{result.name}: {'PASS' if result.passed else 'FAIL'}\n"
                rc = 0 if result.passed else 1
            self.seconds[f"verify.{suite}_s"].append(time.perf_counter() - start)
            self.chk.check((rc, text) == pins.VERIFY[suite, bound],
                           f"verify {suite} {bound}: rc={rc}\n{text}")
        except Exception:
            self.chk.crashed(f"verify {suite} {bound}")
        self.next = (self.next + 1) % len(self.suites)
        self.passes += self.next == 0

    def metrics(self) -> dict:
        return {name: (statistics.fmean(s), len(s), s) for name, s in self.seconds.items()}


class Setup:
    """Cold start: a fresh interpreter imports the package and answers one small operation.

    A step is one cold start; a pass is one step.
    """

    def __init__(self, chk: Checker, family: str) -> None:
        self.chk = chk
        self.code, self.expected = pins.SETUP[family]
        self.seconds: list[float] = []
        self.passes = 0

    def step(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              text=True, timeout=60)
        self.seconds.append(time.perf_counter() - start)
        self.chk.check(proc.returncode == 0 and proc.stdout == self.expected,
                       f"cold start: rc={proc.returncode} {proc.stdout!r} {proc.stderr}")
        self.passes += 1

    def metrics(self) -> dict:
        return {"setup_s": (statistics.median(self.seconds), len(self.seconds), self.seconds)}


def _mix(a: int, b: int) -> int:
    return math.gcd(a, b) + a % 97


def reference_work() -> int:
    """Fixed pure-Python work that calls no library code: calls, dict traffic, int arithmetic."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1, REFERENCE_ITERS + 1):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + _mix(i, key + 1)
        acc = (acc * 31 + table[key]) % 1000003
    return acc


class Reference:
    """A fixed reference step, timed all through the run to gauge the host's speed.

    On a shared host (a VM whose cores other tenants also load) the speed can
    drift by up to a factor of two over tens of seconds, and a drift moves
    every time in a run alike.  Every
    reported time is multiplied by REFERENCE_S / (mean reference step time in
    the same run), so that runs made at different host speeds compare.  The
    reference code is the benchmark's own, so a change to the library
    cannot move it.
    """

    def __init__(self, chk: Checker) -> None:
        self.chk = chk
        self.seconds: list[float] = []
        self.passes = 0

    def step(self) -> None:
        start = time.perf_counter()
        result = reference_work()
        self.seconds.append(time.perf_counter() - start)
        self.chk.check(result == pins.REFERENCE_RESULT, f"reference step returned {result}")
        self.passes += 1

    def scale(self) -> float:
        """Factor that brings a time measured in this run to the reference speed."""
        return REFERENCE_S / statistics.fmean(self.seconds)


FAMILIES = {"census": Census, "count": Count, "verify": Verify}


def plan(chk: Checker, workload: str, seed: int, out_dir: Path) -> list:
    """The workload's own family at full size, then the other two at probe size."""
    focus = FAMILY[workload]
    return [(focus, FAMILIES[focus](chk, "full", seed, out_dir))] + [
        (name, cls(chk, "probe", seed, out_dir)) for name, cls in FAMILIES.items() if name != focus
    ]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def facts() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "census_workers": census.worker_count(),
        "KUMMER_THREADS": os.environ.get("KUMMER_THREADS"),
        "library": str(Path(kummer_moduli.__file__).parent),
    }


def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Steps of every family, interleaved by their shares, until ``seconds`` have passed.

    The next step always goes to the family furthest below its share of
    the time used so far.  After the deadline only families that have not
    finished a pass yet are stepped.  A time is the mean over the run's
    steps: a shared host can flip between two speeds every few seconds; a mean
    moves in proportion to the time spent at each, where a median jumps
    between them.  Times are then scaled to the reference speed (see
    Reference); the measured values are kept as ``raw``.
    """
    chk = Checker()
    families = plan(chk, workload, seed, out_dir)
    labels = ["focus"] + ["probe"] * (len(families) - 1)
    shares = [FOCUS_SHARE] + [PROBE_SHARE[name] for name, _ in families[1:]]
    reference = Reference(chk)
    families += [("setup", Setup(chk, FAMILY[workload])), ("reference", reference)]
    labels += ["setup", "reference"]
    shares += [SETUP_SHARE, REFERENCE_SHARE]
    used = [0.0] * len(families)
    deadline = time.perf_counter() + seconds
    while True:
        late = time.perf_counter() >= deadline
        waiting = [i for i, (_, f) in enumerate(families) if not (late and f.passes)]
        if not waiting:
            break
        i = min(waiting, key=lambda k: used[k] / shares[k])
        start = time.perf_counter()
        families[i][1].step()
        used[i] += time.perf_counter() - start
    scale = reference.scale()
    raw, values, samples, per_step, sources = {}, {}, {}, {}, {}
    for label, (_, family) in zip(labels, families):
        if family is reference:
            continue
        for name, (value, n, steps) in family.metrics().items():
            raw[name], samples[name], per_step[name], sources[name] = value, n, steps, label
            # a rate scales inversely to a time
            values[name] = value / scale if name == "queries_per_s" else value * scale
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sources["peak_rss_mb"] = "this process"
    return {
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": values,
        "raw": raw,
        "scale": scale,
        "samples": samples,
        "per_step": {**per_step, "reference_s": reference.seconds},
        "sources": sources,
        "time_share": {name: round(u, 3) for (name, _), u in zip(families, used)},
        "facts": facts(),
    }


def traced(workload: str, seed: int, out_dir: Path) -> dict:
    """One pass untraced, then two traced; per-layer metrics of the second.

    The exact counters of the two traced passes must agree, and the
    tracing overhead is the traced minus the untraced wall time.
    """
    chk = Checker()
    focus = FAMILY[workload]
    families = plan(chk, workload, seed, out_dir)

    def run_all(tracer=None) -> float:
        start = time.perf_counter()
        for name, family in families:
            with tracer.span(f"bench.{name}") if tracer else contextlib.nullcontext():
                passes = family.passes
                while family.passes == passes:
                    family.step()
        return time.perf_counter() - start

    plain_s = run_all()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = [run_all(tracer)]
        first = layers.layer_metrics(tracer.spans(), focus)
        tracer.reset()
        traced_s.append(run_all(tracer))
        spans = tracer.spans()
    finally:
        tracer.uninstall()
    second = layers.layer_metrics(spans, focus)
    for name in second.values:
        if not name.endswith(layers.EXACT_SUFFIXES):
            continue
        chk.check(
            first.values[name] == second.values[name],
            f"exact counter {name} differs between traced passes: "
            f"{first.values[name]} vs {second.values[name]}",
        )
    calls = (first.calls, second.calls)
    chk.check(calls[0] == calls[1], "call counts per function differ between traced passes")
    values = dict(second.values)
    values["trace.overhead_s"] = statistics.mean(traced_s) - plain_s
    spans.write(out_dir / f"spans-{workload}.tsv.gz")
    return {
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": values,
        "sources": second.sources,
        "calls": second.calls,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": int(len(spans.id)),
        "facts": facts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("measure", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(FAMILY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "traced":
        result = traced(args.workload, args.seed, args.out_dir)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
