"""Benchmark of kummer-moduli: one command, three workloads, checked outputs.

    python3 perfbench/run.py [--workload census|count_large_n|verify|all]
                             [--seed 7] [--seconds 30] [--trace 0|1]

Run it from any directory of a source checkout; the library is imported
from the ``src/`` directory next to ``perfbench/``.  The workloads, and
the metrics with their units and bounds, are declared in BENCHMARK.json:

  census         kummer census 2 3 4 --d-max 5000 (seed-independent)
  count_large_n  a closed loop of 20,000 component_count queries made from --seed
  verify         the five kummer verify suites (seed-independent)

Every workload runs in a fresh interpreter (perfbench/ops.py) that
interleaves, until --seconds have passed, its own operation at full size,
the other two operations at a small fixed size, so that every end-to-end
metric exists on every workload, cold starts of another fresh
interpreter (setup_s) and a fixed reference step; every time is reported
scaled to the host speed at which the reference step takes 35 ms, which
takes out the drift of the shared host's speed between runs (the measured
values are in the result file and the report).  ``--trace 1`` runs the traced pass
instead and reports the per-layer metrics.  The human-readable report
goes first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The full result, with
the machine facts, is written to .bench_out/result-<workload>-trace<t>.json
and the spans of a traced run to .bench_out/spans-<workload>.tsv.gz.

Exit status: 0 when every output was correct, 1 when a check failed,
2 when the library source or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("census", "count_large_n", "verify")
IMPORT_STARTS = 3
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kummer_moduli" / "__init__.py").is_file():
        raise BenchError(f"library source not found under {ROOT / 'src'}")
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def child_env() -> tuple[dict, dict]:
    """Environment for the fresh interpreters, and the thread facts it fixes.

    The census pool keeps the library default of os.cpu_count() workers,
    unless that exceeds the cores this process may run on; then
    KUMMER_THREADS is set to the available count.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("KUMMER_THREADS", None)
    cpu_count = os.cpu_count() or 1
    available = len(os.sched_getaffinity(0))
    capped = cpu_count > available
    if capped:
        env["KUMMER_THREADS"] = str(available)
    return env, {"os_cpu_count": cpu_count, "nproc": available, "threads_capped": capped}


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def worker(mode: str, workload: str, seed: int, seconds: int, env: dict) -> dict:
    proc = run_child(
        [str(HERE / "ops.py"), mode, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out-dir", str(OUT)],
        env,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"ops.py {mode} --workload {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds(env: dict) -> dict:
    """Cumulative import time of numpy and of the package, from -X importtime."""
    samples: dict[str, list[float]] = {"import.numpy_s": [], "import.kummer_moduli_s": []}
    for _ in range(IMPORT_STARTS):
        proc = run_child(["-X", "importtime", "-c", "import kummer_moduli"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import kummer_moduli failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indented name>"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("numpy", "kummer_moduli"):
                samples[f"import.{parts[2].strip()}_s"].append(int(parts[1]) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, declared: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    env, thread_facts = child_env()
    if trace:
        metric_list = declared["per_layer"]
        traced = worker("traced", workload, seed, seconds, env)
        metrics = {**traced["metrics"], **import_seconds(env)}
        attempted, failed = traced["attempted"], traced["failed"]
        notes = {name: traced["sources"].get(name, "") for name in metrics}
        notes["trace.overhead_s"] = "traced minus untraced pass"
        notes.update({k: f"median of {IMPORT_STARTS}, -X importtime" for k in metrics if k.startswith("import.")})
        extra = {k: traced[k] for k in ("sources", "calls", "untraced_s", "traced_s", "spans")}
        worker_facts = traced["facts"]
    else:
        metric_list = declared["end_to_end"]
        measured = worker("measure", workload, seed, seconds, env)
        metrics = measured["metrics"]
        attempted, failed = measured["attempted"], measured["failed"]
        notes = {
            name: f"{source}, n={measured['samples'][name]}, measured {measured['raw'][name]:.6g}"
            if name in measured["raw"] else source
            for name, source in measured["sources"].items()
        }
        extra = {k: measured[k] for k in ("raw", "scale", "samples", "per_step", "time_share")}
        worker_facts = measured["facts"]

    names = [m["name"] for m in metric_list]
    if set(metrics) != set(names):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))}"
        )
    library = Path(worker_facts["library"]).resolve()
    if library != (ROOT / "src" / "kummer_moduli").resolve():
        raise RuntimeError(f"benchmarked the library at {library}, not this checkout's")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_list},
    }
    facts = {**worker_facts, **thread_facts}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **result, "error_rate": failed / attempted, "notes": notes, "facts": facts, **extra}
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"== {workload}  seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"   facts: {json.dumps(facts)}")
    for m in metric_list:
        value = metrics[m["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {m['name']:<44} {shown:>14} {m['unit']:<6} ({notes.get(m['name'], '')})")
    if not trace:
        print(f"   times scaled by {extra['scale']:.4f} to the reference speed")
    print(f"   error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        declared = load_declaration()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), declared) for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}:{k}": v for w, r in zip(workloads, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
