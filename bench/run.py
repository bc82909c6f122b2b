"""Benchmark of the quiverh1 CLI on generated documents.

    python3 bench/run.py --workload small-check-q --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result when the
checkout holds no ``src/quiverh1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKERS = 2
TIMEOUT_S = 170


def start_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float,
                 cpu=None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(raws: list[dict]) -> tuple[dict, dict]:
    """Metrics, and each document's times, from the raw figures of the
    worker processes of one run."""
    times = {name: [t for raw in raws for t in raw["times"][name]] for name in raws[0]["times"]}
    medians = [statistics.median(ts) for ts in times.values()]
    calls = sum(len(ts) for ts in times.values())
    metrics = {
        "docs_per_s": (calls / sum(sum(ts) for ts in times.values()), "1/s"),
        "doc_p50_s": (statistics.median(medians), "s"),
        "doc_p90_s": (statistics.quantiles(medians, n=10)[8], "s"),
        "peak_rss_mb": (max(raw["peak_rss_mb"] for raw in raws), "MB"),
        "setup_s": (statistics.median(s for raw in raws for s in raw["setup_s"]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, times


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """A traced run is one worker process.  An untraced run splits its time
    over WORKERS fresh processes in turn, each held to its own CPU where
    there are enough: the speed a process gets differs between the CPUs of
    a shared machine, and a fixed placement keeps that difference the same
    from run to run instead of leaving it to the scheduler."""
    deadline = time.monotonic() + TIMEOUT_S
    if trace:
        return start_worker(workload, seed, seconds, trace, TIMEOUT_S)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    results = []
    for i in range(WORKERS):
        cpu = cpus[i] if len(cpus) >= WORKERS else None
        left = deadline - time.monotonic()
        results.append(start_worker(workload, seed, seconds / WORKERS, trace, left, cpu))
    metrics, times = end_to_end([r["raw"] for r in results])
    OUT.mkdir(exist_ok=True)
    (OUT / f"times-{workload}-{seed}.json").write_text(json.dumps(times, indent=0) + "\n")
    return {**counts(results), "metrics": metrics}


def counts(results) -> dict:
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quiverh1 CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "quiverh1" / "cli.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'quiverh1' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name}: {json.dumps(results[name])}", file=sys.stderr)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
        print(json.dumps({**counts(list(results.values())), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
