"""Runs one workload in a fresh interpreter and prints its figures as one JSON line.

run.py starts it with PYTHONHASHSEED fixed, several times in turn per run.
One operation is one CLI call,
``quiverh1.cli.main([<cmd>, "--json", "--field", <f>, <file>])``, run in
process with stdout captured; it is timed from outside, and its exit status
and JSON report are checked against the benchmark's own expectations.

Untraced (``--trace 0``): one warm-up call per command, then whole passes over
the documents for about ``--seconds``; prints the raw times, from which
run.py makes the end-to-end metrics.

Traced (``--trace 1``): untraced and traced passes in turn for about
``--seconds``; per-layer figures are medians over the traced passes, and
``trace.overhead_s`` is the median traced pass time minus the median
untraced one.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 6  # per worker process

# The per-layer metrics of BENCHMARK.json: self times, call counts and size counters.
SELF = [
    "cli.parse", "cli.main",
    "quiver.enumerate_paths",
    "presentations.basis_B", "presentations.is_pregenerated_monomial",
    "presentations.truncated_is_pregenerated", "presentations.build_algebra",
    "presentations.check",
    "formulas.classify_and_compute", "formulas.effective_pairs", "formulas.h1_pregenerated",
    "exactalg.regular_bimodule", "exactalg.validate", "exactalg.derivation_space_dim",
    "exactalg.invariants_dim", "exactalg.bar_cohomology_dim",
    "simplicial.from_pairs", "simplicial.incidence_algebra", "simplicial.order_complex",
    "simplicial.simplicial_h_dim",
]
CALLS = [
    "quiver.enumerate_paths", "quiver.is_acyclic",
    "presentations.is_pregenerated_monomial", "presentations.slice_ideal_dims",
    "presentations.build_algebra", "presentations.check",
    "exactalg.validate", "exactalg.derivation_space_dim", "exactalg.invariants_dim",
    "exactalg.bar_cohomology_dim",
]
SIZES = [
    "presentations.build_algebra.basis_dim",
    "presentations.check.triples",
    "exactalg.derivation_space_dim.unknowns",
]


class Tally:
    """Operations attempted and failed; a wrong answer is a failure too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def record(self, doc: gen.Doc, status, stdout: str) -> None:
        self.attempted += 1
        error, wrong = check_output(doc, status, stdout)
        if error or wrong:
            self.failed += 1
            self.wrong += bool(wrong)
            if len(self.reasons) < 10:
                self.reasons.append(f"{doc.name}: {error or wrong}")


def check_output(doc: gen.Doc, status, stdout: str) -> tuple[str, str]:
    """(error, wrong answer) for one call; empty strings when it passed."""
    if status != 0:
        return f"exit status {status}", ""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not one JSON report", ""
    checks = report.get("checks", {})
    dim = report.get("dim_h1")
    if checks.get("agree") is not True or not isinstance(dim, int):
        return "", f"methods disagree: {report.get('method')}"
    if checks.get("bar_h1_matches", True) is not True:
        return "", "bar complex H1 differs from the oracle"
    if doc.dim_h1 is not None and dim != doc.dim_h1:
        return "", f"dim H1 {dim}, closed form {doc.dim_h1}"
    if doc.h1_min is not None and dim < doc.h1_min:
        return "", f"dim H1 {dim} below 1 - |Q0| + |Q1| = {doc.h1_min}"
    if doc.dim_algebra is not None:
        got = report.get("intermediates", {}).get("dim_algebra")
        if got != doc.dim_algebra:
            return "", f"dim_algebra {got}, basis path count {doc.dim_algebra}"
    return "", ""


def call(cli, doc: gen.Doc, path: Path, tracer=None):
    """One CLI call: (exit status, captured stdout, wall seconds).

    ``cli.main`` is looked up at each call, so a traced pass reaches the
    wrapped entry point.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = [doc.command, "--json", "--field", doc.field, str(path)]
    t0 = perf_counter()
    root = tracer.open("bench.doc") if tracer else None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a traceback the CLI let through is a failed call
        status = f"{type(exc).__name__}: {exc}"
    if tracer:
        tracer.close(root)
    return status, out.getvalue(), perf_counter() - t0


def one_pass(cli, docs, files, tally: Tally, tracer=None, between=None) -> list[float]:
    """Times of one call per document; ``between`` runs before each call,
    outside the timing."""
    times = []
    for doc, path in zip(docs, files):
        if between:
            between()
        gc.collect()
        if tracer:
            tracer.doc = doc.name
        status, stdout, dt = call(cli, doc, path, tracer)
        tally.record(doc, status, stdout)
        times.append(dt)
    return times


def warm_up(cli, docs, files, tally: Tally) -> None:
    """One call per command on its smallest document, outside the timing,
    so lazy imports and first-call costs are paid before the first pass."""
    smallest = {}
    for doc, path in zip(docs, files):
        if doc.command not in smallest or len(doc.text) < len(smallest[doc.command][0].text):
            smallest[doc.command] = (doc, path)
    for doc, path in smallest.values():
        status, stdout, _ = call(cli, doc, path)
        error, wrong = check_output(doc, status, stdout)
        if error or wrong:
            tally.wrong += bool(wrong)
            tally.reasons.append(f"warm-up {doc.name}: {error or wrong}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupSampler:
    """Wall time of ``import quiverh1.cli`` in fresh interpreters, one sample
    each ``interval`` seconds between documents, so that the samples spread
    over the run as the documents do.  A first interpreter, not counted,
    writes the bytecode cache, which a user pays once per installation.
    """

    CODE = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
            "import quiverh1.cli; print(time.perf_counter() - t)")

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.last = float("-inf")
        self.sample()
        self.samples.clear()

    def sample(self) -> None:
        code = self.CODE.format(src=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        self.samples.append(float(done.stdout))
        self.last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self.last >= self.interval:
            self.sample()


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """True until the run has ``seconds`` of whole passes, give or take half
    a pass: the run stops at the pass boundary nearest to ``seconds``."""
    elapsed = perf_counter() - start
    return passes == 0 or elapsed * (1 + 0.5 / passes) < seconds


def untraced(cli, docs, files, seconds: float, tally: Tally) -> dict:
    """Whole passes for about ``seconds``: the times of each document, the
    set-up samples and the peak resident set."""
    times: dict[str, list[float]] = {d.name: [] for d in docs}
    setup = SetupSampler(seconds / SETUP_SAMPLES)
    start = perf_counter()
    passes = 0
    while another_pass(start, passes, seconds):
        for doc, dt in zip(docs, one_pass(cli, docs, files, tally, between=setup)):
            times[doc.name].append(dt)
        passes += 1
    print(f"worker: {passes} passes of {len(docs)} documents, {len(setup.samples)} set-up samples",
          file=sys.stderr)
    return {"times": times, "setup_s": setup.samples, "peak_rss_mb": peak_rss_mb()}


def traced(cli, docs, files, seconds: float, tally: Tally, trace_path: Path) -> dict:
    """Untraced and traced passes in turn, at least one of each, for about
    ``seconds``."""
    tracer = spans.Tracer()
    plain_times, pass_times, self_runs, calls, counters = [], [], [], {}, {}
    start = perf_counter()
    while another_pass(start, len(pass_times), seconds):
        plain_times.append(sum(one_pass(cli, docs, files, tally)))
        tracer.install()
        try:
            first = len(tracer.spans)
            tracer.counters = {}
            pass_times.append(sum(one_pass(cli, docs, files, tally, tracer)))
        finally:
            tracer.uninstall()
        self_s, calls = tracer.self_times(first)
        self_runs.append(self_s)
        counters = tracer.counters
    for what in tracer.missing:
        print(f"trace: missing {what}, skipped", file=sys.stderr)
    roots = sum(s[2] - s[1] for s in tracer.spans[first:] if s[0] == "bench.doc")
    print(f"trace: self-times of the last pass sum to {sum(self_runs[-1].values()):.6f} s; "
          f"its documents took {roots:.6f} s inside their root spans and "
          f"{pass_times[-1]:.6f} s timed from outside", file=sys.stderr)
    names = sorted({n for run in self_runs for n in run})
    self_med = {n: statistics.median(run.get(n, 0.0) for run in self_runs) for n in names}
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)
    summary = {"untraced_pass_s": plain_times, "traced_pass_s": pass_times,
               "self_s": self_med, "calls": calls, "counters": counters, "missing": tracer.missing}
    trace_path.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    metrics = {}
    for n in SELF:
        metrics[f"{n}.self_s"] = ("s", self_med.get(n, 0.0))
    for n in CALLS:
        metrics[f"{n}.calls"] = ("count", calls.get(n, 0))
    for n in SIZES:
        metrics[n] = ("count", counters.get(n, 0))
    metrics["trace.overhead_s"] = ("s", statistics.median(pass_times) - statistics.median(plain_times))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cpu", type=int, help="run on this CPU only")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, str(ROOT / "src"))
    import quiverh1.cli

    if Path(quiverh1.cli.__file__).resolve().parent != ROOT / "src" / "quiverh1":
        print(f"worker: imported quiverh1 from {quiverh1.cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    docs = gen.WORKLOADS[args.workload](args.seed)
    work = OUT / f"docs-{args.workload}-{args.seed}"
    files = []
    work.mkdir(parents=True, exist_ok=True)
    try:
        for doc in docs:
            files.append(work / f"{doc.name}.txt")
            files[-1].write_text(doc.text)
        tally = Tally()
        warm_up(quiverh1.cli, docs, files, tally)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            metrics = traced(quiverh1.cli, docs, files, args.seconds, tally, trace_path)
            figures = {"metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}}
        else:
            figures = {"raw": untraced(quiverh1.cli, docs, files, args.seconds, tally)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"worker: FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, **figures}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
