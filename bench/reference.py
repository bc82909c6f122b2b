"""Reference figures for the ROADMAP targets, on the benchmark's documents.

    python3 bench/reference.py --seed 1 --passes 3

Prints, from untraced calls through ``quiverh1.cli.main`` (each document's
time is its median over the passes):

* the time of each document of the F_p ladder (``gen.ladder_check_fp``)
  under ``check``;
* per workload, the time of ``formula`` against that of ``oracle`` on the
  same documents, and the documents on which the formula is the slower
  (formula-large has no oracle figure: its algebras are too large for the
  oracle);
* ``check`` over Q against ``check`` over F_10007 on the small-check-q
  quiver documents.

Every call's output is checked as in the benchmark.  Run it with
PYTHONHASHSEED=0, as run.py runs the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import statistics
import sys

import gen
import worker


def median_times(docs, files, passes: int, tally: worker.Tally, cli) -> list[float]:
    worker.warm_up(cli, docs, files, tally)
    runs = [worker.one_pass(cli, docs, files, tally) for _ in range(passes)]
    return [statistics.median(ts) for ts in zip(*runs)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(worker.ROOT / "src"))
    import quiverh1.cli as cli

    tally = worker.Tally()
    work = worker.OUT / f"reference-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    def timed(docs, **change):
        docs = [dataclasses.replace(d, **change) for d in docs]
        files = [work / f"{d.name}.txt" for d in docs]
        for d, f in zip(docs, files):
            f.write_text(d.text)
        return median_times(docs, files, args.passes, tally, cli)

    try:
        ladder = gen.ladder_check_fp(args.seed)
        print("ladder, check --field fp:10007, median s per document:")
        for doc, t in sorted(zip(ladder, timed(ladder)), key=lambda x: x[1]):
            print(f"  {doc.name:18s} d={doc.dim_algebra:<4d} {t:9.4f}")

        quivers = [d for d in gen.small_check_q(args.seed) if d.command == "check"]
        print("formula against oracle, total s over the workload's quiver documents:")
        for name, docs in (("small-check-q", quivers), ("ladder", ladder)):
            f = timed(docs, command="formula", dim_algebra=None)
            o = timed(docs, command="oracle")
            slower = [d.name for d, fi, oi in zip(docs, f, o) if fi > oi]
            print(f"  {name:16s} formula {sum(f):8.3f}  oracle {sum(o):8.3f}  "
                  f"formula/oracle {sum(f) / sum(o):.3f}; formula slower on {len(slower)} "
                  f"of {len(docs)}: {' '.join(slower)}")
        f = sum(timed(gen.formula_large(args.seed)))
        print(f"  {'formula-large':16s} formula {f:8.3f}  oracle (out of reach)")

        q = sum(timed(quivers))
        p = sum(timed(quivers, field=gen.FP_FIELD))
        print(f"small-check-q quiver documents, check: Q {q:.3f} s, F_10007 {p:.3f} s, Q/F_p {q / p:.2f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"calls {tally.attempted}, failed {tally.failed}, wrong answers {tally.wrong}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return 1 if tally.failed or tally.wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
