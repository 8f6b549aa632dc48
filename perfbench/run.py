"""Request-level benchmark of the citation service.

Run from the repository root::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is a closed loop with one client that
calls ``CitationService.submit`` in process and renders the citation, the
way a CLI, notebook or web page waits for its answer.  There is no network
tier, so the benchmark reports throughput at a stated input size rather than
a rate sweep.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced blocks of the same stream and reports the per-layer
split of the traced blocks (see ``tracing.py``) and the tracing overhead.
Either way a seeded sample of reads is checked against a fresh, cache-free
reference (``check.py``) after the timed region; a wrong answer counts as a
failed operation and makes the command exit non-zero.

Lines starting with ``#`` are for people: every metric with its unit and
sample count, the run's stamp (CPU count, Python version, instance size,
seed, mode and format mix) and the workload's property shares.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The same record, and the spans of a traced run, are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = result.report()
    for line in report["lines"]:
        print(line)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report["record"], indent=2) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
