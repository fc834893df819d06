"""Benchmark command: one workload, one seed, untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload numeric_fp16_zero2 --seed 0 --seconds 20 --trace 0

It prints the metrics by name and unit, one per line, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exit status is non-zero, with no JSON line, when the
library sources are missing or the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.measure import run_traced, run_untraced
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {w.why}")
    if args.trace:
        trace_path = ROOT / "perfbench" / "out" / f"trace-{w.name}-seed{args.seed}.json"
        result = run_traced(w, args.seed, args.seconds, ROOT, trace_path)
    else:
        result = run_untraced(w, args.seed, args.seconds, ROOT)
    for note in result.notes:
        print(f"  {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    error_rate = result.failed / result.attempted
    print(f"{'error_rate':32s} {error_rate:16.6g} failed/attempted "
          f"({result.failed} of {result.attempted} steps)")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
