"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-converging --seed 1 --seconds 15 --trace 0

Workloads: ``serve-converging``, ``serve-registry``, ``compile-registry``
(see ``perfbench/README.md``). With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run, and the spans are written to ``.perfbench/`` in the repository root.
Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is non-zero when any correctness check fails,
and when the program's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("serve-converging", "serve-registry", "compile-registry")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="trace seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure

    report = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, value in report.info.items():
        print(f"  {name:<36} {value}")
    for problem in report.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
