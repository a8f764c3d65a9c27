"""Run one workload of the AIMQ workload benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload cardb_answer --seed 1 --seconds 20 --trace 0

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  Exits 1 when a correctness check fails and 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no AIMQ sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Replace the script's own directory, so the benchmark's modules are
    # only importable as the ``perfbench`` package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        out_dir=ROOT / "perfbench" / "out",
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
