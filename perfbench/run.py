#!/usr/bin/env python3
"""Offline benchmark for hawkmix: training, aspect read-out and recommendation.

Run from the repository root, for example:

    python3 perfbench/run.py --workload fit-planted --seed 1 --seconds 60 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller record
(environment, workload spec, checks, spans) is written under ``--out``.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS and OpenMP read these when numpy is first imported, so they are set
# before anything imports numpy: the benchmark measures one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="fit-planted or query-10k")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the development seed)")
    p.add_argument("--seconds", type=float, default=60.0,
                   help="length of the measured part of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record spans and report per-layer metrics")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for the run record and spans")
    p.add_argument("--smoke", action="store_true",
                   help="tiny version of the workload, for the benchmark's own tests")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (SRC / "hawkmix" / "__init__.py").is_file():
        print(f"error: hawkmix sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    seed = bench.DEV_SEED if args.seed is None else args.seed
    return bench.main(args.workload, seed, args.seconds, bool(args.trace),
                      Path(args.out), args.smoke, ROOT, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
