#!/usr/bin/env python3
"""Placement benchmark for `macroplace`.

    python3 perfbench/run.py --workload rollout-fd-M --seed 0 --seconds 10 --trace 0

Run from the repository root. With `--trace 0` it prints the end-to-end
metrics, measured with tracing off; with `--trace 1` the per-layer metrics
of one traced pass over the workload's schedule. Times are in seconds at a
nominal host speed (see calibration.py); the info line also gives the
unscaled throughput. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it records
the run's seeds, schedule and software versions. Exits 1 when a placement
fails its check and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    package = ROOT / "src" / "macroplace" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package.relative_to(ROOT)} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Before numpy loads: one compute thread, so runs do not contend.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy

    import bench

    args = parse_args(argv, bench.WORKLOADS)
    workload = bench.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out = bench.run(workload, args.seed, args.seconds, bool(args.trace), workdir)

    info = out["info"]
    info.update({
        "workload": workload.name,
        "seed": args.seed,
        "design": {"macros": workload.spec.macro_count,
                   "std_cells": workload.spec.std_cell_count,
                   "nets": workload.spec.net_count, "seed": workload.spec.seed},
        "engine": workload.engine,
        "loop": "closed, one caller",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "unmeasured_layers": bench.UNMEASURED,
    })
    print(json.dumps({"perfbench": info}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
