#!/usr/bin/env python3
"""Time the placer's and the environment's kernels at fixed placements.

    python3 tools/kernels.py --designs S M L --repeats 5

Run from the repository root. The designs and their set-up are those of
`tools/sweep.py`: the benchmark's S, M and L designs, each written to
Bookshelf, read back by the benchmark's own set-up after its warm-up
placement, with BLAS on one thread. One rollout of episode seed 0 places
the macros by `uniform_random_policy` and the clusters by the analytical
engine, and the arguments of each kernel's last call in it are kept
(arrays copied, since the engine reuses its buffers). Each kernel is then
re-run on those arguments alone.

Prints one JSON line per design: per kernel, the minimum over `--repeats`
repeats of the mean microseconds per call (each repeat loops for at least
`--min-seconds`), and the SHA-256 of its output's bytes (see `digest`),
so two checkouts can be compared for bit identity: equal inputs come from
equal rollouts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import sweep  # noqa: E402  (tools/ is not a package)

# (name, defining module); each name is the function's attribute there.
KERNELS = (
    ("smooth_wl_and_grad", "macroplace.placer.wirelength"),
    ("solve_density_field", "macroplace.placer.density"),
    ("density_energy_and_grad", "macroplace.placer.density"),
    ("axis_overlap", "macroplace.raster"),
    ("evaluate", "macroplace.metrics"),
    ("feasibility_mask", "macroplace.grid"),
)


def keeping_last_call(fn, calls: dict, name: str):
    """`fn`, storing the arguments of its latest call in `calls[name]`."""
    import numpy as np

    def kept(*args, **kwargs):
        calls[name] = (tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args),
                       dict(kwargs))
        return fn(*args, **kwargs)
    return kept


def digest(out) -> str:
    """SHA-256 of a kernel output: an array's bytes; a field's `rho`,
    `psi` and `norm_scale`; a `Metrics`' float fields."""
    import numpy as np

    h = hashlib.sha256()
    if isinstance(out, np.ndarray):
        h.update(out.tobytes())
    elif hasattr(out, "psi"):
        for part in (out.rho, out.psi, np.float64(out.norm_scale)):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        h.update(np.array([float(v) for v in vars(out).values()]).tobytes())
    return h.hexdigest()


def time_call(fn, args, kwargs, repeats: int, min_seconds: float) -> float:
    """Minimum over `repeats` of the mean microseconds per call of one loop
    that runs for at least `min_seconds`."""
    start = time.perf_counter()
    fn(*args, **kwargs)
    once = max(time.perf_counter() - start, 1e-7)
    number = max(1, math.ceil(min_seconds / once))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args, **kwargs)
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def run_design(name: str, spec, repeats: int, min_seconds: float, workdir: Path) -> dict:
    """The design's JSON record: per kernel, µs per call and its digest."""
    import importlib

    bench, tracing = sweep.benchmark_modules()
    import macroplace.env as menv
    from macroplace import generate_synthetic
    from macroplace.bookshelf import write_bookshelf

    design_dir = workdir / "design"
    write_bookshelf(generate_synthetic(spec), design_dir, name)
    bench.warm_up("analytical", workdir)
    env, _start, _setup_s = bench.set_up(bench.Workload(name, spec, "analytical", setup_repeats=1),
                                         design_dir, time.perf_counter)
    calls, changes = {}, []
    try:
        for kernel, module in KERNELS:
            changes += tracing.rebind(module, kernel,
                                      lambda fn, kernel=kernel: keeping_last_call(fn, calls, kernel))
        menv.rollout(env, menv.uniform_random_policy, 0)
    finally:
        tracing.restore(changes)

    kernels = {}
    for kernel, module in KERNELS:
        fn = getattr(importlib.import_module(module), kernel)
        args, kwargs = calls[kernel]
        kernels[kernel] = {
            "us": round(time_call(fn, args, kwargs, repeats, min_seconds), 2),
            "sha256": digest(fn(*args, **kwargs)),
        }
    return {"design": name, "kernels": kernels}


def main(argv=None) -> int:
    # Before numpy loads: one compute thread, as the benchmark runs.
    for var in sweep.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(sweep.ROOT / "src"))
    designs = sweep.benchmark_designs()

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--designs", nargs="+", choices=sorted(designs), default=["S", "M", "L"])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--min-seconds", type=float, default=0.05)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.min_seconds <= 0:
        parser.error("--repeats must be >= 1 and --min-seconds > 0")

    for name in args.designs:
        with tempfile.TemporaryDirectory() as workdir:
            record = run_design(name, designs[name], args.repeats, args.min_seconds,
                                Path(workdir))
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
