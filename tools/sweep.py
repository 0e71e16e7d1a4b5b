#!/usr/bin/env python3
"""Sweep uniform-random macro placements with one placer engine.

    python3 tools/sweep.py --engine analytical --placements 24 --designs S M

Run from the repository root. The designs are those of the benchmark's
workloads (`perfbench/bench.py:WORKLOADS`), named by the size letter that
ends each workload's name: S, M and L. Each is written to Bookshelf in a
temporary directory and read back by the benchmark's own set-up, after its
warm-up placement. Macros are placed by `uniform_random_policy` at episode
seeds 0..n-1, and the clusters by the chosen engine with the default
`PlacerConfig`. BLAS runs on one thread. Calls are counted and the
placements' traces kept with the benchmark's own rebinding (`tracing.rebind`)
and `PlacerProbe`.

Prints one JSON line per design: the mean and best reward, the per-episode
rewards, the mean number of trace rows and the mean final overflow (the
last trace row's pure-overlap overflow, as the benchmark reports them),
the gradient evaluations per placement (smooth-WL calls; each analytical
gradient evaluation makes one), the field iterations per placement (density
solves that go with no smooth-WL call: the force-directed engine's, also
when it gives the analytical engine its start), the count of each stop
reason, and the wall time of the placements and of the set-up. The stop
reason is read from each placement's trace and `PlacerConfig`: the
analytical descent's "overflow_stop" (last row below
`PlacerConfig.overflow_stop`), "overflow_rise" (last row above the one
before it) or "budget"; the force-directed engine's "field_iters", or
"budget" when the budget is at most `FIELD_ITERS`. Dead-end episodes are
counted and left out of the means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_modules():
    """perfbench's `bench` and `tracing`, imported by their bare names as
    `perfbench/run.py` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench, tracing


def benchmark_designs() -> dict:
    """{size letter: the `SyntheticSpec` of the workload whose name it ends}."""
    bench, _ = benchmark_modules()
    return {name.rsplit("-", 1)[1]: workload.spec for name, workload in bench.WORKLOADS.items()}


def counter(fn, calls: list):
    """`fn`, appending to `calls` on every call."""
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return counted


def keeping_traces(fn, traces: list):
    """`fn` (`place_clusters`), appending the trace of every call to `traces`."""
    def kept(*args, **kwargs):
        placement, trace = fn(*args, **kwargs)
        traces.append(trace)
        return placement, trace
    return kept


def stop_reason(trace, config) -> str:
    """Why the placer run of `config` whose trace is `trace` ended."""
    if config.engine == "fd":
        return "field_iters" if len(trace) < config.max_outer_iters else "budget"
    last = trace[-1].overflow
    if last < config.overflow_stop:
        return "overflow_stop"
    if len(trace) > 1 and last > trace[-2].overflow:
        return "overflow_rise"
    return "budget"


def run_design(name: str, spec, engine: str, placements: int, workdir: Path) -> dict:
    """Roll out `placements` uniform-random episodes of `spec` with
    `engine`; returns the design's JSON record."""
    bench, tracing = benchmark_modules()
    import macroplace.env as menv
    from macroplace import generate_synthetic
    from macroplace.bookshelf import write_bookshelf

    design_dir = workdir / "design"
    write_bookshelf(generate_synthetic(spec), design_dir, name)
    bench.warm_up(engine, workdir)
    env, _start, setup_s = bench.set_up(bench.Workload(name, spec, engine, setup_repeats=1),
                                        design_dir, time.perf_counter)

    probe = bench.PlacerProbe(time.perf_counter)
    wl_calls, solves, traces = [], [], []
    changes = []
    try:
        changes += tracing.rebind("macroplace.placer", "place_clusters",
                                  lambda fn: probe.wrap(keeping_traces(fn, traces)))
        changes += tracing.rebind("macroplace.placer.wirelength", "smooth_wl_and_grad",
                                  lambda fn: counter(fn, wl_calls))
        changes += tracing.rebind("macroplace.placer.density", "solve_density_field",
                                  lambda fn: counter(fn, solves))
        start = time.perf_counter()
        episodes = [menv.rollout(env, menv.uniform_random_policy, seed)
                    for seed in range(placements)]
        seconds = time.perf_counter() - start
    finally:
        tracing.restore(changes)

    placed = [episode for episode in episodes if not episode.dead_end]
    rewards = [episode.reward for episode in placed]
    calls = probe.calls  # (end time, trace length, final overflow, placement)
    return {
        "design": name,
        "engine": engine,
        "placements": len(placed),
        "dead_ends": len(episodes) - len(placed),
        "reward_mean": statistics.fmean(rewards),
        "reward_best": max(rewards),
        "rewards": rewards,
        "trace_rows_mean": statistics.fmean(rows for _, rows, _, _ in calls),
        "overflow_final_mean": statistics.fmean(overflow for _, _, overflow, _ in calls),
        "grad_evals_per_placement": len(wl_calls) / len(calls),
        "field_iters_per_placement": (len(solves) - len(wl_calls)) / len(calls),
        "stops": dict(Counter(stop_reason(trace, env.config.placer) for trace in traces)),
        "seconds": seconds,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    # Before numpy loads: one compute thread, as the benchmark runs.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    designs = benchmark_designs()

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--engine", required=True, choices=("fd", "analytical"))
    parser.add_argument("--placements", type=int, required=True)
    parser.add_argument("--designs", nargs="+", choices=sorted(designs), default=["S", "M", "L"])
    args = parser.parse_args(argv)
    if args.placements < 1:
        parser.error("--placements must be >= 1")

    for name in args.designs:
        with tempfile.TemporaryDirectory() as workdir:
            record = run_design(name, designs[name], args.engine, args.placements, Path(workdir))
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
