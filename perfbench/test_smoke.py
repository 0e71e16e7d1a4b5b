"""Smoke test of the benchmark itself, kept out of tier-1 (pytest's
testpaths name only tests/). Run from the repository root:

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import calibration  # noqa: E402
import macroplace.env as menv  # noqa: E402
from macroplace import edit_for_movable_macros, generate_synthetic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def minimal(workload: bench.Workload) -> bench.Workload:
    """The workload with one set-up and the shortest schedule it allows."""
    return dataclasses.replace(
        workload, setup_repeats=1, episodes=min(workload.episodes, 1),
        fixed_seeds=workload.fixed_seeds[:1], sa_moves=min(workload.sa_moves, 1))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_minimal_run_emits_declared_metrics(name, trace, tmp_path):
    out = bench.run(minimal(bench.WORKLOADS[name]), seed=3, seconds=0,
                    trace=bool(trace), workdir=tmp_path / "work")
    result = out["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], out["info"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["placer.place_clusters.calls"] >= 1
        assert out["info"]["place_clusters_unattributed_frac"] <= max(
            abs(metrics["tracing_overhead_frac"]), 0.01)


@pytest.fixture(scope="module")
def placed(tmp_path_factory):
    """A tiny design's environment and one complete, checked rollout."""
    env = bench.make_env(edit_for_movable_macros(generate_synthetic(bench.WARMUP_SPEC)), "fd")
    traj = menv.rollout(env, menv.uniform_random_policy, 0)
    assert not traj.dead_end
    return env, traj


def test_check_accepts_a_correct_placement(placed):
    env, traj = placed
    assert bench.check_placement(env, traj.final_placement, traj.reward) == []


def test_check_rejects_overlapping_macros(placed):
    env, traj = placed
    first, second = env.macro_order[:2]
    overlapping = traj.final_placement.copy()
    overlapping.positions[second] = overlapping.positions[first]
    problems = bench.check_placement(env, overlapping, traj.reward)
    assert any("overlaps occupied cells" in p for p in problems)


def test_check_rejects_a_wrong_reward(placed):
    env, traj = placed
    problems = bench.check_placement(env, traj.final_placement, traj.reward + 0.1)
    assert any("proxy_cost" in p for p in problems)


def test_calibrated_clock_stops_during_blocks():
    speed = calibration.HostSpeed()
    start = speed.now()
    speed.sample()
    speed.sample()
    elapsed = speed.now() - start
    blocks = sum(seconds for _at, seconds in speed.samples)
    assert 0 <= elapsed < 0.5 * blocks
    assert speed.scale(start, start + elapsed) == pytest.approx(
        calibration.NOMINAL_S / statistics.median(s for _, s in speed.samples))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout-fd-M",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
