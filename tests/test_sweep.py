"""Smoke test of `tools/sweep.py` on a tiny design, both engines."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import macroplace.env as menv
from macroplace.design import SyntheticSpec
from macroplace.placer import PlacerConfig, analytical, force_directed, place_clusters
from macroplace.placer.density import solve_density_field
from macroplace.placer.force_directed import FIELD_ITERS
from macroplace.placer.wirelength import smooth_wl_and_grad

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("engine", ["fd", "analytical"])
def test_sweep_reports_a_tiny_design(sweep, tmp_path, engine):
    """Two placements of a 2-macro design: the record is one JSON line whose
    means agree with its rewards, and whose counts split the density
    solves between the force-directed field moves and the analytical
    engine's gradient evaluations, and that gives one stop reason per
    placement."""
    record = sweep.run_design("tiny", SyntheticSpec(2, 40, 50, seed=0), engine, 2, tmp_path)
    assert json.loads(json.dumps(record)) == record
    assert (record["design"], record["engine"]) == ("tiny", engine)
    assert record["placements"] + record["dead_ends"] == 2
    rewards = record["rewards"]
    assert len(rewards) == record["placements"] > 0
    assert record["reward_mean"] == pytest.approx(sum(rewards) / len(rewards))
    assert record["reward_best"] == max(rewards)
    assert record["overflow_final_mean"] >= 0.0
    assert record["seconds"] > 0.0 and record["setup_s"] > 0.0
    # One stop reason per placement, of the engine's own reasons.
    assert sum(record["stops"].values()) == record["placements"]
    reasons = {"fd": {"field_iters"}, "analytical": {"overflow_stop", "overflow_rise", "budget"}}
    assert set(record["stops"]) <= reasons[engine]
    # Both engines run the force-directed pass: its full budget of rows for
    # "fd", and the analytical engine's start.
    assert record["field_iters_per_placement"] == FIELD_ITERS
    if engine == "fd":
        assert record["grad_evals_per_placement"] == 0
        assert record["trace_rows_mean"] == FIELD_ITERS
    else:
        assert record["grad_evals_per_placement"] > record["trace_rows_mean"] >= 1
    # The counters are unbound again.
    assert menv.place_clusters is place_clusters
    assert analytical.smooth_wl_and_grad is smooth_wl_and_grad
    assert force_directed.solve_density_field is solve_density_field


@pytest.mark.parametrize("engine, overflows, budget, reason", [
    ("analytical", (0.3, 0.05), 30, "overflow_stop"),
    ("analytical", (0.3, 0.2, 0.25), 30, "overflow_rise"),
    ("analytical", (0.3, 0.3, 0.2), 3, "budget"),
    ("analytical", (0.3, 0.2, 0.25), 3, "overflow_rise"),
    ("fd", (0.3,) * FIELD_ITERS, 30, "field_iters"),
    ("fd", (0.3,) * 4, 4, "budget"),
])
def test_stop_reason_reads_the_trace_and_the_config(sweep, engine, overflows, budget, reason):
    trace = [SimpleNamespace(overflow=overflow) for overflow in overflows]
    assert sweep.stop_reason(trace, PlacerConfig(engine=engine, max_outer_iters=budget)) == reason
