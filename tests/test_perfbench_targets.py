"""Guards on what the benchmark (perfbench/) needs from the package.

Every function the per-layer benchmark traces (perfbench/tracing.py) still
exists under the module and name it is traced by, so a refactor cannot
silently drop a layer from the benchmark. And one unit of each kind the
benchmark runs (an FD rollout, an analytical rollout, an annealing call)
runs, passes the benchmark's own output checks on a tiny design and yields
every per-layer metric, so a refactor that removes something
perfbench/bench.py reads fails here, not only in the slow
perfbench/test_smoke.py.
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from macroplace.bookshelf import write_bookshelf
from macroplace.design import generate_synthetic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    # bench.py imports its sibling modules by their bare names.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


tracing = _load("perfbench_tracing", "tracing.py")
bench = _load("perfbench_bench", "bench.py")


@pytest.mark.parametrize("span,module,attr", tracing.TRACED,
                         ids=[entry[0] for entry in tracing.TRACED])
def test_traced_target_resolves(span, module, attr):
    assert callable(tracing._resolve(module, attr))
    # Span names are the defining module relative to the package.
    assert span == f"{module.removeprefix('macroplace.')}.{attr.split('.')[-1]}"


@pytest.fixture(scope="module")
def design_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench") / "design"
    write_bookshelf(generate_synthetic(bench.WARMUP_SPEC), path, "guard")
    return path


@pytest.mark.parametrize("engine,sa_moves", [("fd", 0), ("analytical", 0), ("fd", 1)],
                         ids=["fd-rollout", "analytical-rollout", "fd-anneal"])
def test_benchmark_unit_passes_its_checks(design_dir, engine, sa_moves):
    workload = bench.Workload("guard", bench.WARMUP_SPEC, engine=engine,
                              setup_repeats=1, fixed_seeds=(0,), sa_moves=sa_moves)
    probe = bench.PlacerProbe(time.perf_counter)
    undo = bench.tracing.rebind("macroplace.placer", "place_clusters", probe.wrap)
    try:
        env, _start, _seconds = bench.set_up(workload, design_dir, time.perf_counter)
        first = bench.run_unit(env, workload, 0, probe)
        bench.check_unit(env, first, None)
        again = bench.run_unit(env, workload, 0, probe)
        bench.check_unit(env, again, first)
    finally:
        bench.tracing.restore(undo)
    for unit in (first, again):
        assert unit.failed == 0, unit.problems
        assert len(unit.outcomes) == unit.attempted == 1 + sa_moves
    # What only `--trace 1` reads (the stop overflow, the engine name, the
    # cluster count) is read here too, without spans.
    metrics = bench.per_layer_metrics(workload, env, [], {}, 1.0, [first], [again])
    assert {name for name, _unit in bench.PER_LAYER} == set(metrics)
