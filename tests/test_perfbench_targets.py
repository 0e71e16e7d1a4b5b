"""Every function the per-layer benchmark traces (perfbench/tracing.py)
still exists under the module and name it is traced by, so a refactor
cannot silently drop a layer from the benchmark."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span,module,attr", tracing.TRACED,
                         ids=[entry[0] for entry in tracing.TRACED])
def test_traced_target_resolves(span, module, attr):
    assert callable(tracing._resolve(module, attr))
    # Span names are the defining module relative to the package.
    assert span == f"{module.removeprefix('macroplace.')}.{attr.split('.')[-1]}"
