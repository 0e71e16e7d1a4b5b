"""Smoke test of `tools/kernels.py` on a tiny design."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from macroplace.design import SyntheticSpec

KERNELS = Path(__file__).resolve().parent.parent / "tools" / "kernels.py"


@pytest.fixture(scope="module")
def kernels():
    spec = importlib.util.spec_from_file_location("kernels", KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernels_report_a_tiny_design(kernels, tmp_path):
    """One JSON record with a positive time and a SHA-256 per kernel, and
    the same digests from a second run: the kept arguments and the outputs
    are deterministic."""
    tiny = SyntheticSpec(2, 40, 50, seed=0)
    record = kernels.run_design("tiny", tiny, 1, 1e-4, tmp_path / "a")
    assert json.loads(json.dumps(record)) == record
    assert record["design"] == "tiny"
    assert list(record["kernels"]) == [name for name, _module in kernels.KERNELS]
    for entry in record["kernels"].values():
        assert entry["us"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])
    again = kernels.run_design("tiny", tiny, 1, 1e-4, tmp_path / "b")
    assert ({k: v["sha256"] for k, v in again["kernels"].items()}
            == {k: v["sha256"] for k, v in record["kernels"].items()})
