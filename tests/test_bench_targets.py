"""The layer tracer of ``bench/traced.py`` patches package functions by
name; every name it looks up must exist, or ``bench/run.py --trace 1``
fails."""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.TARGETS


def test_traced_targets_resolve():
    targets = _targets()
    assert targets
    for span, module, attr in targets:
        owner = importlib.import_module(f"graphdiff.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), span
