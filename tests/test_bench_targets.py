"""The benchmark's helper scripts look package functions up by name:
the layer tracer of ``bench/traced.py`` patches them, and the set-up
probe ``bench/probe.py`` calls them.  Every name either looks up must
exist, or ``bench/run.py`` fails."""

import functools
import importlib
import importlib.util
import re
from pathlib import Path

import graphdiff

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACED = BENCH / "traced.py"
PROBE = BENCH / "probe.py"


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


def test_probe_names_resolve():
    names = set(re.findall(r"\bgraphdiff\.(\w+)", PROBE.read_text()))
    assert {"load_graph", "validate", "make_grid"} <= names
    for name in sorted(names):
        # a submodule such as graphdiff.cli is imported by the probe itself
        if importlib.util.find_spec(f"graphdiff.{name}") is None:
            assert callable(getattr(graphdiff, name, None)), name
