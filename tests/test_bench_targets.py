"""The benchmark's helper scripts look package functions up by name:
the layer tracer of ``bench/traced.py`` patches them, and the set-up
probe ``bench/probe.py`` calls them.  Every name either looks up must
exist, or ``bench/run.py`` fails."""

import functools
import importlib
import importlib.util
import re
from pathlib import Path

from numpy.polynomial import Polynomial

import graphdiff
from graphdiff.finite_volume import dual_generator, primal_generator
from graphdiff.graphs import load_graph
from graphdiff.grids import CELLS, NODES, make_grid
from graphdiff.resolvent import resolvent_apply

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACED = BENCH / "traced.py"
PROBE = BENCH / "probe.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def test_traced_targets_resolve():
    targets = _traced().TARGETS
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


def test_traced_attributes_resolve_on_command_results():
    # the tracer records work counts read off the results of the spans
    # that commands reach: the unknowns and nnz of each assembled
    # generator, and the number of resolvent points
    attrs_for = _traced()._attrs_for
    graph = load_graph(ROOT / "configs" / "star.json")
    grid = make_grid(graph, 0.1)
    for name, gen, layout in (
        ("finite_volume.dual_generator", dual_generator(graph, grid, 1.0), CELLS),
        ("finite_volume.primal_generator", primal_generator(graph, grid, 1.0), NODES),
    ):
        counts = attrs_for(name)(gen)
        assert counts["unknowns"] == grid.size(layout)
        assert counts["nnz"] == gen.matrix.nnz > counts["unknowns"]
    points = resolvent_apply(0.0, 1.0, 0.5, Polynomial([0.0, 1.0]), [0.0, 0.5, 1.0])
    assert attrs_for("resolvent.resolvent_apply")(points) == {"points": 3}
