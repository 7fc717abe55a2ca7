import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from graphdiff.graphs import EdgeSpec, MetricGraph


def make_chain(sigma1=1.0):
    """Two edges in a line, fully permeable at the shared vertex; E1 has
    length 1 and diffusion coefficient ``sigma1``, E2 length 2 and 1."""
    return MetricGraph((
        EdgeSpec(id="E1", length=1.0, sigma=sigma1, left_vertex="a", right_vertex="b",
                 r=1.0, r_to={"E2": 1.0}),
        EdgeSpec(id="E2", length=2.0, sigma=1.0, left_vertex="b", right_vertex="c",
                 l=1.0, l_to={"E1": 1.0}),
    ))


@pytest.fixture
def chain_graph():
    return make_chain()


def make_star(conservative=True):
    # three edges meeting at "hub"; E1 arrives with its right end, the other
    # two leave with their left ends.  Totals match the pass-through sums
    # exactly in the conservative case; the variant loses 0.2 through E1.
    r_to = {"E2": 0.6, "E3": 0.4} if conservative else {"E2": 0.6, "E3": 0.2}
    return MetricGraph((
        EdgeSpec(id="E1", length=1.0, sigma=1.0, left_vertex="a", right_vertex="hub",
                 r=1.0, r_to=r_to),
        EdgeSpec(id="E2", length=1.0, sigma=0.8, left_vertex="hub", right_vertex="b",
                 l=0.9, l_to={"E1": 0.5, "E3": 0.4}),
        EdgeSpec(id="E3", length=1.0, sigma=1.2, left_vertex="hub", right_vertex="c",
                 l=1.1, l_to={"E1": 0.7, "E2": 0.4}),
    ))


def make_path(n_edges, seed=0):
    # unit edges in a line with drawn sigmas and membrane permeabilities;
    # every interior membrane passes on all it absorbs (conservative)
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 2.0, n_edges)
    left, right = rng.uniform(0.5, 1.5, (2, n_edges - 1))
    edges = []
    for k in range(n_edges):
        l_to = {f"E{k - 1}": float(left[k - 1])} if k > 0 else {}
        r_to = {f"E{k + 1}": float(right[k])} if k < n_edges - 1 else {}
        edges.append(EdgeSpec(
            id=f"E{k}", length=1.0, sigma=float(sigma[k]),
            left_vertex=f"v{k}", right_vertex=f"v{k + 1}",
            l=sum(l_to.values()), r=sum(r_to.values()), l_to=l_to, r_to=r_to,
        ))
    return MetricGraph(tuple(edges))


def write_config(graph, path):
    """Write ``graph`` as a JSON graph config at ``path``; returns the
    path as a string, ready for ``--graph``."""
    path.write_text(json.dumps({"edges": [dataclasses.asdict(e) for e in graph.edges]}))
    return str(path)


def end_values(coefs, lengths, m=0):
    """The m-th derivative of each edge's cubic (one row of ascending
    coefficients per edge) at its two ends, (n_edges, 2)."""
    return np.array([polyval([0.0, d], polyder(c, m)) for c, d in zip(coefs, lengths)])


def traced_peak(fn):
    """Peak bytes that tracemalloc sees while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def star_graph():
    return make_star(conservative=True)


@pytest.fixture
def leaky_star_graph():
    return make_star(conservative=False)


@pytest.fixture
def sealed_edge():
    """A single edge with impermeable ends: plain Neumann on (0, 1)."""
    return MetricGraph((
        EdgeSpec(id="I", length=1.0, sigma=1.0, left_vertex="p", right_vertex="q"),
    ))


@pytest.fixture(autouse=True)
def _fixed_numpy_errstate():
    with np.errstate(over="raise", invalid="raise"):
        yield
