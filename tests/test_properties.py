"""Structural invariants of the three discretizations on random valid
graphs.

The strategy builds graphs that are admissible by construction: every
pass-through coefficient targets an edge touching the same vertex, and
each membrane total is the sum of its coefficients, plus a positive
leak at one drawn endpoint when the graph is meant to lose mass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdiff.finite_volume import dual_generator, primal_generator
from graphdiff.galerkin import assemble_forms, l2_generator
from graphdiff.graphs import EdgeSpec, MetricGraph, validate
from graphdiff.grids import CELLS, make_grid

FEW = settings(max_examples=15, deadline=None, database=None)
KAPPAS = st.sampled_from([1.0, 7.0, 1e3])


@st.composite
def valid_graphs(draw):
    n_vertices = draw(st.integers(2, 4))
    n_edges = draw(st.integers(1, 5))
    vertex = st.integers(0, n_vertices - 1)
    ends = [
        draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
        for _ in range(n_edges)
    ]
    lengths = draw(st.lists(st.floats(0.3, 2.0), min_size=n_edges, max_size=n_edges))
    sigmas = draw(st.lists(st.floats(0.2, 3.0), min_size=n_edges, max_size=n_edges))
    leak = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, n_edges - 1), st.sampled_from([0, 1]), st.floats(0.1, 1.0)
    )))
    edges = []
    for i, (left, right) in enumerate(ends):
        totals, passes = [], []
        for side, v in enumerate((left, right)):
            to = {
                f"e{j}": draw(st.floats(0.0, 2.0))
                for j, pair in enumerate(ends)
                if j != i and v in pair
            }
            total = sum(to.values())
            if leak is not None and leak[:2] == (i, side):
                total += leak[2]
            totals.append(total)
            passes.append(to)
        edges.append(EdgeSpec(
            id=f"e{i}", length=lengths[i], sigma=sigmas[i],
            left_vertex=f"v{left}", right_vertex=f"v{right}",
            l=totals[0], r=totals[1], l_to=passes[0], r_to=passes[1],
        ))
    graph = MetricGraph(tuple(edges))
    report = validate(graph)
    assert report.ok, report
    assert report.conservative == (leak is None)
    return graph


@FEW
@given(valid_graphs(), KAPPAS)
def test_first_order_fv_is_metzler(graph, kappa):
    a = dual_generator(graph, make_grid(graph, 0.2), kappa, trace_order=1).dense()
    off = a - np.diag(np.diag(a))
    assert off.min() >= 0.0
    assert np.diag(a).max() < 0.0


@FEW
@given(valid_graphs(), KAPPAS, st.sampled_from([1, 2]))
def test_fv_edge_mass_rates_are_membrane_imbalances(graph, kappa, order):
    grid = make_grid(graph, 0.2)
    gen = dual_generator(graph, grid, kappa, trace_order=order)
    col = gen.weights @ gen.dense()
    tol = 1e-14 * abs(gen.flux).sum()
    for j, e in enumerate(graph.edges):
        passed = sum(e.l_to.values()) + sum(e.r_to.values())
        expected = e.sigma * (passed - e.l - e.r)
        assert col[grid.block(j, CELLS)].sum() == pytest.approx(expected, abs=tol)


@FEW
@given(valid_graphs(), KAPPAS)
def test_fd_annihilates_constants_iff_conservative(graph, kappa):
    gen = primal_generator(graph, make_grid(graph, 0.2), kappa)
    residual = np.abs(gen.matrix @ np.ones(gen.n)).max()
    if validate(graph).conservative:
        assert residual <= 1e-13 * abs(gen.matrix).max()
    else:
        # a leak of at least 0.1 at sigma >= 0.2 gives 2 sigma leak / h >= 0.2
        assert residual > 1e-3


@FEW
@given(valid_graphs(), KAPPAS)
def test_p1_conserves_mass_iff_conservative(graph, kappa):
    system = assemble_forms(graph, make_grid(graph, 0.2), kappa)
    rate = np.abs(np.ones(system.n) @ (system.stiffness + system.coupling)).max()
    if validate(graph).conservative:
        scale = abs(system.coupling).max() + abs(system.stiffness).max()
        assert rate <= 1e-13 * scale
    else:
        # the leaking endpoint's column sums to sigma * leak >= 0.02
        assert rate > 1e-3


@FEW
@given(valid_graphs(), KAPPAS)
def test_mass_times_matrix_is_minus_flux(graph, kappa):
    grid = make_grid(graph, 0.2)
    for gen in (
        dual_generator(graph, grid, kappa, trace_order=2),
        primal_generator(graph, grid, kappa),
        l2_generator(assemble_forms(graph, grid, kappa)),
    ):
        flux = gen.flux.toarray()
        product = gen.mass @ gen.dense()
        assert np.abs(product + flux).max() <= 1e-13 * np.abs(flux).max()

