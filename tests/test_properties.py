"""Structural invariants on random valid graphs, validation of the same
graphs with one fault injected, the endpoint exchange matrix and its
derivations against their loop references, the packed Horner sampling
of cubics against numpy's ``polyval``, and the backward error of the
propagator's shifted solve.

The strategy builds graphs that are admissible by construction: every
pass-through coefficient targets an edge touching the same vertex, and
each membrane total is the sum of its coefficients, plus a positive
leak at one drawn endpoint when the graph is meant to lose mass.
"""

import glob
import json
import os
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.polynomial import polyval

from conftest import end_values, make_path, make_star, traced_peak
from reference import convert, dense_generator, mass_rate
from graphdiff import _stepping, finite_volume
from graphdiff._banded import Banded
from graphdiff.chain import DUAL, PRIMAL, chain_generator, propagator
from graphdiff.evolution import FEM, FV, OWN_NORM, kappa_sweep, norms
from graphdiff.finite_volume import (
    chain_form,
    dual_generator,
    primal_generator,
    with_dual_conditions,
    with_primal_conditions,
)
from graphdiff.galerkin import assemble_forms, l2_generator
from graphdiff.graphs import (
    SUM_TOL,
    EdgeSpec,
    InvalidGraphError,
    MetricGraph,
    Side,
    endpoint_conditions,
    load_graph,
    parse_graph,
    primal_condition_table,
    require_valid,
    trace_functionals,
    validate,
)
from graphdiff.grids import CELLS, NODES, EdgeGrid, edge_indicator, make_grid

EPS = np.finfo(float).eps

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


FAULTS = ("negative", "not incident", "unknown", "itself", "duplicate", "loop", "exceeds")


def _sealed(edge_id, left, right):
    return EdgeSpec(id=edge_id, length=1.0, sigma=1.0, left_vertex=left, right_vertex=right)


@st.composite
def faulty_graphs(draw):
    """A valid graph with one fault injected at a drawn endpoint, and the
    start of the one problem ``validate`` must report.  Each fault leaves
    every other rule met: an added coefficient that the membrane sum
    counts raises the total with it, and the duplicate and the loop are
    appended edges."""
    graph = draw(valid_graphs())
    edges = list(graph.edges)
    fault = draw(st.sampled_from(FAULTS))
    i = draw(st.integers(0, len(edges) - 1))
    e, side = edges[i], draw(st.sampled_from(list(Side)))
    name, tag = "l" if side is Side.LEFT else "r", f"edge {e.id!r}"
    to, total = dict(e.coupling(side)), e.total(side)
    c = draw(st.floats(0.1, 2.0))
    if fault == "negative":
        others = [f.id for f in edges if f.id != e.id]
        assume(others)
        target = draw(st.sampled_from(others))
        to[target] = -c
        problem = f"{tag}: {name}_to[{target!r}] must be nonnegative"
    elif fault == "not incident":
        edges.append(_sealed("far", "w0", "w1"))
        to["far"], total = c, total + c
        problem = f"{tag}: {name}_to['far'] targets an edge not incident"
    elif fault == "unknown":
        to["nowhere"] = c
        problem = f"{tag}: {name}_to references unknown edge 'nowhere'"
    elif fault == "itself":
        to[e.id] = c
        problem = f"{tag}: {name}_to references itself"
    elif fault == "duplicate":
        edges.append(e)
        problem = f"duplicate edge id {e.id!r}"
    elif fault == "loop":
        edges.append(_sealed("loop", e.left_vertex, e.left_vertex))
        problem = "edge 'loop': loop"
    else:
        running = sum(to.values())
        assume(running > 4 * SUM_TOL)  # a smaller excess is within the slack
        total = running / 2
        problem = f"{tag}: sum of {name}_to coefficients"
    side_fields = ("l", "l_to") if side is Side.LEFT else ("r", "r_to")
    edges[i] = e._replace(**dict(zip(side_fields, (total, to))))
    return MetricGraph(tuple(edges)), problem


@settings(max_examples=100, deadline=None, database=None)
@given(faulty_graphs())
def test_validate_names_the_injected_fault(case):
    graph, problem = case
    report = validate(graph)
    assert not report.ok and not report.conservative
    assert len(report.problems) == 1 and report.problems[0].startswith(problem), report
    with pytest.raises(InvalidGraphError):
        graph.exchange


@FEW
@given(valid_graphs(), KAPPAS)
def test_first_order_fv_is_metzler(graph, kappa):
    a = dual_generator(graph, make_grid(graph, 0.2), kappa, trace_order=1).matrix.toarray()
    off = a - np.diag(np.diag(a))
    assert off.min() >= 0.0
    assert np.diag(a).max() < 0.0


@FEW
@given(valid_graphs(), KAPPAS, st.sampled_from([1, 2]))
def test_fv_edge_mass_rates_are_membrane_imbalances(graph, kappa, order):
    grid = make_grid(graph, 0.2)
    gen = dual_generator(graph, grid, kappa, trace_order=order)
    col = grid.weights(CELLS) @ gen.matrix.toarray()
    tol = 1e-14 * np.abs(gen.flux.toarray()).sum()
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
        assert residual <= 1e-13 * np.abs(gen.matrix.toarray()).max()
    else:
        # a leak of at least 0.1 at sigma >= 0.2 gives 2 sigma leak / h >= 0.2
        assert residual > 1e-3


@FEW
@given(valid_graphs(), KAPPAS)
def test_p1_conserves_mass_iff_conservative(graph, kappa):
    system = assemble_forms(graph, make_grid(graph, 0.2), kappa)
    rate = np.abs(np.ones(system.n) @ system.flux).max()
    if validate(graph).conservative:
        scale = np.abs(system.coupling.toarray()).max() + np.abs((kappa * system.diffusion).toarray()).max()
        assert rate <= 1e-13 * scale
    else:
        # the leaking endpoint's column sums to sigma * leak >= 0.02
        assert rate > 1e-3


@FEW
@given(valid_graphs(), KAPPAS)
def test_mass_times_matrix_is_minus_flux(graph, kappa):
    grid = make_grid(graph, 0.2)
    fv = dual_generator(graph, grid, kappa, trace_order=2)
    fd = primal_generator(graph, grid, kappa)
    p1 = l2_generator(assemble_forms(graph, grid, kappa))
    for gen, a in ((fv, fv.matrix.toarray()), (fd, fd.matrix.toarray()),
                   (p1, dense_generator(p1))):
        flux = gen.flux.toarray()
        product = gen.mass @ a
        assert np.abs(product + flux).max() <= 1e-13 * np.abs(flux).max()


@FEW
@given(valid_graphs(), KAPPAS, st.integers(0, 2**32 - 1))
def test_fits_meet_the_endpoint_conditions(graph, kappa, seed):
    # forward fits obey kappa f'(end) = (conditions(X) @ ends), adjoint
    # fits the same with X^T, and neither moves an endpoint value.  A
    # fitted slope carries the round-off of the raw one, so it is checked
    # against the target over kappa
    raw = np.random.default_rng(seed).uniform(-1.0, 1.0, (graph.n_edges, 4))
    for fit, flow in ((with_primal_conditions, graph.exchange),
                      (with_dual_conditions, graph.exchange.T)):
        coefs = fit(graph, kappa, raw)
        ends = end_values(coefs, graph.lengths)
        scale = np.abs(ends).max()
        assert np.abs(ends - end_values(raw, graph.lengths)).max() <= 1e-12 * scale
        want = (endpoint_conditions(graph, flow) @ ends.ravel()).reshape(-1, 2)
        assert np.abs(end_values(coefs, graph.lengths, 1) - want / kappa).max() <= 1e-12 * scale


@st.composite
def grids_and_cubics(draw):
    """A grid of 1 to 6 edges, one-cell edges included, and one row of
    cubic coefficients per edge."""
    n = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    cells = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    coefs = draw(arrays(float, (n, 4), elements=st.floats(-1e6, 1e6)))
    return EdgeGrid(np.array(lengths), np.array(cells)), coefs


@settings(max_examples=60, deadline=None, database=None)
@given(grids_and_cubics())
def test_packed_horner_sampling_is_per_edge_polyval(case):
    grid, coefs = case
    for layout in (CELLS, NODES):
        per_edge = grid.sample(lambda i, x: polyval(x, coefs[i]), layout)
        assert np.array_equal(finite_volume._sample(grid, layout, coefs), per_edge)


@FEW
@given(valid_graphs(), KAPPAS, st.integers(0, 2**32 - 1))
def test_fit_reads_ends_and_slopes_as_polyval_does(graph, kappa, seed):
    # the fit samples twice: the raw cubics' end values, then their slopes
    raw = np.random.default_rng(seed).uniform(-1.0, 1.0, (graph.n_edges, 4))
    sample, seen = finite_volume._sample, []

    def recording(*args):
        seen.append(sample(*args))
        return seen[-1]

    for fit in (with_primal_conditions, with_dual_conditions):
        with mock.patch.object(finite_volume, "_sample", recording):
            fit(graph, kappa, raw)
        ends, slopes = seen[-2:]
        assert np.array_equal(ends.reshape(-1, 2), end_values(raw, graph.lengths))
        assert np.array_equal(slopes.reshape(-1, 2), end_values(raw, graph.lengths, 1))


@FEW
@given(valid_graphs())
def test_dual_q_weighted_column_identity(graph):
    q = chain_generator(graph, DUAL)
    col = graph.lengths @ q
    for j, e in enumerate(graph.edges):
        passed = sum(e.l_to.values()) + sum(e.r_to.values())
        expected = e.sigma * (passed - e.l - e.r)
        assert col[j] == pytest.approx(expected, abs=1e-14 * np.abs(q.toarray()).sum())


@FEW
@given(valid_graphs())
def test_mass_rate_vanishes_iff_conservative(graph):
    rate = np.abs(mass_rate(graph)).max()
    if validate(graph).conservative:
        assert rate <= 1e-14 * np.abs(chain_generator(graph, DUAL).toarray()).sum()
    else:
        # the leaking edge loses sigma * leak >= 0.02
        assert rate >= 0.02 * (1.0 - 1e-12)


@FEW
@given(valid_graphs(), st.data())
def test_sweep_limit_states_match_the_dense_propagator(graph, data):
    # the sweep's sparse Krylov limit chain against exp(tQ) at the CLI's
    # default times, in the length-weighted L1 norm of the edge states
    q = chain_generator(graph, DUAL)
    c0 = np.zeros(graph.n_edges)
    c0[data.draw(st.integers(0, graph.n_edges - 1))] = 1.0
    ts = [0.25, 0.5, 1.0, 2.0]
    limit = chain_form(graph)
    got = _stepping.krylov_apply(limit.mass, limit.terms, c0, ts)
    for t, row in zip(ts, got):
        assert np.sum(graph.lengths * np.abs(row - propagator(q, t) @ c0)) <= 1e-12


def _row_at_a_time_sweep(graph, grid, kappas, ts, disc):
    # the sweep's loop before it measured each kappa's times in one
    # array pass: one norms call per (kappa, t) row
    layout = CELLS if disc == FV else NODES
    if disc == FV:
        gen = dual_generator(graph, grid, kappas[0])
    else:
        gen = assemble_forms(graph, grid, kappas[0])
    start = grid.sample(edge_indicator(0), layout)
    weights = grid.weights(layout)
    mass0 = float(np.sum(weights * start))
    limit = chain_form(graph)
    limits = _stepping.krylov_apply(limit.mass, limit.terms, grid.averaging(layout, start), ts)
    lifted = np.repeat(limits, np.diff(grid.offsets(layout)), axis=1)
    rows = []
    for kappa in kappas:
        sols = _stepping.krylov_apply(gen.mass, gen.at(kappa).terms, start, ts)
        gaps = grid.averaging(layout, sols) - limits
        for t, sol, lift, gap in zip(ts, sols, lifted, gaps):
            err = norms(sol - lift, weights)
            perr = getattr(norms(gap, grid.lengths), OWN_NORM[disc])
            drift = float(np.sum(weights * sol)) - mass0
            rows.append([kappa, t, err.l1, err.l2, perr, drift, float(np.min(sol))])
    return np.array(rows).reshape(len(kappas), len(ts), -1)


@FEW
@given(valid_graphs(), st.sampled_from([FV, FEM]))
def test_sweep_table_is_the_row_at_a_time_loop(graph, disc):
    # every column reduced along the last axis of a kappa's stack of
    # states equals the 1-D reduction of each row, bit for bit
    grid = make_grid(graph, 0.25)
    kappas, ts = (1.0, 10.0), (1.0, 0.25)
    got = kappa_sweep(graph, grid, kappas, ts, edge_indicator(0), discretization=disc)
    want = _row_at_a_time_sweep(graph, grid, kappas, ts, disc)[:, ::-1]  # ascending t
    assert np.array_equal(got.table, want)


@FEW
@given(valid_graphs())
def test_parse_graph_round_trips_edge_specs(graph):
    text = json.dumps({"edges": [e._asdict() for e in graph.edges]})
    assert parse_graph(json.loads(text)) == graph


# ---------------------------------------------------------------------------
# the exchange-matrix derivations against per-entry loops

def _neighbours(graph, i, side):
    """(j, s) for every other edge j touching the vertex of (i, side),
    found by a scan over all edges."""
    vertex = graph.edges[i].vertex(side)
    return [
        (j, s)
        for j, other in enumerate(graph.edges) if j != i
        for s in Side if other.vertex(s) == vertex
    ]


def loop_trace_functionals(graph):
    n = graph.n_edges
    coeffs = np.zeros((n, 2, n, 2))
    for i, e in enumerate(graph.edges):
        coeffs[i, 0, i, 0] += e.l
        coeffs[i, 1, i, 1] -= e.r
        for side in (Side.LEFT, Side.RIGHT):
            sign = -1.0 if side is Side.LEFT else 1.0
            for (j, s) in _neighbours(graph, i, side):
                other = graph.edges[j]
                c = other.coupling(s).get(e.id, 0.0)
                if c:
                    coeffs[i, side.value, j, s.value] += sign * other.sigma * c / e.sigma
    return coeffs


def loop_primal_condition_table(graph):
    n = graph.n_edges
    coeffs = np.zeros((n, 2, n, 2))
    for i, e in enumerate(graph.edges):
        coeffs[i, 0, i, 0] += e.l
        coeffs[i, 1, i, 1] -= e.r
        for side in (Side.LEFT, Side.RIGHT):
            sign = -1.0 if side is Side.LEFT else 1.0
            coupling = e.coupling(side)
            for (j, s) in _neighbours(graph, i, side):
                c = coupling.get(graph.edges[j].id, 0.0)
                if c:
                    coeffs[i, side.value, j, s.value] += sign * c
    return coeffs


def loop_chain_generator(graph, variant):
    n = graph.n_edges
    d = graph.lengths
    sig = graph.sigmas
    q = np.zeros((n, n))
    for i, e in enumerate(graph.edges):
        q[i, i] = -sig[i] * (e.l + e.r) / d[i]
    for j, e in enumerate(graph.edges):
        for target_id, c in list(e.l_to.items()) + list(e.r_to.items()):
            if c == 0.0:
                continue
            i = graph.index_of(target_id)
            if variant == DUAL:
                q[i, j] += sig[j] * c / d[i]
            else:
                q[j, i] += sig[j] * c / d[j]
    return q


def loop_exchange(graph):
    """X = Sigma (P - T) filled coupling by coupling from the EdgeSpec
    fields, each coefficient's column found by a scan over all edges."""
    n = graph.n_edges
    x = np.zeros((2 * n, 2 * n))
    for i, e in enumerate(graph.edges):
        for side in Side:
            row = 2 * i + side.value
            x[row, row] = -e.sigma * e.total(side)
            coupling = e.coupling(side)
            for (j, s) in _neighbours(graph, i, side):
                x[row, 2 * j + s.value] += e.sigma * coupling.get(graph.edges[j].id, 0.0)
    return x


def assert_matches_loops(graph):
    require_valid(graph)
    # each entry of X is one product, taken alike by both
    assert np.array_equal(graph.exchange.toarray(), loop_exchange(graph))
    pairs = [
        (trace_functionals(graph), loop_trace_functionals(graph)),
        (primal_condition_table(graph), loop_primal_condition_table(graph)),
        (chain_generator(graph, DUAL).toarray(), loop_chain_generator(graph, DUAL)),
        (chain_generator(graph, PRIMAL).toarray(), loop_chain_generator(graph, PRIMAL)),
    ]
    for got, want in pairs:
        # sums and sigma factors are taken in another order than the loops
        tol = 4 * np.finfo(float).eps * max(np.abs(want).max(), np.finfo(float).tiny)
        assert np.abs(got - want).max() <= tol


def _parallel_pair():
    # two edges between the same vertices, each passing into the other at
    # both ends
    return MetricGraph((
        EdgeSpec(id="P1", length=1.0, sigma=0.7, left_vertex="u", right_vertex="v",
                 l=0.9, r=1.3, l_to={"P2": 0.4}, r_to={"P2": 1.1}),
        EdgeSpec(id="P2", length=1.5, sigma=1.9, left_vertex="u", right_vertex="v",
                 l=0.3, r=0.6, l_to={"P1": 0.3}, r_to={"P1": 0.5}),
    ))


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))


@pytest.mark.parametrize("graph", [
    pytest.param(make_star(True), id="star"),
    pytest.param(make_star(False), id="leaky_star"),
    pytest.param(_parallel_pair(), id="parallel_pair"),
] + [pytest.param(load_graph(p), id=os.path.basename(p)) for p in CONFIGS])
def test_exchange_derivations_match_loops(graph):
    assert_matches_loops(graph)
    # Q stores exactly the entries the loop reference fills
    for variant in (DUAL, PRIMAL):
        q = chain_generator(graph, variant)
        assert isinstance(q, Banded)
        assert q.nnz == np.count_nonzero(loop_chain_generator(graph, variant))


def test_exchange_derivations_match_loops_on_fixtures(chain_graph, sealed_edge):
    assert_matches_loops(chain_graph)
    assert_matches_loops(sealed_edge)


@FEW
@given(valid_graphs())
def test_exchange_derivations_match_loops_on_valid_graphs(graph):
    assert_matches_loops(graph)


# ---------------------------------------------------------------------------
# the shifted solve: band by cyclic reduction, the rest by Woodbury (or all
# by SuperLU), refined once

# gamma = SHIFT_T / t for t = 10, 1 and 0.1
GAMMAS = st.sampled_from([1.0, 10.0, 100.0])


def _shifted_systems(graph, grid, kappa):
    """(name, mass, terms) of every pair the propagator factors on
    ``graph``: FV at trace orders 1 and 2, FD and P1 with the terms
    (kappa S, C), and the limit chain (D, -D Q)."""
    lengths = sp.diags(graph.lengths, format="csr")
    gens = {
        "fv1": dual_generator(graph, grid, kappa, trace_order=1),
        "fv2": dual_generator(graph, grid, kappa, trace_order=2),
        "fd": primal_generator(graph, grid, kappa),
        "p1": assemble_forms(graph, grid, kappa),
    }
    for name, gen in gens.items():
        yield name, gen.mass, gen.terms
    yield "chain", convert(lengths), [convert(-(lengths @ convert(chain_generator(graph, DUAL))))]


def _outside_rows(matrix):
    """The number of rows with an entry outside the tridiagonal band."""
    rows, cols = np.nonzero(matrix)
    return np.unique(rows[np.abs(rows - cols) > 1]).size


def _backward_errors(mass, terms, gamma, b):
    """The normwise backward errors, in units of eps, of the refined
    shifted solve and of ``np.linalg.solve`` on the dense matrix
    left + K/gamma, and the number of rows outside its band."""
    left, terms = _stepping.row_scaled(mass, terms)
    dense = left.toarray() + sum(term.toarray() for term in terms) / gamma

    def eta(x):
        scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        return np.abs(b - dense @ x).max() / scale / EPS

    x = _stepping.shifted_solver(left, terms, gamma)(b)
    return eta(x), eta(np.linalg.solve(dense, b)), _outside_rows(dense)


@FEW
@given(valid_graphs(), KAPPAS, GAMMAS)
def test_refined_shifted_solve_is_backward_stable(graph, kappa, gamma):
    grid = make_grid(graph, 0.2)
    for name, mass, terms in _shifted_systems(graph, grid, kappa):
        b = np.random.default_rng(0).standard_normal(mass.shape[0])
        got, dense, _ = _backward_errors(mass, terms, gamma, b)
        assert got <= 4.0, (name, got, dense)


def _superlu_calls(monkeypatch):
    """The matrices that ``factor_shifted`` hands to SuperLU, in call order."""
    calls = []
    real = scipy.sparse.linalg.splu

    def splu(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    return calls


@pytest.mark.parametrize("config, outside", [
    # the star's three hub ends are numbered apart, and its chain's first
    # and last edge; configs/chain.json numbers each coupled pair side by side
    ("star.json", {"fv1": 3, "fv2": 3, "fd": 3, "p1": 3, "chain": 2}),
    ("chain.json", {"fv1": 0, "fv2": 2, "fd": 0, "p1": 0, "chain": 0}),
])
def test_refined_shifted_solve_on_the_shipped_graphs(config, outside, monkeypatch):
    # every shifted matrix of the shipped graphs is factored in numpy
    superlu = _superlu_calls(monkeypatch)
    graph = load_graph(os.path.join(os.path.dirname(__file__), "..", "configs", config))
    grid = make_grid(graph, 0.01)
    for kappa in (1.0, 1e4):
        for gamma in (1.0, 100.0):
            for name, mass, terms in _shifted_systems(graph, grid, kappa):
                b = np.random.default_rng(1).standard_normal(mass.shape[0])
                got, dense, k = _backward_errors(mass, terms, gamma, b)
                assert k == outside[name]
                assert got <= 4.0, (name, kappa, gamma, got, dense)
    assert superlu == []


def test_many_rows_outside_the_band_go_to_superlu(monkeypatch):
    # a 40-edge path at trace order 2 couples 78 ends outside the band,
    # more than WOODBURY_MAX_ROWS: SuperLU factors it, and the refined
    # solve is as backward stable as on the numpy route
    superlu = _superlu_calls(monkeypatch)
    graph = make_path(40)
    gen = dual_generator(graph, make_grid(graph, 0.05), 10.0, trace_order=2)
    b = np.random.default_rng(2).standard_normal(gen.n)
    got, dense, k = _backward_errors(gen.mass, gen.terms, 10.0, b)
    assert k == 78 > _stepping.WOODBURY_MAX_ROWS
    assert len(superlu) == 1
    assert got <= 4.0, (got, dense)


def test_large_k_keeps_no_k_by_k_array():
    # a 400-edge path at trace order 2 couples 798 ends outside the band;
    # neither their 798 x 798 capacitance matrix nor T^-1 P (n x k, 51 MB)
    # is formed: the traced peak stays below one k x k matrix
    graph = make_path(400)
    gen = dual_generator(graph, make_grid(graph, 0.05), 10.0, trace_order=2)
    left, terms = _stepping.row_scaled(gen.mass, gen.terms)
    n, k = gen.n, _outside_rows(convert(left + 0.1 * (terms[0] + terms[1])))
    assert (n, k) == (8000, 798)
    b = np.ones(n)
    peak = traced_peak(lambda: _stepping.shifted_solver(left, terms, 10.0)(b))
    assert peak < 8 * k**2


def test_no_rows_outside_the_band_is_the_band_solve(monkeypatch):
    # k = 0 is the empty Woodbury update: on a tridiagonal matrix and on
    # configs/chain.json's FV order-1 shifted matrix, factor_shifted gives
    # the band solve's answer bit for bit, and calls no SuperLU
    superlu = _superlu_calls(monkeypatch)
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, (2, 299))
    tridiagonal = convert(sp.diags([off[0], rng.uniform(3.0, 4.0, 300), off[1]], [-1, 0, 1]))
    graph = load_graph(os.path.join(os.path.dirname(__file__), "..", "configs", "chain.json"))
    gen = dual_generator(graph, make_grid(graph, 0.01), 1e4, trace_order=1)
    left, terms = _stepping.row_scaled(gen.mass, gen.terms)
    for matrix in (tridiagonal, left + 0.1 * (terms[0] + terms[1])):
        assert _outside_rows(convert(matrix)) == 0
        band = _stepping._band_solver(matrix.lower, matrix.diag, matrix.upper)
        solve = _stepping.factor_shifted(matrix)
        for b in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 3))):
            assert solve(b).tobytes() == band(b).tobytes()
    assert superlu == []


def _needs_pivoting(n):
    """A tridiagonal n x n matrix, one corner entry outside its band,
    whose every seventh diagonal entry is 1e-13 against off-diagonal ones:
    elimination without row exchanges grows its entries about 1e13-fold."""
    diag = np.random.default_rng(3).uniform(1.0, 2.0, n)
    diag[::7] = 1e-13
    off = np.ones(n - 1)
    band = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    return band + sp.csr_matrix(([0.5], ([0], [n - 1])), shape=(n, n))


def test_unstable_band_goes_to_superlu(monkeypatch):
    # the probe solve of the unpivoted factorization shows the growth, and
    # SuperLU factors the matrix instead; without the probe the numpy
    # solve would be off by a large multiple of eps
    superlu = _superlu_calls(monkeypatch)
    matrix = _needs_pivoting(200)
    b = np.random.default_rng(4).standard_normal(200)

    def eta(x):
        size = abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        return np.abs(b - matrix @ x).max() / size / EPS

    assert eta(_stepping.factor_shifted(convert(matrix))(b)) <= 4.0
    assert len(superlu) == 1
    # the corner coupling 0.5 stored as the parts 1e12 + 0.5 and -1e12: the
    # probe bounds |A| by the summed entry, not by its parts, and still
    # hands the matrix to SuperLU
    band = convert(matrix)
    parts = Banded(band.lower, band.diag, band.upper, np.array([0, 0]), np.array([199, 199]),
                   np.array([1e12 + 0.5, -1e12]))
    assert eta(_stepping.factor_shifted(parts)(b)) <= 4.0
    assert len(superlu) == 2
    monkeypatch.setattr(_stepping, "PROBE_MAX_ETA", np.inf)
    assert eta(_stepping.factor_shifted(convert(matrix))(b)) > 1e6
    assert len(superlu) == 2
