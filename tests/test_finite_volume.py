import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.polynomial import polyder, polyval
from numpy.testing import assert_allclose

from graphdiff.finite_volume import (
    dual_generator,
    duality_defect,
    primal_generator,
    with_dual_conditions,
    with_primal_conditions,
)
from graphdiff.galerkin import assemble_forms, l2_generator
from graphdiff.graphs import (
    InvalidGraphError,
    Side,
    load_graph,
    primal_condition_table,
    trace_functionals,
)
from graphdiff.grids import CELLS, NODES, EdgeGrid, make_grid

from conftest import end_values, make_path, traced_peak


# ---------------------------------------------------------------------------
# adjoint (cell-centred) generator

def test_sealed_edge_has_exact_cosine_eigenvectors(sealed_edge):
    # interior scheme identity: cos(k pi (j + 1/2) h) is an eigenvector of
    # the reflecting 3-point stencil with eigenvalue -(2/h^2)(1 - cos k pi h)
    m = 24
    grid = EdgeGrid(lengths=(1.0,), cells=(m,))
    gen = dual_generator(sealed_edge, grid, kappa=1.0)
    h = 1.0 / m
    x = grid.coords(0, CELLS)
    for k in (1, 2, 5):
        v = np.cos(k * np.pi * x)
        lam_h = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))
        assert_allclose(gen.matrix @ v, lam_h * v, atol=1e-9 * abs(lam_h))


def test_metzler_structure_first_order_traces(star_graph):
    grid = make_grid(star_graph, 0.1)
    a = dual_generator(star_graph, grid, kappa=7.0, trace_order=1).matrix.toarray()
    off = a - np.diag(np.diag(a))
    assert off.min() >= 0.0
    assert np.diag(a).max() < 0.0


def test_second_order_traces_break_metzler(star_graph):
    grid = make_grid(star_graph, 0.1)
    a = dual_generator(star_graph, grid, kappa=7.0, trace_order=2).matrix.toarray()
    off = a - np.diag(np.diag(a))
    assert off.min() < 0.0   # the extrapolation weight is signed


@pytest.mark.parametrize("order", [1, 2])
def test_conservative_columns_vanish(star_graph, order):
    grid = make_grid(star_graph, 0.05)
    gen = dual_generator(star_graph, grid, kappa=3.0, trace_order=order)
    w = grid.weights(CELLS)
    assert np.abs(w @ gen.matrix.toarray()).max() <= 1e-12 * gen.kappa / 0.05


@pytest.mark.parametrize("order", [1, 2])
def test_leak_rate_identity(leaky_star_graph, order):
    # weighted column sums, grouped by source edge, equal the membrane
    # imbalance sigma_j (passed - total) regardless of the trace order
    grid = make_grid(leaky_star_graph, 0.05)
    gen = dual_generator(leaky_star_graph, grid, kappa=3.0, trace_order=order)
    col = grid.weights(CELLS) @ gen.matrix.toarray()
    for j, e in enumerate(leaky_star_graph.edges):
        passed = sum(e.l_to.values()) + sum(e.r_to.values())
        expected = e.sigma * (passed - e.l - e.r)
        assert col[grid.block(j, CELLS)].sum() == pytest.approx(expected, abs=1e-10)


def test_trace_order_validation(star_graph):
    grid = make_grid(star_graph, 0.1)
    with pytest.raises(ValueError):
        dual_generator(star_graph, grid, kappa=1.0, trace_order=3)
    with pytest.raises(ValueError):
        dual_generator(star_graph, grid, kappa=0.0)
    for assemble in (dual_generator, primal_generator, assemble_forms):
        with pytest.raises(ValueError, match="finite"):
            assemble(star_graph, grid, kappa=np.inf)
    with pytest.raises(InvalidGraphError):
        from graphdiff.graphs import EdgeSpec, MetricGraph
        bad = MetricGraph((EdgeSpec(id="L", length=1.0, sigma=1.0,
                                    left_vertex="v", right_vertex="v"),))
        dual_generator(bad, make_grid(star_graph, 0.1), kappa=1.0)


def test_grid_graph_mismatch(star_graph, chain_graph):
    grid = make_grid(chain_graph, 0.1)
    with pytest.raises(ValueError):
        dual_generator(star_graph, grid, kappa=1.0)


def test_invalid_graph_reported_before_grid_mismatch(star_graph, chain_graph):
    # validation runs once, inside the exchange matrix, ahead of the grid,
    # kappa and trace-order checks of every assembler, in that order: each
    # call below fails every check from its own stage on
    from graphdiff.graphs import EdgeSpec, MetricGraph
    bad = MetricGraph((EdgeSpec(id="L", length=1.0, sigma=1.0,
                                left_vertex="v", right_vertex="v"),))
    grid = make_grid(star_graph, 0.1)
    wrong = make_grid(chain_graph, 0.1)
    for assemble in (
        lambda graph, grid, kappa, order: dual_generator(graph, grid, kappa, trace_order=order),
        lambda graph, grid, kappa, order: primal_generator(graph, grid, kappa),
        lambda graph, grid, kappa, order: assemble_forms(graph, grid, kappa),
    ):
        with pytest.raises(InvalidGraphError):
            assemble(bad, grid, 0.0, 3)
        with pytest.raises(ValueError, match="grid does not match"):
            assemble(star_graph, wrong, 0.0, 3)
        with pytest.raises(ValueError, match="kappa must be positive"):
            assemble(star_graph, grid, 0.0, 3)
    with pytest.raises(ValueError, match="trace_order must be 1 or 2"):
        dual_generator(star_graph, grid, 1.0, trace_order=3)


def test_kappa_enters_affinely(star_graph):
    # interior diffusion scales with kappa, membrane exchange does not:
    # A(kappa) = kappa * D + E, so increments in kappa are proportional
    grid = make_grid(star_graph, 0.1)
    a1 = dual_generator(star_graph, grid, kappa=1.0).matrix.toarray()
    a2 = dual_generator(star_graph, grid, kappa=2.0).matrix.toarray()
    a9 = dual_generator(star_graph, grid, kappa=9.0).matrix.toarray()
    assert_allclose(a9, a1 + 8.0 * (a2 - a1), rtol=1e-12)
    assert np.abs(a2 - a1).max() > 0.0
    # every generator's terms are (kappa S, C) at any kappa, and K their sum,
    # bit for bit
    gens = (
        dual_generator(star_graph, grid, 1.0, trace_order=1),
        dual_generator(star_graph, grid, 1.0, trace_order=2),
        primal_generator(star_graph, grid, 1.0),
        assemble_forms(star_graph, grid, 1.0),
    )
    for gen in gens:
        for kappa in (2.0, 9.0, 1e4):
            scaled = replace(gen, kappa=kappa)
            diffusion, coupling = scaled.terms
            assert np.array_equal(diffusion.toarray(), (kappa * gen.diffusion).toarray())
            assert np.array_equal(coupling.toarray(), gen.coupling.toarray())
            assert np.array_equal(scaled.flux.toarray(), (diffusion + coupling).toarray())


# ---------------------------------------------------------------------------
# forward (node-centred) generator

def test_forward_interior_matches_classical_stencil(chain_graph):
    grid = make_grid(chain_graph, 0.25)
    gen = primal_generator(chain_graph, grid, kappa=2.0)
    a = gen.matrix.toarray()
    blk = grid.block(0, NODES)
    h = grid.widths[0]
    row = a[blk.start + 2]
    want = np.zeros(gen.n)
    c = 2.0 * 1.0 / h**2
    want[blk.start + 1] = c
    want[blk.start + 2] = -2.0 * c
    want[blk.start + 3] = c
    assert_allclose(row, want, atol=1e-12)


def test_forward_conditions_annihilate_constants(star_graph, sealed_edge,
                                                 leaky_star_graph):
    # a flat profile carries no flux: when every membrane passes on all it
    # absorbs the transmission rows cancel exactly, sealed ends trivially so
    for g in (star_graph, sealed_edge):
        gen = primal_generator(g, make_grid(g, 0.05), kappa=3.0)
        assert np.abs(gen.matrix.toarray() @ np.ones(gen.n)).max() <= 1e-12
    # a leaking membrane keeps some of what it absorbs, so constants are
    # no longer in the kernel
    gen = primal_generator(leaky_star_graph, make_grid(leaky_star_graph, 0.05),
                           kappa=3.0)
    assert np.abs(gen.matrix.toarray() @ np.ones(gen.n)).max() > 1e-3


def test_forward_truncation_error_on_fitted_corpus(star_graph):
    # functions built to satisfy the flux conditions: applying the matrix
    # should reproduce kappa sigma f'' with errors that shrink like h^2 in
    # the interior and at least like h on the boundary rows
    kappa = 2.0
    rng = np.random.default_rng(5)
    coefs = with_primal_conditions(star_graph, kappa, rng.uniform(-1.0, 1.0, (3, 4)))
    errs = []
    for m in (40, 80):
        grid = make_grid(star_graph, 1.0 / m)
        gen = primal_generator(star_graph, grid, kappa)
        f = grid.sample(lambda i, x: polyval(x, coefs[i]), NODES)
        exact = grid.sample(
            lambda i, x: star_graph.edges[i].sigma * polyval(x, polyder(coefs[i], 2)), NODES
        )
        errs.append(np.abs(gen.matrix @ f - kappa * exact).max())
    assert errs[0] / errs[1] >= 1.9
    assert errs[1] <= 1.0


def test_forward_rejects_unfitted_function(star_graph):
    # a function ignoring the membranes leaves O(1/h) boundary residuals
    kappa = 2.0
    grid = make_grid(star_graph, 1.0 / 40)
    gen = primal_generator(star_graph, grid, kappa)
    f = grid.sample(lambda i, x: np.cos((i + 1) * x), NODES)
    exact = grid.sample(
        lambda i, x: -star_graph.edges[i].sigma * (i + 1) ** 2 * np.cos((i + 1) * x),
        NODES,
    )
    assert np.abs(gen.matrix @ f - kappa * exact).max() > 1.0


# ---------------------------------------------------------------------------
# entry-by-entry reference for the sparse builders

def _loop_flux(graph, grid, kappa, layout, table, traces):
    """K = kappa S - coupling(table, T) one entry at a time; ``traces``
    maps (edge, side) to the (unknown, weight) pairs of that trace."""
    off = grid.offsets(layout)
    k = np.zeros((off[-1], off[-1]))
    for i, e in enumerate(graph.edges):
        d = e.sigma / grid.widths[i]
        for a in range(off[i], off[i + 1] - 1):
            k[a, a] += kappa * d
            k[a + 1, a + 1] += kappa * d
            k[a, a + 1] -= kappa * d
            k[a + 1, a] -= kappa * d
        for side, row, sign in ((Side.LEFT, off[i], -1.0),
                                (Side.RIGHT, off[i + 1] - 1, 1.0)):
            func = table[i, side.value]
            for j, s in zip(*np.nonzero(func)):
                for col, weight in traces(j, s):
                    k[row, col] -= sign * e.sigma * func[j, s] * weight
    return k


def _ends(grid, layout):
    off = grid.offsets(layout)
    return lambda j, s: [(off[j + 1] - 1 if s else off[j], 1.0)]


def _second_order(grid):
    off = grid.cell_offsets
    return lambda j, s: (
        [(off[j + 1] - 1, 1.5), (off[j + 1] - 2, -0.5)] if s
        else [(off[j], 1.5), (off[j] + 1, -0.5)]
    )


def test_builders_match_loop_reference(star_graph, leaky_star_graph, chain_graph):
    # summation order differs from the loop, so allow a few ulps of the
    # largest entry
    tol = 8 * np.finfo(float).eps
    kappa = 7.0
    for g in (star_graph, leaky_star_graph, chain_graph):
        grid = make_grid(g, 0.25)
        f, fg = trace_functionals(g), primal_condition_table(g)
        cases = [
            (dual_generator(g, grid, kappa, 1).flux, CELLS, f, _ends(grid, CELLS)),
            (dual_generator(g, grid, kappa, 2).flux, CELLS, f, _second_order(grid)),
            (primal_generator(g, grid, kappa).flux, NODES, fg, _ends(grid, NODES)),
            (l2_generator(assemble_forms(g, grid, kappa)).flux, NODES, f,
             _ends(grid, NODES)),
        ]
        for flux, layout, table, traces in cases:
            want = _loop_flux(g, grid, kappa, layout, table, traces)
            assert_allclose(flux.toarray(), want, rtol=0,
                            atol=tol * np.abs(want).max())
        # P1 mass from the element matrices (h/6) [[2, 1], [1, 2]]
        mass = np.zeros((grid.size(NODES),) * 2)
        for i in range(g.n_edges):
            h = grid.widths[i]
            for a in range(grid.node_offsets[i], grid.node_offsets[i + 1] - 1):
                mass[np.ix_([a, a + 1], [a, a + 1])] += h / 6.0 * np.array([[2, 1], [1, 2]])
        assert_allclose(assemble_forms(g, grid, kappa).mass.toarray(), mass,
                        rtol=0, atol=tol * mass.max())


# ---------------------------------------------------------------------------
# fitted cubics: (n_edges, 4) arrays of ascending coefficients

def test_fitted_slopes_meet_conditions(star_graph):
    kappa = 3.0
    rng = np.random.default_rng(17)
    raw = rng.uniform(-1.0, 1.0, (3, 4))
    d = star_graph.lengths
    for coefs, table in (
        (with_primal_conditions(star_graph, kappa, raw), primal_condition_table(star_graph)),
        (with_dual_conditions(star_graph, kappa, raw), trace_functionals(star_graph)),
    ):
        targets = np.einsum("isjt,jt->is", table, end_values(coefs, d))
        slopes = end_values(coefs, d, 1)
        for i in range(3):
            assert kappa * slopes[i, 0] == pytest.approx(targets[i, 0], abs=1e-12)
            assert kappa * slopes[i, 1] == pytest.approx(targets[i, 1], abs=1e-12)
        # the correction never moves endpoint values
        for p, q in zip(end_values(raw, d), end_values(coefs, d)):
            assert p[0] == pytest.approx(q[0])


def test_fits_form_no_dense_table_on_a_long_path():
    # the dense (n, 2, n, 2) condition tables are 32 MB each at 1000 edges;
    # the fits read the sparse conditions, two entries per endpoint
    graph = make_path(1000)
    graph.exchange   # built and validated once, outside the measurement
    rng = np.random.default_rng(29)
    raw = rng.uniform(-1.0, 1.0, (graph.n_edges, 4))
    for fit, table in ((with_primal_conditions, primal_condition_table),
                       (with_dual_conditions, trace_functionals)):
        fitted = []
        assert traced_peak(lambda: fitted.append(fit(graph, 2.0, raw))) <= 2e6
        ends = end_values(fitted[0], graph.lengths)
        slopes = end_values(fitted[0], graph.lengths, 1)
        want = np.einsum("isjt,jt->is", table(graph), ends)
        assert_allclose(2.0 * slopes, want, rtol=0, atol=1e-12)


def test_fitting_validates_inputs(star_graph):
    for shape in ((1, 4), (3, 3), (3, 4, 1)):
        with pytest.raises(ValueError, match=rf"\(3, 4\), got {re.escape(str(shape))}"):
            with_primal_conditions(star_graph, 1.0, np.ones(shape))
    with pytest.raises(ValueError):
        with_primal_conditions(star_graph, -1.0, np.ones((3, 4)))
    for fit in (with_primal_conditions, with_dual_conditions):
        with pytest.raises(ValueError, match="finite"):
            fit(star_graph, np.inf, np.ones((3, 4)))


# ---------------------------------------------------------------------------
# forward/adjoint pairing

@pytest.mark.parametrize("order", [1, 2])
def test_duality_defect_shrinks(star_graph, order):
    kappa = 1.5
    rng = np.random.default_rng(23)
    f = with_primal_conditions(star_graph, kappa, rng.uniform(-1, 1, (3, 4)))
    phi = with_dual_conditions(star_graph, kappa, rng.uniform(-1, 1, (3, 4)))
    defects = [
        duality_defect(star_graph, make_grid(star_graph, h), kappa, f, phi,
                       trace_order=order)
        for h in (0.1, 0.05, 0.025)
    ]
    assert defects[1] <= 0.75 * defects[0]
    assert defects[2] <= 0.75 * defects[1]


# ---------------------------------------------------------------------------
# the kappa-affine record

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("h", [0.05, 0.005])
@pytest.mark.parametrize("config", ["star.json", "chain.json"])
def test_replaced_kappa_is_a_fresh_assembly(config, h):
    # only the diffusion form carries kappa, so moving an assembled record
    # to another kappa gives the bits of assembling there
    graph = load_graph(CONFIGS / config)
    grid = make_grid(graph, h)
    builders = {
        "fv order 1": lambda k: dual_generator(graph, grid, k, trace_order=1),
        "fv order 2": lambda k: dual_generator(graph, grid, k, trace_order=2),
        "fd": lambda k: primal_generator(graph, grid, k),
        "p1": lambda k: l2_generator(assemble_forms(graph, grid, k)),
    }
    for name, build in builders.items():
        for base, kappa in ((1.0, 10.0), (1.0, 1e4), (3.0, 1e3)):
            moved = replace(build(base), kappa=kappa).flux
            fresh = build(kappa).flux
            for part in ("data", "indices", "indptr"):
                assert getattr(moved, part).tobytes() == getattr(fresh, part).tobytes(), (
                    name, base, kappa, part)
