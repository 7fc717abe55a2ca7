from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphdiff.chain import (
    DUAL,
    PRIMAL,
    PiecewiseConstant,
    chain_generator,
    project_averages,
    propagator,
)
from graphdiff.cli import main
from graphdiff.graphs import EdgeSpec, InvalidGraphError, MetricGraph, load_graph
from graphdiff.grids import CELLS, NODES, EdgeGrid

from conftest import make_chain, make_path, traced_peak, write_config
from reference import convert, mass_rate


def expm_taylor(m, terms=50):
    """Plain truncated series; fine as an oracle for these tiny matrices."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_two_edge_generator_frozen_values():
    q = chain_generator(make_chain(), DUAL)
    assert_allclose(q.toarray(), [[-1.0, 1.0], [0.5, -0.5]])
    # equal sigma: the two variants coincide
    qp = chain_generator(make_chain(), PRIMAL)
    assert_allclose(qp.toarray(), q.toarray())


def test_two_edge_generator_sigma_weighting():
    qd = chain_generator(make_chain(sigma1=2.0), DUAL)
    qp = chain_generator(make_chain(sigma1=2.0), PRIMAL)
    assert_allclose(qd.toarray(), [[-2.0, 1.0], [1.0, -0.5]])
    assert_allclose(qp.toarray(), [[-2.0, 2.0], [0.5, -0.5]])


def test_rejects_invalid_graph():
    bad = MetricGraph((
        EdgeSpec(id="A", length=1.0, sigma=1.0, left_vertex="v", right_vertex="v"),
    ))
    with pytest.raises(InvalidGraphError):
        chain_generator(bad, DUAL)


def test_unknown_variant(chain_graph):
    with pytest.raises(ValueError):
        chain_generator(chain_graph, "sideways")


def test_star_generator_row_structure(star_graph):
    q = chain_generator(star_graph, DUAL).toarray()
    sig = star_graph.sigmas
    # diagonal carries the total permeability of each edge
    assert q[0, 0] == pytest.approx(-sig[0] * 1.0)
    assert q[1, 1] == pytest.approx(-sig[1] * 0.9)
    assert q[2, 2] == pytest.approx(-sig[2] * 1.1)
    assert np.all(q - np.diag(np.diag(q)) >= 0.0)


def test_weighted_column_identity(star_graph, leaky_star_graph):
    # against each source edge j:  sum_i d_i q_ij = sigma_j (passed - total)
    for g in (star_graph, leaky_star_graph):
        col = g.lengths @ chain_generator(g, DUAL)
        expected = np.empty(3)
        for j, e in enumerate(g.edges):
            passed = sum(e.l_to.values()) + sum(e.r_to.values())
            expected[j] = e.sigma * (passed - e.l - e.r)
        assert_allclose(col, expected, atol=1e-14)
        assert_allclose(mass_rate(g), col, atol=1e-14)


def test_conservative_columns_vanish(star_graph):
    q = chain_generator(star_graph, DUAL)
    assert_allclose(star_graph.lengths @ q, 0.0, atol=1e-14)


def test_chain_generator_stays_sparse_on_a_long_path():
    # a dense n_edges^2 Q is 8 MB at 1000 edges; the sparse one holds the
    # diagonal and the two neighbours of each edge
    graph = make_path(1000)
    graph.exchange   # built and validated once, outside the measurement
    qs = {}

    def build():
        for variant in (DUAL, PRIMAL):
            qs[variant] = chain_generator(graph, variant)

    assert traced_peak(build) <= 2e6
    for q in qs.values():
        assert q.nnz == 3 * 1000 - 2
    assert_allclose(mass_rate(graph), 0.0, atol=1e-14)


def _limit_q_mass_rate(config, tmp_path):
    out = tmp_path / "q.csv"
    assert main(["limit-q", "--graph", str(config), "--out", str(out)]) == 0
    label, edge, *cells = out.read_text().splitlines()[-1].split(",")
    assert (label, edge) == ("mass_rate", "")
    return np.array(cells, dtype=float)   # 17 digits round-trip exactly


def test_mass_rate_matches_the_dense_column_sums(tmp_path):
    # limit-q's d^T Q from the sparse Q: bit for bit on the shipped
    # configs, and within an ulp of the dense sums on a long conservative
    # path
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("star.json", "chain.json"):
        g = load_graph(configs / name)
        assert np.array_equal(_limit_q_mass_rate(configs / name, tmp_path),
                              g.lengths @ chain_generator(g, DUAL).toarray())
    config = write_config(make_path(1000, seed=3), tmp_path / "path.json")
    g = load_graph(config)
    dense = g.lengths @ chain_generator(g, DUAL).toarray()
    assert np.abs(_limit_q_mass_rate(config, tmp_path) - dense).max() <= 4.5e-16


class TestPropagator:
    def test_matches_series_oracle(self, star_graph):
        q = chain_generator(star_graph, DUAL)
        for t in (0.1, 0.5, 2.0):
            assert_allclose(propagator(q, t), expm_taylor(t * q.toarray()),
                            rtol=1e-13, atol=1e-15)

    def test_zero_time_is_identity(self, star_graph):
        q = chain_generator(star_graph, DUAL)
        assert_allclose(propagator(q, 0.0), np.eye(3))

    def test_negative_time_rejected(self, star_graph):
        q = chain_generator(star_graph, DUAL)
        with pytest.raises(ValueError):
            propagator(q, -0.5)
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                propagator(q, t)

    def test_positivity_and_mass(self, star_graph, leaky_star_graph):
        for g, conserves in ((star_graph, True), (leaky_star_graph, False)):
            q = chain_generator(g, DUAL)
            for t in (0.25, 1.0, 4.0):
                p = propagator(q, t)
                assert p.min() >= -1e-12
                masses = g.lengths @ p   # weighted column sums evolve mass
                if conserves:
                    assert_allclose(masses, g.lengths, atol=1e-10)
                else:
                    assert np.all(masses <= g.lengths + 1e-12)


def test_project_averages_inverts_lift():
    grid = EdgeGrid(lengths=(1.0, 2.0), cells=(8, 8))
    for layout in (CELLS, NODES):
        lifted = PiecewiseConstant([2.0, 3.0], grid.lengths).lift(grid, layout)
        assert lifted.shape == (grid.size(layout),)
        assert_allclose(project_averages(grid, layout, lifted), [2.0, 3.0])


def test_project_averages_weighted():
    grid = EdgeGrid(lengths=(1.0,), cells=(64,))
    f = grid.sample(lambda i, x: x, CELLS)
    # midpoint sums integrate linear functions exactly
    assert_allclose(project_averages(grid, CELLS, f), [0.5])


def test_project_averages_on_nodes_matches_per_edge_sums():
    grid = EdgeGrid(lengths=(1.0, 2.0, 0.5), cells=(4, 7, 3))
    f = grid.sample(lambda i, x: np.cos(3.0 * x) + i * x**2, NODES)
    w = grid.weights(NODES)
    expected = [
        np.dot(w[grid.block(i, NODES)], f[grid.block(i, NODES)]) / grid.lengths[i]
        for i in range(grid.n_edges)
    ]
    assert_allclose(project_averages(grid, NODES, f), expected, rtol=1e-15, atol=1e-15)


def test_csv_round_trip(chain_graph, tmp_path):
    out = tmp_path / "q.csv"
    config = write_config(chain_graph, tmp_path / "chain.json")
    assert main(["limit-q", "--graph", config, "--out", str(out)]) == 0
    dual = chain_generator(chain_graph, DUAL)
    primal = chain_generator(chain_graph, PRIMAL)
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,edge,E1,E2"
    assert lines[1] == "dual,E1,-1,1"
    assert lines[-1].startswith("mass_rate")
    assert (convert(dual) != convert(primal)).nnz == 0
    sig_chain = make_chain(sigma1=2.0)
    dual = chain_generator(sig_chain, DUAL)
    primal = chain_generator(sig_chain, PRIMAL)
    # the off-diagonal pair differs once sigma does
    assert (convert(dual) != convert(primal)).nnz == 2
