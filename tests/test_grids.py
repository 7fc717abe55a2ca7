import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphdiff.chain import PiecewiseConstant
from graphdiff.graphs import EdgeSpec, MetricGraph
from graphdiff.grids import CELLS, NODES, EdgeGrid, edge_indicator, make_grid


@pytest.fixture
def grid():
    return EdgeGrid(lengths=(1.0, 2.0), cells=(4, 5))


def test_sizes_and_blocks(grid):
    assert grid.size(CELLS) == 9
    assert grid.size(NODES) == 4 + 1 + 5 + 1
    assert grid.block(0, CELLS) == slice(0, 4)
    assert grid.block(1, CELLS) == slice(4, 9)
    assert grid.block(1, NODES) == slice(5, 11)


def test_coords(grid):
    x0 = grid.coords(0, CELLS)
    assert_allclose(x0, [0.125, 0.375, 0.625, 0.875])
    n1 = grid.coords(1, NODES)
    assert_allclose(n1, np.linspace(0.0, 2.0, 6))


def test_cell_weights_sum_to_lengths(grid):
    w = grid.weights(CELLS)
    assert_allclose(w[grid.block(0, CELLS)].sum(), 1.0)
    assert_allclose(w[grid.block(1, CELLS)].sum(), 2.0)


def test_node_weights_are_trapezoid(grid):
    w = grid.weights(NODES)
    blk = w[grid.block(0, NODES)]
    assert_allclose(blk, [0.125, 0.25, 0.25, 0.25, 0.125])
    # integrating a linear function with them is exact
    x = grid.coords(0, NODES)
    assert_allclose(np.dot(blk, 3.0 * x + 1.0), 2.5)


def test_make_grid_resolution(star_graph):
    g = make_grid(star_graph, 0.05)
    assert list(g.cells) == [20, 20, 20]
    tiny = make_grid(star_graph, 10.0)
    assert list(tiny.cells) == [2, 2, 2]   # never fewer than two cells


def test_make_grid_uneven_lengths(chain_graph):
    g = make_grid(chain_graph, 0.3)
    # ceil(1/0.3) = 4, ceil(2/0.3) = 7
    assert list(g.cells) == [4, 7]


@pytest.mark.parametrize("length, width, message", [
    (1.0, 1e-300, "edge 'E1' of length 1 needs 1e+300 cells of width 1e-300"),
    (1e308, 0.5, "edge 'E1' of length 1e+308 needs inf cells of width 0.5"),
    # each edge's cells fit in one array, the three together do not
    (1.0, 1e-18, "edge 'E2' of length 1 needs 1e+18 cells of width 1e-18"),
])
def test_make_grid_too_large_to_index_is_out_of_memory(length, width, message):
    # a cell count beyond one float array's reach is a grid the machine
    # cannot hold, not an OverflowError from the integer conversion
    graph = MetricGraph(tuple(
        EdgeSpec(id=f"E{k + 1}", length=length, sigma=1.0,
                 left_vertex=f"v{k}", right_vertex=f"v{k + 1}")
        for k in range(3)
    ))
    with pytest.raises(MemoryError) as exc:
        make_grid(graph, width)
    assert str(exc.value) == f"{message}: the grid is too large to index"


def test_sample_and_indicator(grid):
    f = grid.sample(edge_indicator(1), CELLS)
    assert f.shape == (grid.size(CELLS),)
    assert_allclose(f[grid.block(0, CELLS)], 0.0)
    assert_allclose(f[grid.block(1, CELLS)], 1.0)


def test_lift_constants_round_trip(grid):
    lifted = PiecewiseConstant([2.0, -3.0], grid.lengths).lift(grid, NODES)
    assert lifted.shape == (grid.size(NODES),)
    assert_allclose(lifted[grid.block(0, NODES)], 2.0)
    assert_allclose(lifted[grid.block(1, NODES)], -3.0)


def test_bad_construction():
    with pytest.raises(ValueError):
        EdgeGrid(lengths=(1.0,), cells=(0,))          # too coarse
    with pytest.raises(ValueError):
        EdgeGrid(lengths=(1.0, 1.0), cells=(4,))      # mismatched
    with pytest.raises(ValueError):
        EdgeGrid(lengths=(-1.0,), cells=(4,))
    for length in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            EdgeGrid(lengths=(length,), cells=(4,))
