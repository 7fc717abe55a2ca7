"""Per-edge 1-d grids and packed grid functions.

Two layouts are used throughout:

* ``"cells"`` -- cell-centered values (finite volume); weights are the
  cell widths, so the weighted sum is the midpoint-rule integral,
* ``"nodes"`` -- nodal values including both endpoints (finite
  differences / P1 elements); weights are composite-trapezoid weights.

A grid function is a plain array: the values for all edges packed into
one flat array, edge blocks in edge order.  ``EdgeGrid`` holds the maps
that act on it (``offsets``, ``block``, ``weights``, ``averaging``); no
wrapper type carries the grid along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

CELLS = "cells"
NODES = "nodes"
_LAYOUTS = (CELLS, NODES)
# the most points a packed float grid function can hold
_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class EdgeGrid:
    """Uniform grid per edge: edge i gets cells[i] >= 2 cells of width
    lengths[i] / cells[i]."""

    lengths: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=float)
        cells = np.asarray(self.cells, dtype=int)
        if lengths.ndim != 1 or lengths.shape != cells.shape:
            raise ValueError("lengths and cells must be 1-d arrays of equal size")
        if not np.all(np.isfinite(lengths)) or np.any(lengths <= 0):
            raise ValueError(f"edge lengths must be positive and finite, got {lengths}")
        if np.any(cells < 2):
            raise ValueError("need at least 2 cells per edge")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "cells", cells)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    @cached_property
    def widths(self) -> np.ndarray:
        return self.lengths / self.cells

    @cached_property
    def cell_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.cells)])

    @cached_property
    def node_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.cells + 1)])

    def offsets(self, layout: str) -> np.ndarray:
        """Where each edge's block starts in the packed array, then the
        total size."""
        _check_layout(layout)
        return self.cell_offsets if layout == CELLS else self.node_offsets

    def size(self, layout: str) -> int:
        return int(self.offsets(layout)[-1])

    def block(self, edge: int, layout: str) -> slice:
        """Flat-array slice of one edge's values."""
        off = self.offsets(layout)
        return slice(int(off[edge]), int(off[edge + 1]))

    def averaging(self, layout: str) -> sp.csr_matrix:
        """P, the (n_edges, size) map from packed values to edge averages:
        row i holds edge i's quadrature weights divided by its length."""
        off = self.offsets(layout)
        values = self.weights(layout) / np.repeat(self.lengths, np.diff(off))
        shape = (self.n_edges, off[-1])
        return sp.csr_matrix((values, np.arange(off[-1]), off), shape=shape)

    def coords(self, edge: int, layout: str) -> np.ndarray:
        """Local coordinates (0 .. length) of one edge's points."""
        _check_layout(layout)
        m = int(self.cells[edge])
        h = self.widths[edge]
        if layout == CELLS:
            return (np.arange(m) + 0.5) * h
        return np.arange(m + 1) * h

    def weights(self, layout: str) -> np.ndarray:
        """Quadrature weights matching the layout, packed like values."""
        _check_layout(layout)
        if layout == CELLS:
            return np.repeat(self.widths, self.cells)
        out = np.repeat(self.widths, self.cells + 1)
        off = self.node_offsets
        out[np.concatenate([off[:-1], off[1:] - 1])] /= 2.0
        return out

    def sample(self, f, layout: str) -> np.ndarray:
        """Pack f(edge_index, local_coords) into a flat array."""
        out = np.empty(self.size(layout))
        for i in range(self.n_edges):
            blk = self.block(i, layout)
            out[blk] = np.asarray(f(i, self.coords(i, layout)), dtype=float)
        return out


def _check_layout(layout: str):
    if layout not in _LAYOUTS:
        raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")


def make_grid(graph, target_width: float) -> EdgeGrid:
    """Grid with cell width <= target_width on every edge (>= 2 cells).
    MemoryError if a packed grid function would not fit in one float
    array."""
    if not target_width > 0:
        raise ValueError("target_width must be positive")
    cells, nodes = [], 0
    for edge_id, d in zip(graph.edge_ids, graph.lengths.tolist()):
        # the -1e-9 guard keeps e.g. ceil(1.0 / 0.005) from rounding to 201
        count = d / target_width - 1e-9
        if not nodes + count + 1 < _MAX_POINTS:
            raise MemoryError(
                f"edge {edge_id!r} of length {d:g} needs {count:.3g} cells of "
                f"width {target_width:g}: the grid is too large to index"
            )
        cells.append(max(2, math.ceil(count)))
        nodes += cells[-1] + 1
    return EdgeGrid(lengths=graph.lengths, cells=np.asarray(cells, dtype=int))


def edge_indicator(edge: int):
    """Initial-condition helper: 1 on one edge, 0 elsewhere."""

    def f(i, x):
        return np.full_like(np.asarray(x, dtype=float), 1.0 if i == edge else 0.0)

    return f
