"""The Markov-chain limit on the edge set.

In the fast-diffusion limit a solution flattens on each edge, so the
state space collapses to one number per edge: the vertices of the line
graph.  This module builds the projection onto edge-wise averages and the
limit generator matrix, in its two variants.  Both are the graph's
endpoint exchange matrix X (``MetricGraph.exchange``) restricted to
edge sums,

* ``"dual"``   -- Q = D^-1 R X^T R^T, the flux (adjoint) dynamics; the
  off-diagonal rate into edge i from edge j is sigma_j * (l_ji + r_ji) / d_i,
* ``"primal"`` -- Q = D^-1 R X R^T, the forward dynamics; the rate is
  sigma_i * (l_ij + r_ij) / d_i,

with R summing each edge's two endpoints and D = diag(lengths).  Both
share the diagonal -sigma_i * (l_i + r_i) / d_i.  The dual variant
satisfies the weighted column identity

    sum_i d_i q_ij = sigma_j * (sum_{i != j} (l_ji + r_ji) - l_j - r_j),

which is <= 0 and vanishes exactly for conservative graphs; lengths act
as the stationary reference weights.

``chain_generator`` returns Q itself, a scipy.sparse csr matrix, kept
sparse like X: an edge only exchanges with the edges it meets at a
vertex.  Its rows and columns follow ``graph.edge_ids``.  The dense
n_edges x n_edges view is formed only by the ``expm`` reference
``propagator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .graphs import MetricGraph
from .grids import EdgeGrid

DUAL = "dual"
PRIMAL = "primal"
_VARIANTS = (DUAL, PRIMAL)


@dataclass(frozen=True)
class PiecewiseConstant:
    """One value per edge, normed with the edge lengths as weights."""

    values: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        lengths = np.asarray(self.lengths, dtype=float)
        if values.shape != lengths.shape or values.ndim != 1:
            raise ValueError("values and lengths must be 1-d arrays of equal size")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)

    def lift(self, grid: EdgeGrid, layout: str) -> np.ndarray:
        """Embed back as an edge-wise constant packed grid function."""
        if grid.n_edges != len(self.values):
            raise ValueError("grid edge count does not match")
        return np.repeat(self.values, np.diff(grid.offsets(layout)))


def project_averages(grid: EdgeGrid, layout: str, values) -> np.ndarray:
    """Average of a packed grid function over each edge: the projection
    onto edge-wise constants."""
    return grid.averaging(layout) @ np.asarray(values, dtype=float)


def chain_generator(graph: MetricGraph, variant: str = DUAL) -> sp.csr_matrix:
    """The limit generator Q of a valid graph, sparse; row i holds entries
    only for the edges that edge i meets."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    exchange = graph.exchange
    flow = (exchange.T if variant == DUAL else exchange).tocoo()
    # R flow R^T: endpoint 2*edge + side belongs to row/column edge; an
    # entry sums at most two endpoint pairs, so the order cannot matter
    q = sp.csr_matrix(
        (flow.data, (flow.row // 2, flow.col // 2)),
        shape=(graph.n_edges, graph.n_edges),
    )
    q.data /= np.repeat(graph.lengths, np.diff(q.indptr))
    return q


def propagator(q: sp.csr_matrix, t: float) -> np.ndarray:
    """exp(t Q) by scaling and squaring: the dense reference for the
    sweep's sparse Krylov limit chain."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0:
        return np.eye(q.shape[0])
    return scipy.linalg.expm(t * q.toarray())


def mass_rate(graph: MetricGraph) -> np.ndarray:
    """Weighted column sums d^T Q of the dual generator: rate of
    total-mass change per unit of density sitting on each edge.  Zero iff
    the graph is conservative."""
    return chain_generator(graph, DUAL).T @ graph.lengths
