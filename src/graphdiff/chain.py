"""The Markov-chain limit on the edge set, under the names its readers use.

In the fast-diffusion limit a solution flattens on each edge, so the
state space collapses to one number per edge.  ``finite_volume.chain_form``
builds the limit generator Q, and its docstring states both variants'
rates and the weighted column identity.  No command imports this module:
``limit-q`` lists ``chain_form`` itself.  Its names are read by
``graphdiff``'s lazy name table (``DUAL``, ``chain_generator``), the
tests and the layer tracer ``bench/traced.py``: ``chain_generator``
names ``chain_form``'s ``adjoint`` flag ``"dual"`` or ``"primal"``,
``propagator`` is the dense ``expm`` reference, and ``PiecewiseConstant``
and ``project_averages`` lift edge values and take edge averages.
"""

from __future__ import annotations

import numpy as np

from ._banded import Banded
from .finite_volume import chain_form
from .graphs import MetricGraph
from .grids import EdgeGrid

DUAL = "dual"
PRIMAL = "primal"
_VARIANTS = (DUAL, PRIMAL)


class PiecewiseConstant:
    """One value per edge, normed with the edge lengths as weights."""

    def __init__(self, values, lengths):
        values = np.asarray(values, dtype=float)
        lengths = np.asarray(lengths, dtype=float)
        if values.shape != lengths.shape or values.ndim != 1:
            raise ValueError("values and lengths must be 1-d arrays of equal size")
        self.values, self.lengths = values, lengths

    def lift(self, grid: EdgeGrid, layout: str) -> np.ndarray:
        """Embed back as an edge-wise constant packed grid function."""
        if grid.n_edges != len(self.values):
            raise ValueError("grid edge count does not match")
        return np.repeat(self.values, np.diff(grid.offsets(layout)))


def project_averages(grid: EdgeGrid, layout: str, values) -> np.ndarray:
    """Average of a packed grid function over each edge: the projection
    onto edge-wise constants."""
    return grid.averaging(layout, values)


def chain_generator(graph: MetricGraph, variant: str = DUAL) -> Banded:
    """The limit generator Q of a valid graph; row i holds entries only
    for the edges that edge i meets."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    return chain_form(graph, adjoint=variant == DUAL).matrix


def propagator(q: Banded, t: float) -> np.ndarray:
    """exp(t Q) by scaling and squaring: the dense reference for the
    sweep's sparse Krylov limit chain."""
    if not 0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0:
        return np.eye(q.n)
    import scipy.linalg

    return scipy.linalg.expm(t * q.toarray())

