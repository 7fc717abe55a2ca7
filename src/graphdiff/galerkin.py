"""P1 Galerkin discretization of the adjoint dynamics in L2.

The weak formulation splits into a pair of forms on piecewise-H1
functions over the disjoint edges:

    b(u, v) = kappa * sum_i sigma_i * integral u' v'      (>= 0, stiffness)
    c(u, v) = sum_i sigma_i * (F[i,L](u) v(L_i) - F[i,R](u) v(R_i))
            = -(E v)^T X^T (E u)

with F the trace functionals, X the exchange matrix of the graph and E
the selection of endpoint values; c is independent of kappa and couples
only endpoint values.  With M the (unweighted) mass matrix the semidiscrete
dynamics are  M u' = -(B + C) u.  ``assemble_forms`` is the
finite-volume module's one assembly routine on nodes, with Y = X^T and
the P1 mass given (B = kappa S, C = -E^T X^T E), so the returned
``DiscreteGenerator`` keeps S and C apart and one assembly serves every
kappa; the propagator works on the sparse M and ``gen.terms`` = (B, C)
and factors M + (B + C)/gamma.  The generator -M^{-1} (B + C) is dense,
and the package never forms it.

Restricted to edge-wise constants, -M^{-1} C followed by edge averaging
reproduces the limit chain generator exactly (endpoint traces of
constants are exact).
"""

from __future__ import annotations

import scipy.sparse as sp

from .finite_volume import DiscreteGenerator, _assemble, _differences
from .graphs import MetricGraph
from .grids import NODES, EdgeGrid


def assemble_forms(graph: MetricGraph, grid: EdgeGrid, kappa: float) -> DiscreteGenerator:
    """The P1 generator: the one finite-volume assembly on the per-edge
    node grid (no cross-edge DOFs) with C = -E^T X^T E and the
    consistent mass: with P = |G| the element sums and w the trapezoid
    weights, the element mass (h/6)[[2,1],[1,2]] assembles to
    M = P^T diag(h/6) P + diag(w)/3.
    """
    diff, edge = _differences(grid, NODES)
    sums = abs(diff)
    mass = sums.T @ sp.diags(grid.widths[edge] / 6.0) @ sums
    mass = mass + sp.diags(grid.weights(NODES) / 3.0)
    return _assemble(graph, grid, kappa, NODES, adjoint=True, mass=mass.tocsr())


def l2_generator(gen: DiscreteGenerator) -> DiscreteGenerator:
    """The generator itself: ``assemble_forms`` already returns the pair
    (M, kappa S + C).  Kept as a name for callers that still take it."""
    return gen
