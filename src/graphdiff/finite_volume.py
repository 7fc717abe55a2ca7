"""Mass-exact discretizations of the edge diffusion with membrane fluxes.

Adjoint side (cell-centered finite volume).  On edge i with cell width h,
cell averages evolve by flux differences of kappa * sigma_i * phi'; at
interior faces the gradient is the usual two-point difference, at the
edge ends the exact membrane flux kappa * sigma_i * phi'(end) is replaced
by sigma_i * F[i, side](traces), the trace functionals from the graph.
Endpoint traces come from cell values by

* ``trace_order=1``: nearest cell average (nonnegative stencil, so the
  matrix is Metzler and the semigroup positivity-preserving),
* ``trace_order=2``: linear extrapolation 1.5 v0 - 0.5 v1 from two cells
  per edge at least (sharper, but positivity may fail).

Because fluxes telescope, the weighted row vector w^T A (w = cell widths)
is supported on boundary cells only and its sum over the cells of edge j
is exactly sigma_j (sum_i (l_ji + r_ji) - l_j - r_j): total mass obeys the
same budget as the limit chain and is conserved exactly on conservative
graphs.

Forward side (node-centered finite differences).  Nodal values with the
standard 3-point interior stencil; boundary rows eliminate the ghost node
through the transmission condition kappa f'(end) = G[i, side](endpoint
values), second order.

``duality_defect`` pairs the two: for f satisfying the forward conditions
and phi the adjoint ones, <phi, A f> and <A* phi, f> must approach each
other under refinement (the continuum pairing is an exact identity).
Its test functions are cubics on each edge, held as one (n_edges, 4)
array of ascending coefficients; ``with_primal_conditions`` and
``with_dual_conditions`` fit such an array to the conditions in one
array operation.  One Horner pass (``_sample``) evaluates them on a whole
layout, and at the edge ends for the fit, bit for bit as ``polyval``.

All three discretizations (these two and P1 Galerkin in ``galerkin``)
are ``DiscreteGenerator`` records of the mass form  M u' = -K u  with
K = kappa S + C, and all come from one routine, ``_assemble``: the
tridiagonal diffusion form S = G^T diag(sigma/h) G, the endpoint
coupling C = -E^T Y T (Y = X or X^T), an index map of Y's entries onto
the edge-end unknowns, and M = diag(w) unless a consistent mass is
given; each is a ``_banded.Banded`` record, built without a sparse
product.  Only S carries kappa, so one assembly serves every kappa.  Each
builder names only its own choices: cells, X^T and the trace order
here; nodes and X for the forward side (its coupling is the transpose of
the adjoint one); nodes, X^T and the P1 mass in ``galerkin``; one cell
per edge for the limit chain (``chain_form``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._banded import Banded
from .graphs import MetricGraph, endpoint_conditions, require_valid
from .grids import CELLS, NODES, EdgeGrid


@dataclass(frozen=True)
class DiscreteGenerator:
    """A generator in mass form  M u' = -(kappa S + C) u.

    Only the diffusion form S depends on the speed parameter, so
    ``dataclasses.replace(gen, kappa=k)`` is the same discretization at
    kappa = k.  Finite volumes and finite differences have the diagonal
    mass diag(w), w the layout's quadrature weights (``EdgeGrid.weights``,
    which make <w, u> the discrete integral over the graph); P1 Galerkin
    has the consistent, tridiagonal mass matrix.  All three are
    ``_banded.Banded`` records; ``_stepping.krylov_apply`` takes ``mass``
    and ``terms`` for either and row-scales both by diag(M)
    (``_stepping.row_scaled``).
    """

    mass: Banded
    diffusion: Banded
    coupling: Banded
    kappa: float

    @property
    def n(self) -> int:
        return self.mass.n

    @cached_property
    def terms(self) -> tuple:
        """The two terms (kappa S, C) of K, unsummed."""
        return self.kappa * self.diffusion, self.coupling

    @cached_property
    def flux(self) -> Banded:
        """K = kappa S + C, the sum of ``terms``."""
        return self.terms[0] + self.terms[1]

    @cached_property
    def matrix(self) -> Banded:
        """A = -W^{-1} K with u' = A u, formed on first read, for a
        diagonal mass W only: the consistent P1 mass raises ValueError, as
        its A would be dense."""
        if self.mass.lower.any() or self.mass.upper.any() or self.mass.vals.any():
            raise ValueError("the generator matrix -M^-1 K is formed for a diagonal mass only")
        return self.flux.scale_rows(-1.0 / self.mass.diagonal())


def _pair_form(grid: EdgeGrid, layout: str, per_edge, sign: float) -> Banded:
    """sum_k w_k (e_k + sign e_k+1)(e_k + sign e_k+1)^T over neighbours k,
    k + 1 inside an edge, w_k = ``per_edge`` of that edge: G^T diag(w) G
    for sign -1 (G the differences), |G|^T diag(w) |G| for +1."""
    off = grid.offsets(layout)
    first = np.delete(np.arange(off[-1]), off[1:] - 1)
    second, w = first + 1, np.repeat(per_edge, np.diff(off) - 1)
    return Banded.from_triplets(
        int(off[-1]), np.concatenate([first, second, first, second]),
        np.concatenate([first, second, second, first]),
        np.concatenate([w, w, sign * w, sign * w]),
    )


def _assemble(
    graph, grid: EdgeGrid, kappa: float, layout: str, adjoint: bool,
    trace_order: int = 1, mass=None,
) -> DiscreteGenerator:
    """M u' = -(kappa S + C) u on ``layout``, after checking the graph (by
    building X), the grid against it, ``kappa`` and ``trace_order`` (two
    unknowns per edge at order 2), in that order.  S = G^T diag(sigma/h) G
    (G: neighbour differences inside each edge); C = -E^T Y T with E the
    selection of each edge's first and last unknown (row 2*edge + side),
    Y = X^T if ``adjoint`` else X, and T = E for order 1 or the
    extrapolation 1.5 v0 - 0.5 v1 for order 2; M = diag(w) unless a
    consistent ``mass`` is given."""
    exchange = graph.exchange.T if adjoint else graph.exchange
    if grid.n_edges != graph.n_edges or not np.all(
        np.abs(grid.lengths - graph.lengths) <= 1e-12 * np.abs(graph.lengths)
    ):
        raise ValueError("grid does not match the graph's edges")
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if trace_order not in (1, 2):
        raise ValueError(f"trace_order must be 1 or 2, got {trace_order}")
    off = grid.offsets(layout)
    if trace_order == 2 and np.any(np.diff(off) < 2):
        raise ValueError(f"trace_order 2 needs 2 cells per edge, got cells {grid.cells.tolist()}")
    n = int(off[-1])
    ends = np.column_stack([off[:-1], off[1:] - 1]).ravel()
    # T as (unknowns, weight) per endpoint: the end unknown, and at order 2
    # the extrapolation 1.5 v0 - 0.5 v1 from the second unknown in
    trace = [(ends, 1.0)] if trace_order == 1 else [
        (ends, 1.5), (ends + np.tile([1, -1], grid.n_edges), -0.5)]
    rows, cols, vals = exchange.entries()
    diagonal = np.arange(n)
    return DiscreteGenerator(
        mass=Banded.from_triplets(n, diagonal, diagonal, grid.weights(layout))
        if mass is None else mass,
        diffusion=_pair_form(grid, layout, graph.sigmas / grid.widths, -1.0),
        coupling=Banded.from_triplets(
            n, np.tile(ends[rows], len(trace)),
            np.concatenate([at[cols] for at, _ in trace]),
            np.concatenate([-weight * vals for _, weight in trace]),
        ),
        kappa=kappa,
    )


def dual_generator(
    graph: MetricGraph, grid: EdgeGrid, kappa: float, trace_order: int = 1
) -> DiscreteGenerator:
    """Finite-volume matrix of the adjoint generator kappa sigma d2/dx2
    with membrane-flux conditions: K = kappa S - E^T X^T T."""
    return _assemble(graph, grid, kappa, CELLS, adjoint=True, trace_order=trace_order)


def primal_generator(graph: MetricGraph, grid: EdgeGrid, kappa: float) -> DiscreteGenerator:
    """Node-centered finite differences for the forward generator:
    K = kappa S - E^T X E.  The half-width end weights turn the end rows
    of S into the ghost-node elimination of the transmission condition
    kappa f'(end) = G[i, side](f)."""
    return _assemble(graph, grid, kappa, NODES, adjoint=False)


def chain_form(graph: MetricGraph, adjoint: bool = True) -> DiscreteGenerator:
    """The chain c' = Q c as finite volumes with one cell per edge: S empty,
    M = D, K = C = -R Y R^T, with Y = X^T (``adjoint``: Q dual) or X."""
    require_valid(graph)
    grid = EdgeGrid(graph.lengths, np.ones(graph.n_edges, dtype=int))
    return _assemble(graph, grid, 1.0, CELLS, adjoint)


def _sample(grid: EdgeGrid, layout: str, coefs) -> np.ndarray:
    """``grid.sample`` of ``polyval(x, coefs[i])`` bit for bit: one Horner
    pass in ``polyval``'s order (c[-1] + x*0, then c[k] + v*x) over the rows
    of ``coefs`` repeated per point, x formed as ``EdgeGrid.coords`` does."""
    off = grid.offsets(layout)
    counts = np.diff(off)
    local = np.arange(off[-1]) - np.repeat(off[:-1], counts)
    x = (local + (0.5 if layout == CELLS else 0.0)) * np.repeat(grid.widths, counts)
    rows = np.repeat(np.asarray(coefs, dtype=float), counts, axis=0)
    value = rows[:, -1] + x * 0
    for c in rows[:, -2::-1].T:
        value = c + value * x
    return value


def duality_defect(
    graph: MetricGraph, grid: EdgeGrid, kappa: float, f, phi, trace_order: int = 1
) -> float:
    """| <phi, A f>_nodes - <A* phi, f>_cells | on matched grids.

    ``f`` and ``phi`` are cubics given as (n_edges, 4) arrays of
    ascending coefficients, one row per edge, such as
    ``with_primal_conditions`` and ``with_dual_conditions`` return; f is
    sampled on the forward node grid, phi on the adjoint cell grid.  A
    tiny kappa overflows the fitted slopes, and the defect is then inf or
    nan.
    """
    forward = primal_generator(graph, grid, kappa)
    adjoint = dual_generator(graph, grid, kappa, trace_order=trace_order)

    f_nodes, phi_nodes = _sample(grid, NODES, f), _sample(grid, NODES, phi)
    f_cells, phi_cells = _sample(grid, CELLS, f), _sample(grid, CELLS, phi)
    pair_forward = float(np.sum(grid.weights(NODES) * phi_nodes * (forward.matrix @ f_nodes)))
    pair_adjoint = float(np.sum(grid.weights(CELLS) * (adjoint.matrix @ phi_cells) * f_cells))
    return abs(pair_forward - pair_adjoint)


# ---------------------------------------------------------------------------
# smooth test functions satisfying the transmission conditions

def _fit_conditions(graph, kappa, coefs, conditions: Banded) -> np.ndarray:
    """Add cubic bump corrections to each edge's row of ``coefs`` so the
    endpoint slopes meet ``conditions`` (``graphs.endpoint_conditions``);
    endpoint values are untouched, so the slope targets can be read off
    the uncorrected cubics."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.shape != (graph.n_edges, 4):
        raise ValueError(
            f"need cubic coefficients of shape ({graph.n_edges}, 4), got {coefs.shape}"
        )
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    d = graph.lengths
    at_ends = EdgeGrid(d, np.ones(graph.n_edges, dtype=int))  # nodes at 0 and d
    # required slopes at (edge, side), from the end values; the cubics' own
    targets = (conditions @ _sample(at_ends, NODES, coefs)).reshape(-1, 2) / kappa
    slopes = _sample(at_ends, NODES, coefs[:, 1:] * (1, 2, 3)).reshape(-1, 2)
    alpha, beta = (targets - slopes).T
    # value 0 at both ends; slopes (1, 0) and (0, 1) at (0, d)
    zero, one = np.zeros_like(d), np.ones_like(d)
    bump_left = np.column_stack([zero, one, -2.0 / d, 1.0 / d**2])
    bump_right = np.column_stack([zero, zero, -1.0 / d, 1.0 / d**2])
    return coefs + alpha[:, None] * bump_left + beta[:, None] * bump_right


def with_primal_conditions(graph: MetricGraph, kappa: float, coefs) -> np.ndarray:
    """The (n_edges, 4) cubic coefficients ``coefs``, corrected to obey the
    forward transmission conditions."""
    return _fit_conditions(graph, kappa, coefs, endpoint_conditions(graph, graph.exchange))


def with_dual_conditions(graph: MetricGraph, kappa: float, coefs) -> np.ndarray:
    """The (n_edges, 4) cubic coefficients ``coefs``, corrected to obey the
    adjoint flux conditions."""
    return _fit_conditions(graph, kappa, coefs, endpoint_conditions(graph, graph.exchange.T))
