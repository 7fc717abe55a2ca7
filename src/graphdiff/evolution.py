"""Semigroup propagation and the speed-parameter sweep.

``kappa_sweep`` runs the discrete semigroup for a list of kappa values
and times, compares each solution against the lifted limit-chain solution
exp(t Q) P phi0, and reports weighted norms, the mass drift, and the
minimum value on a kappa-by-t grid.  Both sides take the same propagator,
the limit chain as finite volumes with one cell per edge
(``finite_volume.chain_form``), and the same edge averages P
(``EdgeGrid.averaging``).  As kappa grows the error must shrink at
every t: that monotone decrease is the headline empirical fact this
package exists to demonstrate.

``propagate`` has one route: shift-and-invert Krylov
(``_stepping.krylov_apply``) on the generator's own mass form,
``gen.mass`` and the two terms ``gen.terms`` = (kappa S, C), row-scaled
by diag(M) (``_stepping.row_scaled``).  The dense exponential and
Crank-Nicolson that the tests check it against live in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import _stepping, finite_volume
from .finite_volume import DiscreteGenerator
from .graphs import MetricGraph, require_valid
from .grids import CELLS, FEM, FV, NODES, EdgeGrid

Norms = namedtuple("Norms", ["l1", "l2", "min", "mass"])

OWN_NORM = {FV: "l1", FEM: "l2"}  # each discretization's own norm, a Norms field

# relative slack of the monotone-decrease check, for round-off only
NONINCREASING_SLACK = 1e-12
# the largest share of its err_l1 that a row's mass drift may be on a
# conservative graph, once the drift exceeds DRIFT_FLOOR eps ||phi0||_1
DRIFT_SHARE_MAX = 0.5
DRIFT_FLOOR = 300.0


def norms(values, weights) -> Norms:
    """Weighted L1 and L2 norms, minimum, and signed mass of a packed
    grid function, or of each of a stack of them along the last axis."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape[-1:] != weights.shape:
        raise ValueError(f"values {values.shape} and weights {weights.shape} do not match")
    return Norms(
        l1=np.sum(weights * np.abs(values), axis=-1),
        l2=np.sqrt(np.sum(weights * values**2, axis=-1)),
        min=np.min(values, axis=-1),
        mass=np.sum(weights * values, axis=-1),
    )


def propagate(gen: DiscreteGenerator, phi0, t: float) -> np.ndarray:
    """Advance phi0 by the semigroup of ``gen`` to time t:
    shift-and-invert Arnoldi on ``gen.mass`` and ``gen.terms``,
    converged to ``_stepping.KRYLOV_RTOL``."""
    return _stepping.krylov_apply(gen.mass, gen.terms, phi0, [t])[0]


# the columns of the sweep CSV
CSV_COLUMNS = ("kappa", "t", "err_l1", "err_l2", "err_projected", "mass_drift", "min_value")


@dataclass(frozen=True)
class SweepResult:
    """The sweep as one read-only (n_kappa, n_t, len(CSV_COLUMNS)) array:
    kappas increasing, times ascending, columns as in ``CSV_COLUMNS``."""

    table: np.ndarray
    discretization: str

    def times(self):
        return self.table[0, :, 1].tolist()

    def _column(self, metric: str = None) -> np.ndarray:
        # (n_kappa, n_t); by default the error in the own norm (OWN_NORM)
        metric = metric or f"err_{OWN_NORM[self.discretization]}"
        return self.table[..., CSV_COLUMNS.index(metric)]

    def errors(self, t: float, metric: str = None) -> np.ndarray:
        """Error column at a swept time t, kappa-ordered."""
        hits = np.flatnonzero(self.table[0, :, 1] == t)
        if not hits.size:
            raise ValueError(f"t={t:g} was not swept; the swept times are {self.times()}")
        return self._column(metric)[:, hits[0]]

    def nonincreasing(self) -> np.ndarray:
        """Each time's verdict, in ``times()`` order: does the own-norm error
        shrink (weakly) along kappa, up to NONINCREASING_SLACK relative?"""
        e = self._column()
        return np.all(e[1:] <= e[:-1] + NONINCREASING_SLACK * (1.0 + e[:-1]), axis=0)


def kappa_sweep(
    graph: MetricGraph,
    grid: EdgeGrid,
    kappas,
    ts,
    phi0,
    discretization: str = FV,
    trace_order: int = 1,
) -> SweepResult:
    """Propagate phi0 for every (kappa, t) and measure the distance to the
    lifted limit-chain solution.

    ``phi0`` is a per-edge callable ``(edge, x) -> values`` (see
    ``grids.edge_indicator``); it is sampled on the discretization's own
    grid.  Kappa values must be finite, positive and strictly increasing,
    times finite, nonnegative and distinct (in any order); ``trace_order``
    2 applies to fv only.
    An invalid graph raises InvalidGraphError first.  The generator is
    assembled once, at the first kappa; every other kappa only rescales
    its diffusion form S, in ``replace(gen, kappa=kappa).terms``, and
    each kappa is propagated to all times in one call, which factors once
    per window of times and measured in one array pass.  The limit chain
    c' = Q c is propagated the same way, in one call for all times.  On a
    conservative graph the mass drift is propagator error alone: the first
    row, in the order of ``ts``, whose drift exceeds DRIFT_FLOOR
    eps ||phi0||_1 and DRIFT_SHARE_MAX of its err_l1 resolves no 1/kappa
    law and raises ``_stepping.StepControlError``.
    """
    conservative = require_valid(graph).conservative
    if discretization not in OWN_NORM:
        raise ValueError(
            f"discretization must be one of {tuple(OWN_NORM)}, got {discretization!r}"
        )
    if discretization == FEM and trace_order != 1:
        raise ValueError(f"fem takes trace_order 1 only, got {trace_order}")
    kappas = [float(k) for k in kappas]
    ts = [float(t) for t in ts]
    if not kappas or not all(0 < k < math.inf for k in kappas):
        raise ValueError(f"kappa list must be nonempty, positive and finite, got {kappas}")
    if any(k2 <= k1 for k1, k2 in zip(kappas[:-1], kappas[1:])):
        raise ValueError("kappa list must be strictly increasing")
    if not ts or not all(0 <= t < math.inf for t in ts):
        raise ValueError(f"t list must be nonempty, nonnegative and finite, got {ts}")
    if len(set(ts)) < len(ts):
        raise ValueError(f"t list must not repeat a time, got {ts}")

    # assembled once: every other kappa only rescales the diffusion form
    if discretization == FV:
        layout = CELLS
        gen = finite_volume.dual_generator(graph, grid, kappas[0], trace_order=trace_order)
    else:
        from . import galerkin

        layout = NODES
        gen = galerkin.assemble_forms(graph, grid, kappas[0])

    start = grid.sample(phi0, layout)
    weights = grid.weights(layout)
    initial = norms(start, weights)
    floor = DRIFT_FLOOR * np.finfo(float).eps * initial.l1

    # the limit-chain states exp(tQ) P phi0, one row per t, and their lifts
    limit = finite_volume.chain_form(graph)
    limits = _stepping.krylov_apply(limit.mass, limit.terms, grid.averaging(layout, start), ts)
    lifted = np.repeat(limits, np.diff(grid.offsets(layout)), axis=1)

    order = np.argsort(ts)
    table = np.empty((len(kappas), len(ts), len(CSV_COLUMNS)))
    for k, kappa in enumerate(kappas):
        sols = _stepping.krylov_apply(gen.mass, replace(gen, kappa=kappa).terms, start, ts)
        state, err = norms(sols, weights), norms(sols - lifted, weights)
        # the gap between the two chain states, normed like the edges
        perr = norms(grid.averaging(layout, sols) - limits, grid.lengths)
        drift = state.mass - initial.mass
        # fmax: a nan err_l1 leaves the floor as the bound
        bad = np.flatnonzero(np.abs(drift) > np.fmax(floor, DRIFT_SHARE_MAX * err.l1))
        if conservative and bad.size:
            i = bad[0]
            share = abs(drift[i]) / err.l1[i] if err.l1[i] > 0 else math.inf
            raise _stepping.StepControlError(
                f"|mass_drift| / err_l1 = {share:.3g} >= {DRIFT_SHARE_MAX:g} (mass_drift "
                f"{drift[i]:.3g}, err_l1 {err.l1[i]:.3g}) at kappa={kappa:g}, t={ts[i]:g}: the "
                f"error is the propagator's own, past the resolved kappa range"
            )
        table[k] = np.column_stack([
            np.full(len(ts), kappa), ts, err.l1, err.l2,
            getattr(perr, OWN_NORM[discretization]), drift, state.min,
        ])[order]
    table.flags.writeable = False
    return SweepResult(table=table, discretization=discretization)
