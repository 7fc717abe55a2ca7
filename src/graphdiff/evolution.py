"""Semigroup propagation and the speed-parameter sweep.

``kappa_sweep`` runs the discrete semigroup for a list of kappa values
and times, compares each solution against the lifted limit-chain solution
exp(t Q) P phi0, and reports weighted norms, the mass drift, and the
minimum value.  Both sides take the same propagator, the limit chain as
the pair (D, -D Q) with D the edge lengths, and the same averaging map
P (``EdgeGrid.averaging``).  As kappa grows the error
columns must shrink: that monotone decrease is the headline empirical
fact this package exists to demonstrate.

``propagate`` has one route: shift-and-invert Krylov
(``_stepping.krylov_apply``) on the generator's own mass form,
``gen.mass`` and the two terms ``gen.terms`` = (kappa S, C), row-scaled
by ``_stepping.row_scaled``.  The dense exponential and Crank-Nicolson
that the tests check it against live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from . import _stepping, chain, finite_volume, galerkin
from .finite_volume import DiscreteGenerator
from .graphs import MetricGraph
from .grids import CELLS, FEM, FV, NODES, EdgeGrid

Norms = namedtuple("Norms", ["l1", "l2", "min", "mass"])

OWN_NORM = {FV: "l1", FEM: "l2"}  # each discretization's own norm, a Norms field

# relative slack of the monotone-decrease check, for round-off only
NONINCREASING_SLACK = 1e-12


def norms(values, weights) -> Norms:
    """Weighted L1 and L2 norms, minimum, and signed mass of a packed
    grid function."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape:
        raise ValueError(
            f"values {values.shape} and weights {weights.shape} do not match"
        )
    return Norms(
        l1=float(np.sum(weights * np.abs(values))),
        l2=float(np.sqrt(np.sum(weights * values**2))),
        min=float(np.min(values)),
        mass=float(np.sum(weights * values)),
    )


def propagate(gen: DiscreteGenerator, phi0, t: float) -> np.ndarray:
    """Advance phi0 by the semigroup of ``gen`` to time t: sparse
    shift-and-invert Arnoldi on ``gen.mass`` and ``gen.terms``,
    converged to ``_stepping.KRYLOV_RTOL``."""
    return _stepping.krylov_apply(gen.mass, gen.terms, phi0, [t])[0]


def _limit_states(graph: MetricGraph, q: sp.csr_matrix, c0, ts) -> np.ndarray:
    """exp(tQ) c0, one row per time in ``ts``: the chain c' = Q c is
    M c' = -K c with (M, K) = (D, -D Q), D the edge lengths."""
    lengths = sp.diags(graph.lengths)
    return _stepping.krylov_apply(lengths, [-(lengths @ q)], c0, ts)


@dataclass(frozen=True)
class SweepRecord:
    kappa: float
    t: float
    err_l1: float
    err_l2: float
    err_projected: float
    mass_drift: float
    min_value: float


# the columns of the sweep CSV
CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    discretization: str

    def errors(self, t: float, metric: str = None) -> np.ndarray:
        """Error column at fixed t, kappa-ordered.  Default metric is the
        discretization's own norm (``OWN_NORM``)."""
        metric = metric or f"err_{OWN_NORM[self.discretization]}"
        rows = sorted(
            (r for r in self.records if r.t == t), key=lambda r: r.kappa
        )
        return np.array([getattr(r, metric) for r in rows])

    def times(self):
        return sorted({r.t for r in self.records})

    def nonincreasing_at(self, t: float) -> bool:
        """Does the error at time t, in the discretization's own norm,
        shrink (weakly) along kappa, up to NONINCREASING_SLACK relative?"""
        e = self.errors(t)
        return bool(np.all(e[1:] <= e[:-1] + NONINCREASING_SLACK * (1.0 + e[:-1])))

    def errors_nonincreasing(self) -> bool:
        """Does the error shrink (weakly) along kappa for every t?"""
        return all(self.nonincreasing_at(t) for t in self.times())


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
    per window of times.  The limit chain c' = Q c is propagated the same
    way, in one call for all times.
    """
    q = chain.chain_generator(graph, chain.DUAL)
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
        gen = finite_volume.dual_generator(
            graph, grid, kappas[0], trace_order=trace_order
        )
    else:
        layout = NODES
        gen = galerkin.assemble_forms(graph, grid, kappas[0])

    start = grid.sample(phi0, layout)
    weights = grid.weights(layout)
    averaging = grid.averaging(layout)
    mass0 = float(np.sum(weights * start))

    # the limit-chain states exp(tQ) P phi0, one row per t, and their lifts
    limits = _limit_states(graph, q, averaging @ start, ts)
    lifted = np.repeat(limits, np.diff(grid.offsets(layout)), axis=1)

    records = []
    for kappa in kappas:
        sols = _stepping.krylov_apply(gen.mass, replace(gen, kappa=kappa).terms, start, ts)
        # the gap between the two chain states, normed like the edges
        gaps = sols @ averaging.T - limits
        for t, sol, lift, gap in zip(ts, sols, lifted, gaps):
            err = norms(sol - lift, weights)
            perr = norms(gap, grid.lengths)
            records.append(
                SweepRecord(
                    kappa=kappa,
                    t=t,
                    err_l1=err.l1,
                    err_l2=err.l2,
                    err_projected=getattr(perr, OWN_NORM[discretization]),
                    mass_drift=float(np.sum(weights * sol)) - mass0,
                    min_value=float(np.min(sol)),
                )
            )
    records.sort(key=lambda r: (r.kappa, r.t))
    return SweepResult(records=tuple(records), discretization=discretization)
