"""Diffusion on metric graphs with semipermeable membranes.

Edges are intervals glued at vertices; at each endpoint a membrane
with its own permeability re-distributes flux to the other edges
meeting there.  The package assembles adjoint (cell-centered finite
volume) and forward (node-centered differences, P1 Galerkin)
discretizations, the interval Neumann resolvent in closed form, and
the continuous-time Markov chain that the dynamics collapse to when
diffusion is fast compared to the membranes.
"""

from .chain import DUAL, chain_generator
from .evolution import FEM, FV, kappa_sweep
from .finite_volume import (
    dual_generator,
    duality_defect,
    with_dual_conditions,
    with_primal_conditions,
)
from .graphs import load_graph, validate
from .grids import make_grid
from .resolvent import averaging_limit_check, resolvent_apply

__version__ = "0.1.0"

__all__ = [
    "DUAL",
    "FEM",
    "FV",
    "averaging_limit_check",
    "chain_generator",
    "dual_generator",
    "duality_defect",
    "kappa_sweep",
    "load_graph",
    "make_grid",
    "resolvent_apply",
    "validate",
    "with_dual_conditions",
    "with_primal_conditions",
]
