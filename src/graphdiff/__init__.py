"""Diffusion on metric graphs with semipermeable membranes.

Edges are intervals glued at vertices; at each endpoint a membrane
with its own permeability re-distributes flux to the other edges
meeting there.  The package assembles adjoint (cell-centered finite
volume) and forward (node-centered differences, P1 Galerkin)
discretizations, the interval Neumann resolvent in closed form, and
the continuous-time Markov chain that the dynamics collapse to when
diffusion is fast compared to the membranes.

The solver names are imported on first use (PEP 562), so that
``import graphdiff`` loads only what loading and validating a graph needs.
"""

import importlib

from .graphs import load_graph, validate
from .grids import FEM, FV, make_grid

# public name -> the module that defines it, imported on first access
_SOLVER_NAMES = {
    "DUAL": "chain",
    "chain_generator": "chain",
    "kappa_sweep": "evolution",
    "dual_generator": "finite_volume",
    "duality_defect": "finite_volume",
    "with_dual_conditions": "finite_volume",
    "with_primal_conditions": "finite_volume",
    "averaging_limit_check": "resolvent",
    "resolvent_apply": "resolvent",
}

__version__ = "0.1.0"

__all__ = sorted(["FEM", "FV", "load_graph", "make_grid", "validate", *_SOLVER_NAMES])


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOLVER_NAMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))
