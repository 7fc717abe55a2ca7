"""Metric graphs whose vertices act as semipermeable membranes.

A graph is a finite collection of directed intervals ("edges"); edge ``i``
has length ``d_i``, diffusion coefficient ``sigma_i``, and a left and a
right endpoint attached to named vertices.  Loops are forbidden, parallel
edges are fine.  Each endpoint carries a total permeability (``l`` on the
left, ``r`` on the right) plus sparse pass-through coefficients that say
how much of the flux leaving through that membrane enters each
neighbouring edge.  The membrane is *conservative* at an endpoint when the
pass-through coefficients add up exactly to the total.

Everything downstream (flux conditions, limit chain, discretizations) is
derived from one sparse matrix built here, ``MetricGraph.exchange`` (a
``_banded.Banded`` record):

    X = Sigma (P - T),   (2n, 2n), endpoint index 2*edge + side,

with P[(i,a), (j,b)] edge i's pass-through coefficient from its side-a
membrane into edge j, whose endpoint (j,b) sits at the same vertex, T the
diagonal of membrane totals l_i, r_i, and Sigma the sigmas repeated per
endpoint.  Row (i,a) of X holds what leaves through endpoint (i,a) (the
negative diagonal) and where it arrives (the other endpoints at that
vertex); the forward problem couples endpoints through X, the adjoint
(density) problem through X^T.  ``validate`` records X's entries in its
one walk over the ``l_to`` / ``r_to`` dicts, so the build is O(nnz)
however many edges meet at a vertex.  With D_s = diag(+1 left, -1 right):

* ``endpoint_conditions(graph, X^T)`` = -D_s Sigma^-1 X^T, the adjoint
  flux functionals over endpoint values,
* ``endpoint_conditions(graph, X)``   = -D_s Sigma^-1 X, the forward
  transmission conditions.

Both are sparse like X.  ``trace_functionals`` and
``primal_condition_table`` give them as dense (n, 2, n, 2) arrays, which
the tests read; the program itself never forms a dense table.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

# the builders of operators import ``_banded`` themselves, so that loading
# and validating a graph imports no operator code
if TYPE_CHECKING:
    from ._banded import Banded

# slack for comparing permeability sums against their totals
SUM_TOL = 1e-12


class GraphConfigError(ValueError):
    """A config file/dict cannot be turned into a MetricGraph."""


class InvalidGraphError(ValueError):
    """An operation needed a valid graph but validation found problems."""


class Side(Enum):
    LEFT = 0
    RIGHT = 1


@dataclass(frozen=True)
class EdgeSpec:
    """A single edge.

    ``l_to`` / ``r_to`` map *target edge ids* to the nonnegative
    pass-through coefficient from this edge's left / right membrane into
    that target.  Missing keys mean zero.
    """

    id: str
    length: float
    sigma: float
    left_vertex: str
    right_vertex: str
    l: float = 0.0
    r: float = 0.0
    l_to: dict = field(default_factory=dict)
    r_to: dict = field(default_factory=dict)

    def total(self, side: Side) -> float:
        return self.l if side is Side.LEFT else self.r

    def coupling(self, side: Side) -> dict:
        return self.l_to if side is Side.LEFT else self.r_to

    def vertex(self, side: Side) -> str:
        return self.left_vertex if side is Side.LEFT else self.right_vertex


@dataclass(frozen=True)
class MetricGraph:
    """Immutable container of edges; derived lookup tables are cached."""

    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ids(self) -> tuple:
        return tuple(e.id for e in self.edges)

    @cached_property
    def _index(self) -> dict:
        # first occurrence wins; duplicates are a validation problem
        out = {}
        for i, e in enumerate(self.edges):
            out.setdefault(e.id, i)
        return out

    def index_of(self, edge_id: str) -> int:
        try:
            return self._index[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge id {edge_id!r}") from None

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.edges], dtype=float)

    @cached_property
    def sigmas(self) -> np.ndarray:
        return np.array([e.sigma for e in self.edges], dtype=float)

    @cached_property
    def report(self) -> ValidationReport:
        """``validate(self)``, taken once per graph."""
        return validate(self)

    @cached_property
    def exchange(self) -> Banded:
        """X = Sigma (P - T) over endpoints, index 2*edge + side, for a
        valid graph (InvalidGraphError otherwise): the entries ``validate``
        recorded.  Built and validated once per graph; every derivation
        shares it, so callers must not modify it."""
        from ._banded import Banded

        return Banded.from_triplets(2 * self.n_edges, *require_valid(self).entries)


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple
    conservative: bool
    entries: tuple = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(graph: MetricGraph) -> ValidationReport:
    """Check every admissibility rule; collect problems instead of raising.

    The graph is conservative iff it is valid and, at every endpoint, the
    pass-through coefficients sum exactly (to ``SUM_TOL``) to the total
    permeability there.

    The same walk records X's (rows, cols, vals) in ``entries``, complete
    when the graph is valid: -sigma_i * total on the diagonal at endpoint
    (i,a), and sigma_i * c for each positive coefficient c into edge j in
    column 2*j + (j's right end is at that vertex), unique without loops.
    """
    problems = []
    if graph.n_edges == 0:
        problems.append("graph has no edges")
    problems.extend(f"duplicate edge id {e.id!r}"
                    for i, e in enumerate(graph.edges) if graph._index[e.id] != i)

    rows, cols, vals = entries = ([], [], [])
    conservative = True
    for i, e in enumerate(graph.edges):
        tag = f"edge {e.id!r}"
        if not (np.isfinite(e.length) and e.length > 0):
            problems.append(f"{tag}: length must be a positive real, got {e.length}")
        if not (np.isfinite(e.sigma) and e.sigma > 0):
            problems.append(f"{tag}: sigma must be a positive real, got {e.sigma}")
        if e.left_vertex == e.right_vertex:
            problems.append(f"{tag}: loop (both endpoints at vertex {e.left_vertex!r})")

        for side in (Side.LEFT, Side.RIGHT):
            name = "l" if side is Side.LEFT else "r"
            total = e.total(side)
            if not (np.isfinite(total) and total >= 0):
                problems.append(f"{tag}: {name} must be nonnegative, got {total}")
                conservative = False
                continue
            row = 2 * i + side.value
            rows.append(row)
            cols.append(row)
            vals.append(-e.sigma * total)
            vertex = e.vertex(side)
            running = 0.0
            for target_id, value in e.coupling(side).items():
                if target_id == e.id:
                    problems.append(f"{tag}: {name}_to references itself")
                    continue
                j = graph._index.get(target_id)
                if j is None:
                    problems.append(
                        f"{tag}: {name}_to references unknown edge {target_id!r}"
                    )
                    continue
                if not (np.isfinite(value) and value >= 0):
                    problems.append(
                        f"{tag}: {name}_to[{target_id!r}] must be nonnegative, got {value}"
                    )
                    continue
                if value > 0:
                    other = graph.edges[j]
                    if vertex not in (other.left_vertex, other.right_vertex):
                        problems.append(
                            f"{tag}: {name}_to[{target_id!r}] targets an edge not "
                            f"incident at vertex {vertex!r}"
                        )
                    rows.append(row)
                    cols.append(2 * j + (other.right_vertex == vertex))
                    vals.append(e.sigma * value)
                running += value
            tol = SUM_TOL * max(1.0, abs(total))
            if running > total + tol:
                problems.append(
                    f"{tag}: sum of {name}_to coefficients {running!r} exceeds "
                    f"{name} = {total!r}"
                )
            if abs(running - total) > tol:
                conservative = False

    conservative = conservative and not problems
    return ValidationReport(tuple(problems), conservative, entries)


def require_valid(graph: MetricGraph) -> ValidationReport:
    report = graph.report
    if not report.ok:
        raise InvalidGraphError("\n".join(report.problems))
    return report


def endpoint_conditions(graph: MetricGraph, flow: Banded) -> Banded:
    """-D_s Sigma^-1 flow over endpoints, index 2*edge + side, for flow
    X (forward) or X^T (adjoint); each entry c of row (i, side) becomes
    (c * sign) / sigma_i."""
    from ._banded import Banded

    rows, cols, vals = flow.triplets()
    signs = np.where(rows % 2, 1.0, -1.0)
    return Banded.from_triplets(flow.n, rows, cols, vals * signs / graph.sigmas[rows // 2])


def trace_functionals(graph: MetricGraph) -> np.ndarray:
    """Adjoint-side flux functionals F = -D_s Sigma^-1 X^T over endpoint
    values, as a dense (n, 2, n, 2) array: entry [i, side, j, s] is the
    weight F[i, side] puts on the value at endpoint (j, s).  With kappa the
    speed parameter,

        kappa * phi'(left of i)  = F[i, LEFT](phi)
        kappa * phi'(right of i) = F[i, RIGHT](phi)

    F[i, LEFT]  = l_i phi(L_i) - (1/sigma_i) sum_j sigma_j c_{ji} phi(.)
    F[i, RIGHT] = (1/sigma_i) sum_j sigma_j c_{ji} phi(.) - r_i phi(R_i)

    where the sum runs over neighbours j at the matching vertex and
    c_{ji} is j's pass-through coefficient into i through j's touching
    membrane; phi(.) is evaluated at j's touching endpoint.
    """
    n = graph.n_edges
    return endpoint_conditions(graph, graph.exchange.T).toarray().reshape(n, 2, n, 2)


def primal_condition_table(graph: MetricGraph) -> np.ndarray:
    """Forward-side transmission conditions G = -D_s Sigma^-1 X as endpoint
    functionals, laid out like ``trace_functionals``:

        kappa * f'(left of i)  = G[i, LEFT](f)  = l_i f(L_i) - sum_j l_ij f(.)
        kappa * f'(right of i) = G[i, RIGHT](f) = sum_j r_ij f(.) - r_i f(R_i)

    Here l_ij / r_ij are edge i's own pass-through coefficients and f(.) is
    evaluated at neighbour j's endpoint sitting at the shared vertex.
    """
    n = graph.n_edges
    return endpoint_conditions(graph, graph.exchange).toarray().reshape(n, 2, n, 2)


# ---------------------------------------------------------------------------
# config parsing

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise GraphConfigError(f"{where}: expected a nonempty string, got {value!r}")
    return value


def _coupling(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise GraphConfigError(f"{where}: expected an object, got {value!r}")
    return {
        _string(k, f"{where} key"): _number(v, f"{where}[{k!r}]")
        for k, v in value.items()
    }


# the config schema: each EdgeSpec field, in field order, with its parser;
# the fields without a default are the required keys
_EDGE_SCHEMA = {
    "id": _string, "length": _number, "sigma": _number,
    "left_vertex": _string, "right_vertex": _string,
    "l": _number, "r": _number, "l_to": _coupling, "r_to": _coupling,
}
_REQUIRED_KEYS = {f.name for f in fields(EdgeSpec)
                  if f.default is MISSING and f.default_factory is MISSING}


def parse_graph(data) -> MetricGraph:
    """Build a MetricGraph from a config dict.

    Only structure and types are enforced here (bad structure exits the
    CLI with code 2); semantic admissibility is ``validate``'s job.
    """
    if not isinstance(data, dict):
        raise GraphConfigError("top level must be an object")
    unknown = set(data) - {"edges"}
    if unknown:
        raise GraphConfigError(f"unknown top-level keys: {sorted(unknown)}")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise GraphConfigError('"edges" must be a nonempty list')

    edges = []
    for pos, raw in enumerate(raw_edges):
        where = f"edges[{pos}]"
        if not isinstance(raw, dict):
            raise GraphConfigError(f"{where}: expected an object")
        missing = _REQUIRED_KEYS - set(raw)
        if missing:
            raise GraphConfigError(f"{where}: missing keys {sorted(missing)}")
        unknown = set(raw) - _EDGE_SCHEMA.keys()
        if unknown:
            raise GraphConfigError(f"{where}: unknown keys {sorted(unknown)}")
        edges.append(EdgeSpec(**{
            key: parse(raw[key], f"{where}.{key}")
            for key, parse in _EDGE_SCHEMA.items() if key in raw
        }))
    return MetricGraph(edges=tuple(edges))


def load_graph(path) -> MetricGraph:
    """Parse a JSON config file into a MetricGraph."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GraphConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_graph(data)
