"""Independent references for the benchmark's output checks.

Nothing here imports ``graphdiff``: each reference is derived from the
documented mathematics, so an optimization that changes the program's
code path is checked against something it cannot have changed too.

* ``duality_defects`` -- the forward/adjoint pairing defect of
  ``graphdiff duality-check`` (trace order 1), with both discrete
  operators applied matrix-free edge by edge from the graph config.
* ``averaging_distances`` -- the L1 distances of ``resolvent-check``
  from the Neumann cosine series of the interval resolvent, whose
  coefficients for a polynomial source are exact and whose sum is
  stable for every lambda > 0.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

LEFT, RIGHT = 0, 1


# ---------------------------------------------------------------------------
# forward/adjoint pairing defect

def _endpoint_functionals(edges):
    """Sparse endpoint functionals of both conditions.

    Returns (dual, primal), each a list of (i, side, j, s, coefficient)
    with kappa*phi'(end (i, side)) = sum coefficient * value(end (j, s)).
    Dual (adjoint flux) conditions carry the neighbour's pass-through
    into i scaled by sigma_j / sigma_i; primal (forward) conditions carry
    edge i's own pass-through to the neighbour.
    """
    at_vertex = {}
    for i, e in enumerate(edges):
        at_vertex.setdefault(e["left_vertex"], []).append((i, LEFT))
        at_vertex.setdefault(e["right_vertex"], []).append((i, RIGHT))
    dual, primal = [], []
    for i, e in enumerate(edges):
        own = {LEFT: e.get("l_to", {}), RIGHT: e.get("r_to", {})}
        totals = {LEFT: e.get("l", 0.0), RIGHT: -e.get("r", 0.0)}
        for side, vertex in ((LEFT, e["left_vertex"]), (RIGHT, e["right_vertex"])):
            sign = -1.0 if side == LEFT else 1.0
            dual.append((i, side, i, side, totals[side]))
            primal.append((i, side, i, side, totals[side]))
            for j, s in at_vertex[vertex]:
                if j == i:
                    continue
                other = edges[j]
                into_i = (other.get("l_to", {}) if s == LEFT else other.get("r_to", {})).get(e["id"], 0.0)
                if into_i:
                    dual.append((i, side, j, s, sign * other["sigma"] * into_i / e["sigma"]))
                out_of_i = own[side].get(other["id"], 0.0)
                if out_of_i:
                    primal.append((i, side, j, s, sign * out_of_i))
    return dual, primal


def _fit(edges, kappa, polys, functionals):
    """Add the cubic slope corrections that make each polynomial meet the
    endpoint conditions; endpoint values are left unchanged."""
    ends = np.array([[p(0.0), p(e["length"])] for p, e in zip(polys, edges)])
    targets = np.zeros_like(ends)
    for i, side, j, s, c in functionals:
        targets[i, side] += c * ends[j, s]
    targets /= kappa
    out = []
    for p, e, (t_left, t_right) in zip(polys, edges, targets):
        d = e["length"]
        dp = p.deriv()
        alpha = t_left - dp(0.0)
        beta = t_right - dp(d)
        bump_left = Polynomial([0.0, 1.0, -2.0 / d, 1.0 / d**2])
        bump_right = Polynomial([0.0, 0.0, -1.0 / d, 1.0 / d**2])
        out.append(p + alpha * bump_left + beta * bump_right)
    return out


def _pairing_defect(edges, kappa, h, f_polys, phi_polys, dual, primal):
    n = len(edges)
    cells = [max(2, math.ceil(e["length"] / h - 1e-9)) for e in edges]
    widths = [e["length"] / m for e, m in zip(edges, cells)]
    # endpoint values: f at the end nodes, phi at the end cells
    f_nodes, phi_nodes, f_cells, phi_cells = [], [], [], []
    f_end = np.empty((n, 2))
    phi_end = np.empty((n, 2))
    for i, (m, w) in enumerate(zip(cells, widths)):
        xn = np.arange(m + 1) * w
        xc = (np.arange(m) + 0.5) * w
        f_nodes.append(f_polys[i](xn))
        phi_nodes.append(phi_polys[i](xn))
        f_cells.append(f_polys[i](xc))
        phi_cells.append(phi_polys[i](xc))
        f_end[i] = f_nodes[i][0], f_nodes[i][-1]
        phi_end[i] = phi_cells[i][0], phi_cells[i][-1]
    g_f = np.zeros((n, 2))
    for i, side, j, s, c in primal:
        g_f[i, side] += c * f_end[j, s]
    flux_phi = np.zeros((n, 2))
    for i, side, j, s, c in dual:
        flux_phi[i, side] += c * phi_end[j, s]

    forward = adjoint = 0.0
    for i, (m, w) in enumerate(zip(cells, widths)):
        sig = edges[i]["sigma"]
        c = kappa * sig / w**2
        u = f_nodes[i]
        au = np.empty(m + 1)
        au[1:-1] = c * (u[:-2] - 2.0 * u[1:-1] + u[2:])
        au[0] = 2.0 * c * (u[1] - u[0]) - 2.0 * sig / w * g_f[i, LEFT]
        au[-1] = 2.0 * c * (u[-2] - u[-1]) + 2.0 * sig / w * g_f[i, RIGHT]
        wn = np.full(m + 1, w)
        wn[0] = wn[-1] = w / 2.0
        forward += float(np.sum(wn * phi_nodes[i] * au))

        v = phi_cells[i]
        av = np.zeros(m)
        av[1:] += c * (v[:-1] - v[1:])
        av[:-1] += c * (v[1:] - v[:-1])
        av[0] -= sig / w * flux_phi[i, LEFT]
        av[-1] += sig / w * flux_phi[i, RIGHT]
        adjoint += float(np.sum(w * av * f_cells[i]))
    return abs(forward - adjoint)


def duality_defects(config, kappa, h0, levels, seed):
    """Reference defects of ``duality-check --h h0 --levels L --seed S``.

    The test polynomials are drawn exactly as the command documents:
    one cubic per edge from ``default_rng(seed)`` for f, then one per
    edge for phi, each fitted to its endpoint conditions.
    """
    edges = config["edges"]
    dual, primal = _endpoint_functionals(edges)
    rng = np.random.default_rng(seed)
    raw_f = [Polynomial(rng.uniform(-1.0, 1.0, size=4)) for _ in edges]
    raw_phi = [Polynomial(rng.uniform(-1.0, 1.0, size=4)) for _ in edges]
    f_polys = _fit(edges, kappa, raw_f, primal)
    phi_polys = _fit(edges, kappa, raw_phi, dual)
    return [
        _pairing_defect(edges, kappa, h0 / 2**k, f_polys, phi_polys, dual, primal)
        for k in range(levels)
    ]


# ---------------------------------------------------------------------------
# small-lambda averaging of the Neumann resolvent on [0, 1]

def averaging_distances(coeffs, lams, eval_nodes=2001, modes=4000):
    """Reference rows of ``resolvent-check --phi poly:<coeffs>`` on [0, 1].

    With reflecting ends, psi = (lam - d2/dx2)^{-1} phi has the cosine
    series sum_k phi_k / (lam + (k pi)^2) cos(k pi x), so

        lam psi - mean(phi) = sum_{k>=1} lam phi_k / (lam + (k pi)^2) cos(k pi x),

    which involves no cancellation as lam -> 0.  phi_k is exact by
    repeated integration by parts; the terms fall off like k^-4, so
    ``modes`` terms leave a relative truncation error near
    1 / (3 modes^3).  The L1 norm uses the command's own trapezoid on
    ``eval_nodes`` uniform points.
    """
    p = Polynomial(coeffs)
    k = np.arange(1, modes + 1)
    omega = k * np.pi
    parity = np.where(k % 2 == 0, 1.0, -1.0)
    phi_k = np.zeros(modes)
    for order in range(1, p.degree() + 1, 2):
        d = p.deriv(order)
        sign = 1.0 if order % 4 == 1 else -1.0
        phi_k += sign * (d(1.0) * parity - d(0.0)) / omega ** (order + 1)
    phi_k *= 2.0
    lams = np.asarray(lams, dtype=float)
    x = np.linspace(0.0, 1.0, eval_nodes)
    dx = np.diff(x)
    basis = np.cos(np.outer(x, omega))
    weights = lams[None, :] * phi_k[:, None] / (lams[None, :] + omega[:, None] ** 2)
    err = np.abs(basis @ weights)
    return list(np.sum(dx[:, None] * (err[:-1] + err[1:]) / 2.0, axis=0))
