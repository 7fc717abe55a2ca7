"""Reference algorithms that the tests check the package against.

The package propagates every discretization by one route, sparse
shift-and-invert Krylov on the mass form M u' = -K u
(``_stepping.krylov_apply``).  The references here share none of its
code:

* ``dense_generator``: the generator -M^-1 K as a dense array, for any
  mass (the consistent P1 mass included), for ``scipy.linalg.expm``;
* ``crank_nicolson``: step doubling until the solution stops moving at
  the requested relative tolerance in the M norm.  The first CN step is
  split into two backward-Euler half steps, which kills the undamped
  ringing CN otherwise leaves on rough initial data; both stages share
  one factorization since BE at dt/2 and CN at dt use the same left-hand
  matrix M + (dt/2) K.  It raises ``_stepping.StepControlError`` with the
  numbers of its last attempt when it cannot reach ``rtol``;
* ``growth_rate``: the numerical range of A = -M^-1 K in the M inner
  product.  With S the symmetric part of K, d/dt ||u||_M^2 = -2 u^T S u,
  so

      gamma = max eig of (-S, M)    ==>    ||u(t)||_M <= e^{gamma t} ||u(0)||_M

  holds exactly for the semidiscrete flow;
* ``l2_norm`` and ``interpolate_to_cells``: the M norm (for P1, the
  exact L2 norm of the function with nodal values u) and the
  cell-midpoint values of a P1 function;
* ``mass_rate``: the weighted column sums d^T Q of the dual limit
  generator from its sparse listing, the arithmetic of ``limit-q``'s
  ``mass_rate`` row;
* ``convert``: the one conversion between the package's ``Banded``
  operators and scipy's sparse matrices, in either direction;
* ``resolvent_image_series``: the reflecting-interval resolvent of
  ``resolvent.resolvent_apply`` in its reflection (method of images) form

      psi(x) = (2 mu)^{-1} * sum_k [ integral e^{-mu |2kL + x - y|} phi
                                   + integral e^{-mu |2kL + x + y - 2a|} phi ]

  summed over all integers k, with mu = sqrt(lam) and L = b - a.  Image k
  contributes K(2kL + x) + K(2a - 2kL - x) of the package's one kernel
  ``resolvent._kernel``.  The tail past |k| = K is bounded by
  e^{-2 mu K L} / (1 - e^{-2 mu L}) * ||phi||_1 / (2 mu), which picks the
  truncation order (``image_series_cutoff``).

Tests import this module like ``conftest``; its name does not match
``test_*.py``, so pytest collects no tests from it.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from graphdiff._banded import Banded
from graphdiff._stepping import StepControlError
from graphdiff.finite_volume import chain_form
from graphdiff.grids import NODES
from graphdiff.resolvent import _check_interval, _kernel, as_source


def convert(matrix):
    """A ``Banded`` operator as a scipy CSR matrix, and a scipy sparse or
    dense square matrix as a ``Banded`` operator."""
    if isinstance(matrix, Banded):
        return matrix.tocsc().tocsr()
    coo = sp.coo_matrix(matrix)
    return Banded.from_triplets(coo.shape[0], coo.row, coo.col, coo.data)


def dense_generator(gen) -> np.ndarray:
    """A = -M^-1 K of a ``DiscreteGenerator``, dense."""
    return -scipy.linalg.solve(gen.mass.toarray(), gen.flux.toarray(), assume_a="pos")


def mass_rate(graph) -> np.ndarray:
    """Weighted column sums d^T Q of the dual generator: rate of
    total-mass change per unit of density sitting on each edge.  Zero iff
    the graph is conservative."""
    rows, cols, vals = chain_form(graph).matrix.triplets()
    # row-major: each column is summed down its rows, as in dense d^T Q
    return np.bincount(cols, graph.lengths[rows] * vals, graph.n_edges)


def _cn_run(mass, stiff, u0, t, n_steps):
    dt = t / n_steps
    lhs = (mass + (dt / 2.0) * stiff).tocsc()
    solver = splu(lhs)
    u = np.array(u0, dtype=float, copy=True)
    # two backward-Euler half steps in place of the first CN step
    u = solver.solve(mass @ u)
    u = solver.solve(mass @ u)
    rhs = (mass - (dt / 2.0) * stiff).tocsr()
    for _ in range(n_steps - 1):
        u = solver.solve(rhs @ u)
    return u


def crank_nicolson(
    mass,
    stiff,
    u0: np.ndarray,
    t: float,
    rtol: float = 1e-8,
    start_steps: int = 16,
    max_steps: int = 1 << 21,
) -> np.ndarray:
    """Integrate M u' = -K u to time t, doubling the step count until two
    consecutive refinements agree to ``rtol`` in the M norm; M and K are
    ``Banded``, as the package assembles them."""
    if t == 0.0:
        return np.array(u0, dtype=float, copy=True)
    mass, stiff = convert(mass), convert(stiff)

    def mnorm(v):
        return math.sqrt(max(float(v @ (mass @ v)), 0.0))

    n = start_steps
    prev = _cn_run(mass, stiff, u0, t, n)
    gap = np.inf
    while n <= max_steps:
        n *= 2
        cur = _cn_run(mass, stiff, u0, t, n)
        scale = max(mnorm(cur), mnorm(u0), 1e-300)
        gap = mnorm(cur - prev)
        if gap <= rtol * scale:
            return cur
        prev = cur
    raise StepControlError(
        f"Crank-Nicolson: no convergence to rtol={rtol:g} after {n} steps "
        f"at t={t:g} (last M-norm gap {gap:.3g})"
    )


def growth_rate(gen) -> float:
    """Largest eigenvalue of (-(symmetric part of K), M): the sharp
    exponential growth rate of ||u(t)||_M for the semidiscrete flow."""
    flux = gen.flux.toarray()
    sym = (flux + flux.T) / 2.0
    vals = scipy.linalg.eigh(
        -sym, gen.mass.toarray(), eigvals_only=True,
        subset_by_index=[gen.n - 1, gen.n - 1],
    )
    return float(vals[0])


def l2_norm(gen, u) -> float:
    """sqrt(u^T M u): for P1, the exact L2 norm of the nodal function u."""
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(abs(u @ (gen.mass @ u))))


def interpolate_to_cells(grid, u_nodes) -> np.ndarray:
    """Cell-midpoint values of the P1 function with nodal values
    ``u_nodes``, edge by edge (for comparison with finite-volume cell
    values)."""
    blocks = [u_nodes[grid.block(i, NODES)] for i in range(grid.n_edges)]
    return np.concatenate([(b[:-1] + b[1:]) / 2.0 for b in blocks])


def _abs_integral(poly, a: float, b: float) -> float:
    """integral of |p| over [a, b], split at the real roots inside."""
    anti = poly.integ()
    cuts = sorted(
        float(r.real)
        for r in poly.roots()
        if abs(r.imag) < 1e-12 and a < r.real < b
    )
    points = [a] + cuts + [b]
    return sum(
        abs(float(anti(hi) - anti(lo))) for lo, hi in zip(points[:-1], points[1:])
    )


def image_series_cutoff(a, b, lam, phi, tolerance: float) -> int:
    """Smallest K with tail bound e^{-2 mu K L}/(1 - e^{-2 mu L}) *
    ||phi||_1 / (2 mu) below ``tolerance``."""
    _check_interval(a, b, lam)
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    src = as_source(phi)
    mu = math.sqrt(lam)
    big_l = b - a
    norm1 = _abs_integral(src, a, b)
    if norm1 == 0.0:
        return 0
    lead = norm1 / (2.0 * mu * (-math.expm1(-2.0 * mu * big_l)))
    if lead <= tolerance:
        return 0
    return max(0, math.ceil(math.log(lead / tolerance) / (2.0 * mu * big_l)))


def resolvent_image_series(a, b, lam, phi, x, tolerance: float = 1e-12) -> np.ndarray:
    """Resolvent through reflected copies of the source; must agree with
    ``resolvent_apply`` up to the truncation tolerance."""
    _check_interval(a, b, lam)
    src = as_source(phi)
    mu = math.sqrt(lam)
    cutoff = image_series_cutoff(a, b, lam, src, tolerance)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    shifts = 2.0 * (b - a) * np.arange(-cutoff, cutoff + 1)[:, None]
    direct = _kernel(src, a, b, mu, (shifts + x).ravel())
    mirrored = _kernel(src, a, b, mu, (2.0 * a - shifts - x).ravel())
    total = (direct + mirrored).reshape(len(shifts), len(x)).sum(axis=0)
    return total / (2.0 * mu)
