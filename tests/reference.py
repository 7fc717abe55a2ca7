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
  cell-midpoint values of a P1 function.

Tests import this module like ``conftest``; its name does not match
``test_*.py``, so pytest collects no tests from it.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from graphdiff._stepping import StepControlError
from graphdiff.grids import NODES


def dense_generator(gen) -> np.ndarray:
    """A = -M^-1 K of a ``DiscreteGenerator``, dense."""
    return -scipy.linalg.solve(gen.mass.toarray(), gen.flux.toarray(), assume_a="pos")


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
    consecutive refinements agree to ``rtol`` in the M norm."""
    if t == 0.0:
        return np.array(u0, dtype=float, copy=True)
    mass = sp.csr_matrix(mass)
    stiff = sp.csr_matrix(stiff)

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
