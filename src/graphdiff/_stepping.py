"""The time stepper for linear systems  M u' = -K u.

``krylov_apply`` takes the pair (M, K) as the discretization assembles
it and measures in the M inner product.  It is the one route behind
``evolution.propagate`` and both sides of a sweep, the limit chain
c' = Q c taken as the pair (D, -D Q) with D the edge lengths.

It runs shift-and-invert Arnoldi for a whole list of times.  The
positive times are grouped into windows ``t_max <= KRYLOV_WINDOW *
t_min``; each window gets one sparse LU of ``M + K/gamma`` with
``gamma = SHIFT_T / sqrt(t_min t_max)`` and one Arnoldi basis on
``S = (M + K/gamma)^-1 M`` in the M inner product, which gives
``S V_m = V_m H_m + ...``.  A diagonal M = W is factored row-scaled,
``I + W^-1 K/gamma``: the same S with up to 40x less mass drift at
kappa = 1e4.  The one test for it, ``is_diagonal``, lives in
``finite_volume`` beside ``DiscreteGenerator.matrix``, which reads it
too, so that building a generator loads no solver.  Since
``-M^-1 K = gamma (I - S^-1)``, the solution at each time t of the
window is ``beta V_m f(H_m) e1`` with
``f(theta) = exp(t gamma (1 - 1/theta))``, from one eigendecomposition
of the m x m ``H_m`` per step (Higham, *Functions of Matrices*, 2008;
``expm`` only for a near-defective ``H_m``).  The rational basis
resolves the stiff diffusion modes at any kappa, and unlike a contour
quadrature it needs no enclosure of the spectrum, so non-normal
membrane couplings with complex eigenvalues are handled the same way.
One pole serves a bounded range of times only (van den Eshof &
Hochbruck, SIAM J. Sci. Comput. 27, 2006; Moret & Novati, BIT 44,
2004): over t in {0.1, 10} a single pole stops at an answer 6e-2 off on
a 20-edge directed cycle, hence the windows.  The basis grows until,
for every time of the window, iterates m - 4 and m agree to KRYLOV_RTOL.

It raises ``StepControlError`` with the numbers of its last attempt
when KRYLOV_MAX_DIM vectors do not reach KRYLOV_RTOL, when ``M + K/gamma``
is singular in floating point (kappa = 1e14 on the shipped star), when
``eps max_i |K_ii / M_ii| / gamma >= 1`` puts M below its rounding
(kappa = 1e12 there), or when t_min t_max over- or underflows and leaves
no finite positive pole gamma (t = 1e300 or 1e-200).

The references it is checked against, the dense matrix exponential and
step-doubling Crank-Nicolson, live with the tests in
``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .finite_volume import is_diagonal

# gamma * t for the shift-and-invert pole; iterates at basis sizes
# m - KRYLOV_LAG and m are compared for the stopping rule
SHIFT_T = 10.0
KRYLOV_LAG = 4
# one pole and one basis serve the times t_min <= t <= KRYLOV_WINDOW * t_min
KRYLOV_WINDOW = 8.0
# ||V^-1 e1||_1 beyond which the Arnoldi matrix's eigenbasis is too
# ill-conditioned for its exponential (round-off about eps times this)
EIG_CANCEL_MAX = 1e3
# the stopping rule's relative tolerance; a window fails at this basis size
KRYLOV_RTOL = 1e-8
KRYLOV_MAX_DIM = 64


class StepControlError(RuntimeError):
    """The Krylov propagator did not reach its tolerance, or could not
    factor or resolve its shifted matrix."""


def time_windows(ts) -> list:
    """The distinct positive times of ``ts``, ascending, grouped greedily
    into windows with t_max <= KRYLOV_WINDOW * t_min."""
    windows = []
    for t in sorted({t for t in ts if t > 0}):
        if windows and t <= KRYLOV_WINDOW * windows[-1][0]:
            windows[-1].append(t)
        else:
            windows.append([t])
    return windows


def krylov_apply(mass, stiff, u0: np.ndarray, ts) -> np.ndarray:
    """Solve M u' = -K u to every time in ``ts`` by shift-and-invert Arnoldi.

    Returns one row per entry of ``ts`` (finite, >= 0), in input order;
    ``t = 0`` gives ``u0``.  Each window of ``time_windows(ts)`` shares
    one factorization and one basis, which grows until, for every time of
    the window, the iterates at sizes m - 4 and m agree to KRYLOV_RTOL
    relative to max(|u(t)|, |u0|) in the M norm; a basis of
    KRYLOV_MAX_DIM vectors without that agreement raises StepControlError
    naming the unconverged times.
    """
    mass = sp.csr_matrix(mass)
    stiff = sp.csr_matrix(stiff)
    n = mass.shape[0]
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,):
        raise ValueError(f"phi0 must have shape ({n},), got {u0.shape}")
    ts = [float(t) for t in ts]
    bad = [t for t in ts if not 0 <= t < math.inf]
    if bad:
        raise ValueError(f"t must be finite and >= 0, got {bad[0]}")
    beta = float(np.sqrt(u0 @ (mass @ u0)))
    if beta == 0.0:
        return np.zeros((len(ts), n))
    left = mass
    if is_diagonal(mass):  # row-scale
        left, stiff = sp.identity(n, format="csr"), sp.diags(1.0 / mass.diagonal()) @ stiff
    solved = {0.0: u0}
    for window in time_windows(ts):
        solved.update(_krylov_window(mass, left, stiff, u0, beta, window))
    return np.array([solved[t] for t in ts])


def _krylov_window(mass, left, stiff, u0, beta, window) -> dict:
    """{t: u(t)} for the ascending times of one window, on the basis of
    (left + stiff/gamma)^-1 left: (M + K/gamma)^-1 M, row-scaled for a
    diagonal M."""
    times = ", ".join(f"{t:g}" for t in window)
    root = math.sqrt(window[0] * window[-1])  # over- or underflows at extreme t
    gamma = SHIFT_T / root if root > 0 else math.inf
    if not 0 < gamma < math.inf:
        raise StepControlError(
            f"Krylov propagator: no finite positive pole gamma={gamma:g} "
            f"for t={times}"
        )
    try:
        solve = splu((left + stiff / gamma).tocsc()).solve
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StepControlError(
            f"Krylov propagator: the shifted matrix M + K/gamma is singular "
            f"({exc}) at gamma={gamma:g} with {u0.size} unknowns, for t={times}"
        ) from exc
    # max |K_ii / M_ii| / gamma at 1/eps or more: M is lost in the rounding
    ratio = np.finfo(float).eps * np.abs(stiff.diagonal() / left.diagonal()).max() / gamma
    if ratio >= 1.0:
        raise StepControlError(
            f"Krylov propagator: the mass is below the rounding of M + K/gamma "
            f"(eps max|K_ii/M_ii| / gamma = {ratio:.3g} >= 1) at gamma={gamma:g}, "
            f"for t={times}"
        )

    basis = np.empty((KRYLOV_MAX_DIM + 1, u0.size))
    hess = np.zeros((KRYLOV_MAX_DIM + 1, KRYLOV_MAX_DIM))
    basis[0] = u0 / beta
    coeffs = {t: [] for t in window}
    estimate = dict.fromkeys(window, np.inf)
    done = {}
    for j in range(KRYLOV_MAX_DIM):
        w = solve(left @ basis[j])
        # Gram-Schmidt twice keeps the basis orthonormal to round-off
        for _ in range(2):
            h = basis[: j + 1] @ (mass @ w)
            w -= h @ basis[: j + 1]
            hess[: j + 1, j] += h
        m = j + 1
        hess[m, j] = np.sqrt(max(float(w @ (mass @ w)), 0.0))
        # an invariant subspace makes the current iterates exact
        invariant = hess[m, j] <= 1e-14 * np.abs(hess[:m, j]).max()
        todo = [t for t in window if t not in done]
        rows = beta * _small_exp_e1(hess[:m, :m], gamma * np.array(todo))
        for t, y in zip(todo, rows):
            coeffs[t].append(y)
            if invariant:
                done[t] = y @ basis[:m]
            elif m > KRYLOV_LAG:
                prev = coeffs[t][m - 1 - KRYLOV_LAG]
                diff = y.copy()
                diff[: prev.size] -= prev
                estimate[t] = float(np.linalg.norm(diff))
                if estimate[t] <= KRYLOV_RTOL * max(float(np.linalg.norm(y)), beta):
                    done[t] = y @ basis[:m]
        if len(done) == len(window):
            return done
        basis[m] = w / hess[m, j]
    unconverged = ", ".join(
        f"t={t:g} (last estimate {estimate[t]:.3g})" for t in window if t not in done
    )
    raise StepControlError(
        f"Krylov propagator: no convergence to rtol={KRYLOV_RTOL:g} "
        f"with m={KRYLOV_MAX_DIM} basis vectors at {unconverged}"
    )


def _small_exp_e1(hess, taus) -> np.ndarray:
    """Rows expm(tau (I - H^-1)) e1, one per tau, for the m x m Arnoldi
    matrix H, from one eigendecomposition H = V diag(theta) V^-1.  V has
    unit columns, so ||V^-1 e1||_1 bounds the cancellation; past
    EIG_CANCEL_MAX (a near-defective H) the dense expm serves instead."""
    theta, vecs = np.linalg.eig(hess)
    try:
        c = np.linalg.solve(vecs, np.eye(len(theta))[0])
    except np.linalg.LinAlgError:  # exactly parallel eigenvectors
        c = np.full(len(theta), np.inf)
    if np.abs(c).sum() <= EIG_CANCEL_MAX:
        return (np.exp(np.outer(taus, 1.0 - 1.0 / theta)) * c @ vecs.T).real
    core = np.eye(len(theta)) - scipy.linalg.inv(hess)
    return np.array([scipy.linalg.expm(tau * core)[:, 0] for tau in taus])
