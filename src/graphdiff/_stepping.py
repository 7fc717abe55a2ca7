"""The time stepper for linear systems  M u' = -K u.

``krylov_apply`` takes the mass M and the stiffness K as the
discretization assembles it, K as its terms (``gen.terms``: kappa S
and C), and measures in the M inner product.  It is the one route behind
``evolution.propagate`` and both sides of a sweep, the limit chain
c' = Q c taken as the pair (D, -D Q) with D the edge lengths.

It runs shift-and-invert Arnoldi for a whole list of times.  The
positive times are grouped into windows ``t_max <= KRYLOV_WINDOW *
t_min``; each window factors ``M + K/gamma`` once (``factor_shifted``)
with ``gamma = SHIFT_T / sqrt(t_min t_max)`` and grows one Arnoldi basis
on ``S = (M + K/gamma)^-1 M`` in the M inner product, which gives
``S V_m = V_m H_m + ...``.  ``row_scaled`` factors a diagonal M = W
(``finite_volume.is_diagonal``) row-scaled, as ``I + W^-1 K/gamma``:
the same S with up to 40x less mass drift at kappa = 1e4.  Since
``-M^-1 K = gamma (I - S^-1)``, the solution at each time t
of the window is ``beta V_m f(H_m) e1`` with
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

The factorization is numpy wherever it can be (``factor_shifted``).
Each edge's unknowns are numbered consecutively, so M + K/gamma is a
tridiagonal band T plus the couplings between end unknowns of edges not
numbered next to each other, in k rows: 3 on the shipped star, none on a
consecutively numbered path at trace order 1.  For k <= WOODBURY_MAX_ROWS
the band is factored by odd-even cyclic reduction (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970), so a solve is about 2 log2 n
array operations, and the k rows enter by the Woodbury identity with a
dense k x k capacitance matrix (none for k = 0).  Neither pivots.  At
trace order 1 the row-scaled FV, FD and chain matrices are
W^-1 (W + K/gamma), and ``W + K/gamma`` has nonpositive off-diagonal
entries and is diagonally dominant, by columns where mass is conserved
(FV, the chain) and by rows where constants are (FD): a nonsingular
M-matrix, as is its band and every Schur complement that the reduction
forms, so every pivot is positive.  The P1 matrix M + K/gamma is strictly diagonally dominant by
columns, which elimination in any symmetric order keeps.  Second-order
FV traces and other graphs have no such argument, so each numpy
factorization must pass a probe solve with a backward error of at most
PROBE_MAX_ETA eps.  More rows outside the band (a large tree, or a path
of more than 33 edges at trace order 2), a zero pivot, a singular
capacitance or a failed probe hand the matrix to SuperLU, which pivots,
and only then is ``scipy.sparse.linalg`` loaded.  Each solve is refined
once (Skeel, Math. Comp. 35, 1980) with the residual
``b - (M x + sum_i K_i x / gamma)`` taken term by term: the rounded sum
of kappa S and C would put a kappa-sized error into the edge means,
which the term-wise residual leaves out.

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
import scipy.sparse as sp

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
# the most rows outside the tridiagonal band that the Woodbury identity
# takes: T^-1 P (n x k) is then no larger than the Arnoldi basis
WOODBURY_MAX_ROWS = KRYLOV_MAX_DIM
# the largest normwise backward error, in units of eps, that an unpivoted
# factorization may show on its probe solve
PROBE_MAX_ETA = 100.0
# cyclic reduction stops at this many unknowns (2^6 - 1) and inverts the
# rest densely: the last levels would cost a call each for a few numbers
REDUCED_SIZE = 63


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


def krylov_apply(mass, terms, u0: np.ndarray, ts) -> np.ndarray:
    """Solve M u' = -K u to every time in ``ts`` by shift-and-invert Arnoldi.

    ``terms`` is a sequence of sparse matrices that sum to K, such as
    ``gen.terms``; ``row_scaled`` scales them for a diagonal M.  Returns
    one row per entry of ``ts`` (finite, >= 0), in input order; ``t = 0``
    gives ``u0``.  Each window of ``time_windows(ts)`` shares one
    factorization and one basis, which grows until, for every time of the
    window, the iterates at sizes m - 4 and m agree to KRYLOV_RTOL
    relative to max(|u(t)|, |u0|) in the M norm; a basis of
    KRYLOV_MAX_DIM vectors without it raises StepControlError naming the
    unconverged times.
    """
    mass = sp.csr_matrix(mass)
    terms = [sp.csr_matrix(term) for term in terms]
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
    left, terms = row_scaled(mass, terms)
    solved = {0.0: u0}
    for window in time_windows(ts):
        solved.update(_krylov_window(mass, left, terms, u0, beta, window))
    return np.array([solved[t] for t in ts])


def row_scaled(mass, terms):
    """(left, terms) as the propagator factors them: I and W^-1 K_i for a
    diagonal mass W (``is_diagonal``), else ``mass`` and ``terms``."""
    if not is_diagonal(mass):
        return mass, terms
    scale = sp.diags(1.0 / mass.diagonal())
    return sp.identity(mass.shape[0], format="csr"), [scale @ term for term in terms]


def _krylov_window(mass, left, terms, u0, beta, window) -> dict:
    """{t: u(t)} for the ascending times of one window, on the basis of
    (left + K/gamma)^-1 left, K the sum of ``terms``: (M + K/gamma)^-1 M,
    row-scaled for a diagonal M."""
    times = ", ".join(f"{t:g}" for t in window)
    root = math.sqrt(window[0] * window[-1])  # over- or underflows at extreme t
    gamma = SHIFT_T / root if root > 0 else math.inf
    if not 0 < gamma < math.inf:
        raise StepControlError(
            f"Krylov propagator: no finite positive pole gamma={gamma:g} "
            f"for t={times}"
        )
    try:
        solve = shifted_solver(left, terms, gamma)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise StepControlError(
            f"Krylov propagator: the shifted matrix M + K/gamma is singular "
            f"({exc}) at gamma={gamma:g} with {u0.size} unknowns, for t={times}"
        ) from exc
    # max |K_ii / M_ii| / gamma at 1/eps or more: M is lost in the rounding
    k_diag = sum(term.diagonal() for term in terms)
    ratio = np.finfo(float).eps * np.abs(k_diag / left.diagonal()).max() / gamma
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
    import scipy.linalg

    core = np.eye(len(theta)) - scipy.linalg.inv(hess)
    return np.array([scipy.linalg.expm(tau * core)[:, 0] for tau in taus])


def shifted_solver(left, terms, gamma):
    """A solver ``b -> (left + K/gamma)^-1 b``, K the sum of ``terms``: one
    ``factor_shifted`` of the summed matrix, and each solve refined once
    with the residual ``b - (left x + sum_i term_i x / gamma)`` taken term
    by term.  Raises RuntimeError as ``factor_shifted`` does."""
    approx = factor_shifted(left + sum(terms[1:], terms[0]) / gamma)

    def solve(b):
        x = approx(b)
        return x + approx(b - (left @ x + sum(term @ x for term in terms) / gamma))

    return solve


def factor_shifted(matrix):
    """A solver ``b -> A^-1 b`` for the sparse n x n ``A``; ``b`` may be
    (n,) or (n, r).  With k <= WOODBURY_MAX_ROWS rows outside the
    tridiagonal band T, A = T + P R (P unit columns, R those rows'
    entries outside T) is solved in numpy: T by cyclic reduction
    (``_band_solver``), P R by the Woodbury identity with the k x k
    capacitance I + R T^-1 P (an empty update for k = 0).  Neither
    pivots, so a probe solve must show a normwise backward error of at
    most PROBE_MAX_ETA eps.  More rows, a zero pivot, a singular
    capacitance or a failed probe hand A to SuperLU (``splu``, which
    pivots), and RuntimeError is raised if A is singular."""
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    coo = matrix.tocoo()
    far = (np.abs(coo.row - coo.col) > 1) & (coo.data != 0)
    rows = np.unique(coo.row[far])
    if rows.size <= WOODBURY_MAX_ROWS:
        unit = np.zeros((n, rows.size))  # P
        unit[rows, np.arange(rows.size)] = 1.0
        outside = np.zeros((rows.size, n))  # R
        outside[np.searchsorted(rows, coo.row[far]), coo.col[far]] = coo.data[far]
        try:
            band = _band_solver(matrix.diagonal(-1), matrix.diagonal(), matrix.diagonal(1))
            spread = band(unit)  # T^-1 P, no larger than the Arnoldi basis
            spread = spread @ np.linalg.inv(np.eye(rows.size) + outside @ spread)

            def solve(b):
                y = band(b)
                return y - spread @ (outside @ y)

            probe = np.cos(np.arange(n))  # a right-hand side with no structure
            x = solve(probe)
            size = abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(probe).max()
            eta = np.abs(probe - matrix @ x).max() / size / np.finfo(float).eps
            if eta <= PROBE_MAX_ETA:  # also false for NaN
                return solve
        except np.linalg.LinAlgError:  # a zero pivot or a singular capacitance
            pass
    from scipy.sparse.linalg import splu

    return splu(matrix.tocsc()).solve


def _band_solver(lower, diag, upper):
    """A solver ``d -> T^-1 d`` for the tridiagonal T with these three
    diagonals, by odd-even cyclic reduction: padded with identity rows
    to 2^L - 1 unknowns, each level eliminates the even-numbered ones
    and keeps the odd ones, down to REDUCED_SIZE unknowns, whose
    tridiagonal matrix is inverted densely."""
    n = diag.size
    size = 2 ** n.bit_length() - 1
    a, b, c = np.zeros(size), np.ones(size), np.zeros(size)
    a[1:n], b[:n], c[: n - 1] = lower, diag, upper
    levels = []
    while b.size > REDUCED_SIZE:
        pivots = b[0::2]
        if not (np.isfinite(pivots).all() and pivots.all()):
            raise np.linalg.LinAlgError("zero or non-finite pivot")
        # the multiples of the previous and next (eliminated) equation that
        # each kept equation takes in
        prev, succ = -a[1::2] / pivots[:-1], -c[1::2] / pivots[1:]
        levels.append((a[0::2], c[0::2], 1.0 / pivots, prev, succ))
        a, b, c = prev * a[:-1:2], b[1::2] + prev * c[:-1:2] + succ * a[2::2], succ * c[2::2]
    inverse = np.linalg.inv(np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1))

    def solve(rhs):
        # unknowns on the last axis, so that the coefficients broadcast
        d = np.zeros(rhs.shape[1:] + (size,))
        d[..., :n] = rhs.T
        kept = []
        for _, _, _, prev, succ in levels:
            kept.append(d)
            d = d[..., 1::2] + prev * d[..., :-1:2] + succ * d[..., 2::2]
        x = d @ inverse.T
        for (ea, ec, inv, _, _), d in zip(reversed(levels), reversed(kept)):
            # x on the odd unknowns, at the even slots of a zero border
            full = np.zeros(d.shape[:-1] + (d.shape[-1] + 2,))
            full[..., 2:-2:2] = x
            full[..., 1::2] = (d[..., 0::2] - ea * full[..., :-1:2] - ec * full[..., 2::2]) * inv
            x = full[..., 1:-1]
        return x[..., :n].T

    return solve
